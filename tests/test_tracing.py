"""Unit tests for the simulator's optional event tracing."""

import numpy as np
import pytest

from repro.comm import CORI_HASWELL, Simulator, TraceEvent


def fn(ctx):
    ctx.set_phase("l")
    if ctx.rank == 0:
        yield ctx.compute(1.0, category="fp")
        yield ctx.send(1, np.zeros(8), tag="t", category="xy")
    else:
        yield ctx.recv(src=0, tag="t", category="xy")
        yield ctx.compute(0.5, category="fp")


def test_trace_disabled_by_default():
    res = Simulator(2, CORI_HASWELL).run(fn)
    assert res.trace is None
    with pytest.raises(ValueError):
        res.trace_timeline()


def test_trace_records_all_kinds():
    res = Simulator(2, CORI_HASWELL, trace=True).run(fn)
    kinds = {e.kind for e in res.trace}
    assert kinds == {"compute", "send", "wait"}
    sends = [e for e in res.trace if e.kind == "send"]
    assert sends[0].rank == 0 and sends[0].detail == 1
    waits = [e for e in res.trace if e.kind == "wait"]
    assert waits[0].rank == 1 and waits[0].detail == 0


def test_trace_timeline_sorted_and_filtered():
    res = Simulator(2, CORI_HASWELL, trace=True).run(fn)
    tl = res.trace_timeline()
    assert all(tl[i].t0 <= tl[i + 1].t0 for i in range(len(tl) - 1))
    tl0 = res.trace_timeline(rank=0)
    assert {e.rank for e in tl0} == {0}


def test_trace_intervals_consistent_with_times():
    """Per-rank summed trace durations equal the accounted times."""
    res = Simulator(2, CORI_HASWELL, trace=True).run(fn)
    for r in range(2):
        total_trace = sum(e.t1 - e.t0 for e in res.trace_timeline(rank=r))
        total_times = res.time_by()[r]
        assert total_trace == pytest.approx(total_times, rel=1e-12)
        # Intervals are non-overlapping and end at the final clock.
        tl = res.trace_timeline(rank=r)
        for a, b in zip(tl, tl[1:]):
            assert a.t1 <= b.t0 + 1e-15
        assert tl[-1].t1 == pytest.approx(res.clocks[r])


def test_trace_phase_labels():
    res = Simulator(2, CORI_HASWELL, trace=True).run(fn)
    assert all(e.phase == "l" for e in res.trace)


def test_solver_trace_integration():
    """A full solve can be traced end to end."""
    from repro.core.sptrsv3d_new import build_new3d_setup, new3d_rank_fn
    from repro.core import SpTRSVSolver
    from repro.matrices import make_rhs, poisson2d

    A = poisson2d(10, stencil=9, seed=2)
    s = SpTRSVSolver(A, 2, 1, 2, max_supernode=8)
    setup = s.setup("new3d", "auto")
    b = make_rhs(A.shape[0], 1)[s.perm]
    res = Simulator(s.grid.nranks, CORI_HASWELL, trace=True).run(
        new3d_rank_fn(setup, b, 1))
    tl = res.trace_timeline()
    assert len(tl) > 10
    phases = {e.phase for e in tl}
    assert {"l", "u"} <= phases


# -- fault events in traces and exports --------------------------------------


def faulty_fn(ctx):
    ctx.set_phase("l")
    if ctx.rank == 0:
        for k in range(12):
            yield ctx.send(1, np.zeros(8), tag=k, category="xy")
    else:
        for _ in range(12):
            yield ctx.recv(src=0, category="xy")


def faulty_run():
    from repro.comm import FaultPlan, ReliableTransport

    plan = FaultPlan.uniform(seed=9, drop=0.6, delay=0.6)
    return Simulator(2, CORI_HASWELL, trace=True, faults=plan,
                     reliable=ReliableTransport(max_retries=16)).run(faulty_fn)


def test_trace_records_fault_events():
    res = faulty_run()
    faults = [e for e in res.trace if e.kind == "fault"]
    assert len(faults) == len(res.fault_events)
    assert {e.category for e in faults} >= {"drop", "retransmit"}
    for e in faults:
        assert e.t0 == e.t1  # zero-duration instants
        assert e.detail["dst"] == 1


def test_trace_timeline_interleaves_faults_in_order():
    res = faulty_run()
    tl = res.trace_timeline()
    assert all(tl[i].t0 <= tl[i + 1].t0 for i in range(len(tl) - 1))
    assert any(e.kind == "fault" for e in tl)


def test_chrome_export_round_trips_fault_events(tmp_path):
    import json

    from repro.comm.trace_export import to_chrome_trace

    res = faulty_run()
    path = tmp_path / "trace.json"
    n = to_chrome_trace(res, str(path))
    data = json.loads(path.read_text())
    events = data["traceEvents"]
    assert n == len(events) == len(res.trace)
    instants = [e for e in events if e["ph"] == "i"]
    assert len(instants) == len(res.fault_events)
    names = {e["name"] for e in instants}
    assert "fault:drop" in names and "fault:retransmit" in names
    by_time = sorted((e.time, e.kind) for e in res.fault_events)
    got = sorted((e["ts"] / 1e6, e["name"].split(":", 1)[1])
                 for e in instants)
    for (t_ref, k_ref), (t_got, k_got) in zip(by_time, got):
        assert t_got == pytest.approx(t_ref)
        assert k_got == k_ref
    # args survive as plain JSON values
    assert all(e["args"]["dst"] == 1 for e in instants)
    assert all(e["cat"] == "fault" for e in instants)


def test_csv_export_includes_fault_rows(tmp_path):
    import csv

    from repro.comm.trace_export import to_csv

    res = faulty_run()
    path = tmp_path / "trace.csv"
    rows = to_csv(res, str(path))
    with open(path) as f:
        recs = list(csv.DictReader(f))
    assert rows == len(recs) == len(res.trace)
    fault_rows = [r for r in recs if r["kind"] == "fault"]
    assert len(fault_rows) == len(res.fault_events)
    for r in fault_rows:
        assert r["t0"] == r["t1"]
        assert "dst=1" in r["peer"]
