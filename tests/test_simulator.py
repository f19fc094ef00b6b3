"""Unit tests for the discrete-event message-passing simulator."""

import ast
import dataclasses
import hashlib
import json
import os
import pathlib
import re

import numpy as np
import pytest

from repro.comm import (
    ANY,
    CORI_HASWELL,
    DeadlockError,
    FaultPlan,
    RecvTimeout,
    RMAError,
    Simulator,
)
from repro.comm.simulator import OPS, Engine


MACHINE = CORI_HASWELL


def run(nranks, fn):
    return Simulator(nranks, MACHINE).run(fn)


def test_single_rank_compute():
    def fn(ctx):
        yield ctx.compute(1.5, category="fp")
        return ctx.rank

    res = run(1, fn)
    assert res.clocks[0] == pytest.approx(1.5)
    assert res.results == [0]
    assert res.time_by(category="fp")[0] == pytest.approx(1.5)


def test_ping_pong_payload_and_clock():
    data = np.arange(8, dtype=float)

    def fn(ctx):
        if ctx.rank == 0:
            yield ctx.send(1, data, tag="ping")
            src, tag, back = yield ctx.recv(src=1, tag="pong")
            return back
        else:
            src, tag, got = yield ctx.recv(src=0, tag="ping")
            yield ctx.send(0, got * 2, tag="pong")
            return None

    res = run(2, fn)
    assert np.array_equal(res.results[0], data * 2)
    # One network round trip: both clocks at least 2 * alpha_intra.
    assert res.clocks[0] >= 2 * MACHINE.net.alpha_intra


def test_send_copies_payload():
    """Sender-side mutation after an eager send must not reach the receiver."""
    def fn(ctx):
        if ctx.rank == 0:
            buf = np.ones(4)
            yield ctx.send(1, buf, tag=0)
            buf[:] = -1
            yield ctx.compute(1.0)
        else:
            yield ctx.compute(0.5)  # receive strictly after the mutation
            _, _, got = yield ctx.recv(src=0, tag=0)
            assert (got == 1).all()

    run(2, fn)


def test_any_source_picks_earliest_arrival():
    def fn(ctx):
        if ctx.rank == 0:
            yield ctx.compute(1.0)
            yield ctx.send(2, np.array([0.0]), tag="t")
        elif ctx.rank == 1:
            yield ctx.send(2, np.array([1.0]), tag="t")
        else:
            a = yield ctx.recv(src=ANY, tag="t")
            b = yield ctx.recv(src=ANY, tag="t")
            return (a[0], b[0])

    res = run(3, fn)
    # Rank 1's message was sent at t=0, rank 0's at t=1.0.
    assert res.results[2] == (1, 0)


def test_tag_filtering():
    def fn(ctx):
        if ctx.rank == 0:
            yield ctx.send(1, "late", tag="b")
            yield ctx.send(1, "first", tag="a")
        else:
            _, _, v1 = yield ctx.recv(src=0, tag="a")
            _, _, v2 = yield ctx.recv(src=0, tag="b")
            return (v1, v2)

    res = run(2, fn)
    assert res.results[1] == ("first", "late")


def test_recv_wait_time_attributed():
    def fn(ctx):
        if ctx.rank == 0:
            yield ctx.compute(2.0)
            yield ctx.send(1, np.zeros(1), tag=0)
        else:
            yield ctx.recv(src=0, tag=0, category="xy")

    res = run(2, fn)
    assert res.time_by(category="xy")[1] >= 2.0


def test_deadlock_detection():
    def fn(ctx):
        yield ctx.recv(src=ANY, tag="never")

    with pytest.raises(DeadlockError, match="blocked"):
        run(2, fn)


def test_deadlock_message_names_phase():
    def fn(ctx):
        ctx.set_phase("lsolve")
        yield ctx.recv(src=0, tag="x")

    with pytest.raises(DeadlockError, match="lsolve"):
        run(1, fn)


def test_phase_and_category_accounting():
    def fn(ctx):
        ctx.set_phase("l")
        yield ctx.compute(1.0, category="fp")
        ctx.set_phase("u")
        yield ctx.compute(2.0, category="fp")
        yield ctx.compute(0.5, category="xy")

    res = run(1, fn)
    assert res.time_by(phase="l", category="fp")[0] == pytest.approx(1.0)
    assert res.time_by(phase="u", category="fp")[0] == pytest.approx(2.0)
    assert res.time_by(phase="u")[0] == pytest.approx(2.5)
    assert res.time_by()[0] == pytest.approx(3.5)
    assert ("l", "fp") in res.categories()


def test_message_stats():
    def fn(ctx):
        if ctx.rank == 0:
            for k in range(5):
                yield ctx.send(1, np.zeros(10), tag=k, category="xy")
        else:
            for _ in range(5):
                yield ctx.recv(src=0, category="xy")

    res = run(2, fn)
    assert res.msgs_by(category="xy") == 5
    assert res.bytes_by(category="xy") == pytest.approx(5 * 80)


def test_inter_node_slower_than_intra():
    big = np.zeros(1_000_000)

    def fn(ctx):
        if ctx.rank == 0:
            yield ctx.send(1, big, tag=0)       # same node (ranks/node = 32)
            yield ctx.send(32, big, tag=0)      # different node
        elif ctx.rank in (1, 32):
            yield ctx.recv(src=0, tag=0)

    res = Simulator(33, MACHINE).run(fn)
    assert res.clocks[32] > res.clocks[1]


def test_marks_record_clock():
    def fn(ctx):
        ctx.mark("start")
        yield ctx.compute(3.0)
        ctx.mark("end")

    res = run(1, fn)
    assert res.marks[0]["start"] == 0.0
    assert res.marks[0]["end"] == pytest.approx(3.0)


def test_nonblocking_sends_allow_exchange():
    """Both ranks send first then receive: must not deadlock (eager sends)."""
    def fn(ctx):
        other = 1 - ctx.rank
        yield ctx.send(other, np.full(3, ctx.rank), tag=0)
        _, _, got = yield ctx.recv(src=other, tag=0)
        return float(got[0])

    res = run(2, fn)
    assert res.results == [1.0, 0.0]


def test_invalid_ops_rejected():
    def bad_dst(ctx):
        yield ctx.send(99, np.zeros(1))

    with pytest.raises(ValueError):
        run(2, bad_dst)

    def bad_compute(ctx):
        yield ctx.compute(-1.0)

    with pytest.raises(ValueError):
        run(1, bad_compute)

    def bad_yield(ctx):
        yield "not an op"

    with pytest.raises(TypeError):
        run(1, bad_yield)


def test_determinism():
    def fn(ctx):
        if ctx.rank == 0:
            out = []
            for _ in range(6):
                src, tag, v = yield ctx.recv(src=ANY, tag=ANY)
                out.append((src, tag))
            return tuple(out)
        for k in range(2):
            yield ctx.compute(0.1 * ctx.rank)
            yield ctx.send(0, np.zeros(2), tag=k)

    r1 = Simulator(4, MACHINE).run(fn)
    r2 = Simulator(4, MACHINE).run(fn)
    assert r1.results[0] == r2.results[0]
    assert np.array_equal(r1.clocks, r2.clocks)


def test_gemm_op_positive_time():
    def fn(ctx):
        yield ctx.gemm(32, 1, 32, category="fp")

    res = run(1, fn)
    assert res.time_by(category="fp")[0] > 0


def test_unconsumed_messages_surfaced():
    """Regression: a message nobody receives must not vanish silently.

    A rank that exits without draining its mailbox used to leave the
    delivered-but-unconsumed message invisible in the result; it now shows
    up on ``SimResult.unconsumed_msgs`` so the invariant layer (and tests)
    can flag the protocol leak."""
    def fn(ctx):
        if ctx.rank == 0:
            yield ctx.send(1, np.zeros(4), tag="orphan")
        else:
            yield ctx.compute(1.0)   # exits cleanly, never recvs

    res = run(2, fn)
    assert len(res.unconsumed_msgs) == 1
    m = res.unconsumed_msgs[0]
    assert (m.dst, m.src, m.tag) == (1, 0, "orphan")
    assert m.nbytes == 32


def test_clean_run_has_no_unconsumed_messages():
    def fn(ctx):
        other = 1 - ctx.rank
        yield ctx.send(other, np.zeros(2), tag=0)
        yield ctx.recv(src=other, tag=0)

    res = run(2, fn)
    assert res.unconsumed_msgs == []


def test_simulator_invariants_flag_mailbox_leak():
    from repro.check import InvariantViolation

    def leaky(ctx):
        if ctx.rank == 0:
            yield ctx.send(1, np.zeros(4), tag="orphan")
        else:
            yield ctx.compute(1.0)

    with pytest.raises(InvariantViolation, match="unconsumed"):
        Simulator(2, MACHINE, invariants=True).run(leaky)

    def clean(ctx):
        yield ctx.compute(1.0, category="fp")

    res = Simulator(1, MACHINE, invariants=True).run(clean)
    assert res.clocks[0] == pytest.approx(1.0)


# -- strict wildcard matching (AmbiguousRecvError) ---------------------------


def test_strict_match_flags_ambiguous_wildcard_recv():
    from repro.comm import AmbiguousRecvError

    def racy(ctx):
        if ctx.rank == 0:
            yield ctx.compute(1.0)      # let both sends land first
            _ = yield ctx.recv(src=ANY, tag="m")
            _ = yield ctx.recv(src=ANY, tag="m")
        else:
            yield ctx.send(0, np.zeros(1), tag="m")

    # Non-strict: the scheduler picks one order and completes.
    run(3, racy)
    with pytest.raises(AmbiguousRecvError) as ei:
        Simulator(3, MACHINE, strict_match=True).run(racy)
    assert ei.value.rank == 0
    assert ei.value.srcs == [1, 2]


def test_strict_match_respects_tag_filters():
    """Distinct tags disambiguate: strict mode must not raise."""

    def fn(ctx):
        if ctx.rank == 0:
            yield ctx.compute(1.0)
            for t in ("a", "b"):
                src, tag, _ = yield ctx.recv(src=ANY, tag=t)
                assert tag == t
        else:
            yield ctx.send(0, np.zeros(1), tag="a" if ctx.rank == 1 else "b")

    res = Simulator(3, MACHINE, strict_match=True).run(fn)
    assert res.clocks[0] > 0


def test_strict_match_exact_src_never_raises():
    def fn(ctx):
        if ctx.rank == 0:
            yield ctx.compute(1.0)
            for s in (1, 2):
                _ = yield ctx.recv(src=s, tag="m")
        else:
            yield ctx.send(0, np.zeros(1), tag="m")

    Simulator(3, MACHINE, strict_match=True).run(fn)


def test_strict_match_completion_is_bit_identical():
    """When strict mode completes, it observed the same execution."""

    def fn(ctx):
        if ctx.rank == 0:
            total = np.zeros(1)
            for t in ("m1", "m2"):
                _, _, v = yield ctx.recv(src=ANY, tag=t)
                total += v
            return float(total[0])
        yield ctx.compute(0.1 * ctx.rank)
        yield ctx.send(0, np.full(1, float(ctx.rank)), tag=f"m{ctx.rank}")
        return None

    plain = run(3, fn)
    strict = Simulator(3, MACHINE, strict_match=True).run(fn)
    assert np.array_equal(plain.clocks, strict.clocks)
    assert plain.results == strict.results


def test_solver_strict_match_kwarg():
    from repro.core.solver import SpTRSVSolver
    from repro.matrices import poisson2d

    A = poisson2d(10, stencil=9, seed=3)
    solver = SpTRSVSolver(A, 2, 2, 2)
    b = np.arange(A.shape[0], dtype=float)
    out = solver.solve(b, strict_match=True)
    ref = solver.solve(b)
    assert np.array_equal(out.x, ref.x)
    assert np.array_equal(out.report.sim.clocks, ref.report.sim.clocks)
    with pytest.raises(ValueError, match="strict_match"):
        solver.solve(b, device="gpu", strict_match=True)


# -- scheduler equivalence, pinned across commits ------------------------------
#
# tests/corpus/sim_digests.json holds a SHA-256 of everything the scheduler
# decides (clocks, label tables, marks, the trace in event order, fault
# events, crashes, leftovers) for a fixed set of runs.  It was generated by
# the full-rescan scheduler of PR 16 and is recomputed here, so a scheduler
# change is proven event-for-event identical, not just clock-identical.
# Solution values are left out on purpose: the digests must not depend on
# the host's BLAS.  Regenerate (only for an intended behaviour change) with
# ``PYTHONPATH=src python -m tests.test_simulator``.

DIGESTS = os.path.join(os.path.dirname(__file__), "corpus",
                       "sim_digests.json")


def _digest(res=None, err=None, trace=True):
    h = hashlib.sha256()
    if err is not None:
        # Scrubbed: predicate-tag addresses, and the payload CRCs a checksum
        # mismatch prints (BLAS bits).
        h.update(repr((type(err).__name__,
                       re.sub(r"0x[0-9a-f]+", "0x", str(err)), err.sim_time,
                       [dataclasses.astuple(e) for e in err.fault_events]
                       )).encode())
        return h.hexdigest()
    h.update(res.clocks.tobytes())
    h.update(repr((
        [sorted(d.items()) for d in res.times],
        [sorted(d.items()) for d in res.sent_msgs],
        [sorted(d.items()) for d in res.sent_bytes],
        [sorted(d.items()) for d in res.marks],
        [(e.rank, e.t0, e.t1, e.kind, e.phase, e.category, e.detail)
         for e in (res.trace or ()) if trace],
        [dataclasses.astuple(e) for e in res.fault_events or ()],
        res.crashed,
        [dataclasses.astuple(m) for m in res.unconsumed_msgs],
    )).encode())
    return h.hexdigest()


def _outcome(sim, fn):
    try:
        return _digest(sim.run(fn))
    except Exception as e:
        return _digest(err=e)


def _timeout_program(ctx):
    """Deadlines that lose to a message, tie with one, and expire."""
    if ctx.rank == 0:
        got = []
        for timeout in (5.0, 1.0, 0.25):
            try:
                got.append((yield ctx.recv(src=ANY, tag=lambda t: t[0] == "d",
                                           timeout=timeout))[1])
            except RecvTimeout:
                got.append("timeout")
        yield ctx.send(1, np.zeros(2), tag="go")
        _ = yield ctx.recv(src=1, tag=("d", 9))
        return got
    if ctx.rank == 1:
        yield ctx.compute(0.5)
        yield ctx.send(0, np.ones(3), tag=("d", 1))
        _ = yield ctx.recv(src=0, tag="go", timeout=10.0)
        yield ctx.send(0, np.ones(1), tag=("d", 9))
    else:
        yield ctx.compute(1.5)
        yield ctx.send(0, np.ones(4), tag=("d", 2))


def _racy_program(ctx):
    if ctx.rank == 0:
        yield ctx.compute(1.0)
        for _ in range(2):
            yield ctx.recv(src=ANY, tag=lambda t: t == "m")
    else:
        yield ctx.send(0, np.zeros(1), tag="m")


def _lossy_program(ctx):
    """Wildcard-tag fan-in that tolerates duplicates and reordering."""
    if ctx.rank == 0:
        total = 0.0
        for _ in range(3 * (ctx.nranks - 1)):
            _, _, v = yield ctx.recv(src=ANY, tag=lambda t: t[0] == "v")
            total += float(v[0])
        return total
    for i in range(3):
        yield ctx.compute(0.01 * ctx.rank)
        yield ctx.send(0, np.full(2, float(i)), tag=("v", i))


def sim_cases():
    """The pinned runs: key -> (nranks, machine, Simulator kwargs, a factory
    of the rank program)."""
    from repro.core.backends import BACKENDS, resolve
    from repro.core.solver import SpTRSVSolver
    from repro.matrices import make_rhs, poisson2d

    A = poisson2d(10, stencil=9, seed=3)
    solvers = {g: SpTRSVSolver(A, *g, max_supernode=8)
               for g in ((2, 2, 1), (2, 1, 4))}
    b = make_rhs(A.shape[0], 2, kind="random", seed=5)

    def solve(name, faults=None, **sim_kw):
        solver = solvers[(2, 2, 1) if name == "2d" else (2, 1, 4)]
        run = resolve(name, solver.grid)
        setup = solver.setup(run.impl, run.tree_kind)
        return (solver.grid.nranks, solver.machine,
                dict(faults=faults, **sim_kw),
                lambda: run.rank_fn(setup, b[solver.perm], 2))

    out = {f"backend/{name}": solve(name) for name in BACKENDS}
    out["new3d/lossy-reliable"] = solve(
        "new3d", FaultPlan.uniform(seed=11, drop=0.15, duplicate=0.15,
                                   reorder=0.15, delay=0.2), reliable=True)
    out["new3d/corrupt-checksums"] = solve(
        "new3d", FaultPlan.uniform(seed=14, corrupt=0.02), checksums=True)
    out["new3d/crash"] = solve("new3d", FaultPlan(seed=13, crash={1: 2e-5}))
    out["program/strict-ambiguous"] = (
        3, MACHINE, dict(strict_match=True), lambda: _racy_program)
    out["program/recv-timeout"] = (3, MACHINE, {}, lambda: _timeout_program)
    out["program/dup-reorder"] = (
        4, MACHINE, dict(faults=FaultPlan.uniform(
            seed=15, duplicate=0.4, reorder=0.4, delay=0.3)),
        lambda: _lossy_program)
    return out


def sim_digests():
    return {key: _outcome(Simulator(n, machine, trace=True, **kw), fn())
            for key, (n, machine, kw, fn) in sim_cases().items()}


def test_scheduler_digests_match_pinned_corpus():
    with open(DIGESTS) as f:
        pinned = json.load(f)
    assert sim_digests() == pinned


# -- one op table, every interpreter ------------------------------------------


def _op_program(kind):
    """The shortest valid two-rank program in which rank 0 yields a
    ``kind`` op (a flush or read needs a put before it)."""
    def fn(ctx):
        if ctx.rank == 1:
            if kind in ("send", "recv"):
                yield ctx.recv(src=0, tag="t")
            if kind == "fence":
                yield ctx.fence()
            return
        if kind in ("send", "recv"):
            yield ctx.send(1, np.zeros(1), tag="t")
        elif kind == "compute":
            yield ctx.compute(1e-6)
        elif kind == "fence":
            yield ctx.fence()
        else:
            yield ctx.put(0, "k", np.zeros(1))
            if kind != "put":
                yield ctx.flush()
            if kind == "read":
                yield ctx.read("k")

    return fn


@pytest.mark.parametrize("kind", OPS.values())
def test_every_op_kind_is_handled_by_every_interpreter(kind):
    """Totality over the op table: the engine and the extractor each have
    the handler, both run a program that yields the op, and the tape
    recorder leaves an entry that tells it from every other kind — except
    for ``read``, which is timing-free and leaves none."""
    from repro.analyze.extract import Extractor, extract_schedule
    from repro.replay import TapeRecorder

    assert callable(getattr(Engine, "op_" + kind))
    assert callable(getattr(Extractor, "op_" + kind))
    rank = 1 if kind == "recv" else 0
    run(2, _op_program(kind))
    sched = extract_schedule(2, _op_program(kind))
    assert sched.complete
    if kind == "compute":
        assert sched.compute_tails[0][2] == 1
    else:
        assert kind in [e.kind for e in sched.events[rank]]

    entry = {"send": "s", "recv": "r", "compute": "c", "put": "p",
             "flush": "f", "fence": "F", "read": None}
    assert len(set(entry.values())) == len(OPS)
    rec = TapeRecorder(2)
    Simulator(2, MACHINE, recorder=rec).run(_op_program(kind))
    taped = [op[0] for op in rec.ops[rank]]
    if kind == "read":
        assert taped == ["p", "f"]          # its put and flush, nothing else
    else:
        assert entry[kind] in taped
    if kind in ("put", "fence"):
        # One-sided ops are refused only where messages can be lost.
        with pytest.raises(RMAError) as info:
            Simulator(2, MACHINE, reliable=True).run(_op_program(kind))
        assert "one-sided" in str(info.value)
        assert "tape recording" not in str(info.value)


def test_unknown_yield_is_the_same_error_from_every_interpreter():
    from repro.analyze.extract import extract_schedule

    def bad_yield(ctx):
        yield "not an op"

    errors = []
    for interpret in (lambda: run(1, bad_yield),
                      lambda: extract_schedule(1, bad_yield)):
        with pytest.raises(TypeError) as info:
            interpret()
        errors.append(str(info.value))
    assert errors[0] == errors[1] == (
        "rank 0 yielded 'not an op'; yield "
        "ctx.send/recv/compute/put/flush/fence/read")


def test_engine_structure_guard():
    """The rank-program engine stays taken apart: short functions, state on
    the engine (no ``nonlocal``), dispatch through the op table (no
    ``isinstance(op, ...)``), and nobody reaches for the simulator's
    private names."""
    import repro

    src = pathlib.Path(repro.__file__).parent
    offenders = []
    for path in sorted(src.rglob("*.py")):
        rel = str(path.relative_to(src))
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{rel}:{getattr(node, 'lineno', 0)}"
            if (isinstance(node, ast.ImportFrom)
                    and node.module == "repro.comm.simulator"):
                offenders += [f"{where}: imports {a.name}"
                              for a in node.names if a.name.startswith("_")]
            if rel not in ("comm/simulator.py", "analyze/extract.py"):
                continue
            if (isinstance(node, ast.Call)
                    and ast.unparse(node.func) == "isinstance"
                    and ast.unparse(node.args[0]) == "op"):
                offenders.append(f"{where}: {ast.unparse(node)}")
            if rel != "comm/simulator.py":
                continue
            if isinstance(node, ast.Nonlocal):
                offenders.append(f"{where}: nonlocal")
            if (isinstance(node, ast.FunctionDef)
                    and node.end_lineno - node.lineno + 1 > 80):
                offenders.append(f"{where}: {node.name} is "
                                 f"{node.end_lineno - node.lineno + 1} lines")
    assert not offenders, "\n".join(offenders)


if __name__ == "__main__":
    with open(DIGESTS, "w") as f:
        json.dump(sim_digests(), f, indent=1, sort_keys=True)
        f.write("\n")
