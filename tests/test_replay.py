"""Tests for the compile-once schedule-replay fast path (repro.replay).

The contract under test is *bit-identity*: for a fault-free CPU solve,
the recording run, the compiled value program (both its reference
interpreter and its level-batched vector executor) and the replayed
timing tape must reproduce the simulated solve exactly — solution bits,
virtual clocks, per-label time/message/byte accounting and phase marks.
"""

import ast
import gc
import inspect
import textwrap
import tracemalloc
import types

import numpy as np
import pytest

from repro.check.invariants import check_metrics
from repro.comm.costmodel import CORI_HASWELL, MACHINES
from repro.comm.simulator import Simulator
from repro.core.solver import SpTRSVSolver
from repro.matrices import get_matrix, poisson2d
from repro.obs.metrics import MetricsRegistry
from repro.replay import (
    ReplayError,
    ReplayState,
    Tape,
    TapeRecorder,
    replay_info,
    replay_state,
    replay_tape,
)
from repro.replay.program import _VectorPlan, compile_program
from repro.replay.tape import TapeError, from_recorder, validate_tape
from repro.serve import (
    BatchPolicy,
    ServiceConfig,
    SolveService,
    WorkloadSpec,
    generate_workload,
)


def make_solver(px=1, py=1, pz=4, **kw):
    A = get_matrix("s2D9pt2048", scale="tiny")
    return SpTRSVSolver(A, px=px, py=py, pz=pz, max_supernode=8, **kw)


def assert_same_outcome(ref, out):
    assert np.array_equal(ref.x, out.x)
    assert np.array_equal(ref.report.sim.clocks, out.report.sim.clocks)
    assert ref.report.sim.times == out.report.sim.times
    assert ref.report.sim.marks == out.report.sim.marks
    assert ref.report.sim.sent_msgs == out.report.sim.sent_msgs
    assert ref.report.sim.sent_bytes == out.report.sim.sent_bytes


# -- bit-identity across algorithms, grids and batch widths ------------------

@pytest.mark.parametrize("algorithm,grid", [
    ("new3d", (2, 1, 4)),
    ("new3d", (1, 2, 2)),
    ("baseline3d", (1, 1, 4)),
    ("2d", (2, 2, 1)),
])
@pytest.mark.parametrize("nrhs", [1, 3])
def test_replay_bit_identical(algorithm, grid, nrhs):
    px, py, pz = grid
    s = make_solver(px, py, pz)
    b = np.random.default_rng(7).standard_normal((s.n, nrhs))
    ref = s.solve(b, algorithm=algorithm)
    rec = s.solve(b, algorithm=algorithm, replay=True)    # recording run
    hot = s.solve(b, algorithm=algorithm, replay=True)    # compiled replay
    assert_same_outcome(ref, rec)
    assert_same_outcome(ref, hot)
    st = replay_state(s)
    assert st.stats.compiles == 1
    assert st.stats.records == 1
    assert st.stats.replays == 1


@pytest.mark.parametrize("grid", [(1, 1, 4), (2, 2, 4), (1, 2, 2)])
def test_backends_sharing_a_value_program_keep_their_own_tapes(grid):
    """new3d, sparse_allreduce_v2 and onesided_put compile to one value
    program on a solver; a tape key without the Z reduction would hand the
    second and third backend the first one's clocks."""
    s = make_solver(*grid)
    family = ("new3d", "sparse_allreduce_v2", "onesided_put")
    for nrhs in (1, 3):
        b = np.random.default_rng(7).standard_normal((s.n, nrhs))
        refs = {alg: s.solve(b, algorithm=alg) for alg in family}
        for alg in family:
            for _ in ("cold", "hot"):
                out = s.solve(b, algorithm=alg, replay=True)
                assert_same_outcome(refs[alg], out)
                assert out.report.total_time == refs[alg].report.total_time
        for alg in family:
            info = replay_info(s, algorithm=alg, nrhs=nrhs)
            assert info["algorithm"] == alg and info["nrhs"] == nrhs
            assert info["est_virtual_time"] == refs[alg].report.total_time
            assert info["messages"] == refs[alg].report.sim.msgs_by()
        # The put/fence exchange is a different schedule, not an alias.
        assert not np.array_equal(refs["onesided_put"].report.sim.clocks,
                                  refs["new3d"].report.sim.clocks)
        hot = s.solve(b, algorithm="onesided_put", replay=True).report.sim
        ref = refs["onesided_put"].report.sim
        assert ref.rma_put_bytes > 0
        assert (hot.rma_put_bytes, hot.rma_applied_bytes,
                hot.rma_peak_bytes, hot.unapplied_puts) == (
            ref.rma_put_bytes, ref.rma_applied_bytes, ref.rma_peak_bytes,
            ref.unapplied_puts)
    st = replay_state(s)
    assert st.stats.compiles == 1 and len(st.programs) == 1
    assert st.stats.records == len(st.tapes) == 6


def test_replay_multi_rhs_batches_and_tape_per_width():
    s = make_solver()
    rng = np.random.default_rng(3)
    for nrhs in (1, 2, 16):
        b = rng.standard_normal((s.n, nrhs))
        ref = s.solve(b)
        assert_same_outcome(ref, s.solve(b, replay=True))
        assert_same_outcome(ref, s.solve(b, replay=True))
    st = replay_state(s)
    # one value program total; one tape (recording) per batch width
    assert st.stats.compiles == 1
    assert st.stats.records == 3
    assert st.stats.replays == 3


def test_replay_columns_match_single_rhs():
    """Batching contract carries over: replayed batch columns are the
    same bits as replayed single-RHS solves."""
    s = make_solver()
    b = np.random.default_rng(11).standard_normal((s.n, 4))
    X = s.solve(b, replay=True).x
    X = s.solve(b, replay=True).x
    for j in range(4):
        xj = s.solve(b[:, j], replay=True).x
        assert np.array_equal(X[:, j], xj)


def test_vector_executor_matches_interpreter():
    s = make_solver(2, 1, 4)
    prog = compile_program(s.setup("new3d", "auto"), "new3d", "auto", s.n)
    rng = np.random.default_rng(5)
    for nrhs in (1, 5):
        bp = rng.standard_normal((s.n, nrhs))
        assert np.array_equal(prog.execute(bp, nrhs),
                              prog.execute_interp(bp, nrhs))
    assert prog.kernel_count > 0
    assert sum(prog.op_counts().values()) == len(prog.instrs)


def test_stacked_matmul_is_per_slice_bitwise():
    """The vector executor's soundness hinges on numpy evaluating a
    stacked matmul as the identical per-slice 2-D matmul, for both C- and
    F-ordered constant blocks."""
    rng = np.random.default_rng(0)
    for order in ("C", "F"):
        for (m, k) in ((1, 3), (2, 2), (7, 4), (16, 16)):
            M = np.asarray(rng.standard_normal((m, k)), order=order)
            G, nr = 9, 5
            X = np.ascontiguousarray(rng.standard_normal((G, nr, k, 1)))
            if order == "F":
                stack = np.ascontiguousarray(
                    np.stack([M.T] * G)).transpose(0, 2, 1)
            else:
                stack = np.ascontiguousarray(np.stack([M] * G))
            out = np.matmul(stack[:, None], X)
            for g in range(G):
                for j in range(nr):
                    assert np.array_equal(
                        out[g, j], M @ np.ascontiguousarray(X[g, j]))


# -- timing tapes ------------------------------------------------------------

def test_tape_engine_minimal():
    rec = TapeRecorder(2)
    rec.on_compute(0, 1.0, "L", "gemm")
    rec.on_send(0, 0, 800, 0.5, "L", "x")
    rec.on_recv(1, 0, "L", "x")
    rec.on_mark(1, "done")
    tape = Tape(nranks=2, ops=rec.ops, send_overhead=0.1, recv_overhead=0.2)
    out = replay_tape(tape)
    # rank 0: compute 1.0 + send overhead 0.1
    assert out.clocks[0] == 1.0 + 0.1
    # rank 1: arrival at 1.1 + 0.5, + recv overhead
    assert out.clocks[1] == 1.6 + 0.2
    assert out.marks[1]["done"] == out.clocks[1]
    assert out.sent_msgs[0][("L", "x")] == 1
    assert out.sent_bytes[0][("L", "x")] == 800


def test_tape_engine_detects_deadlock():
    rec = TapeRecorder(1)
    rec.on_recv(0, 99, "L", "x")      # message never posted
    tape = Tape(nranks=1, ops=rec.ops, send_overhead=0.0, recv_overhead=0.0)
    with pytest.raises(TapeError, match="deadlock"):
        replay_tape(tape)


def _taped(nranks, program):
    """Run ``program`` with a recorder; its result and validated replay."""
    rec = TapeRecorder(nranks)
    res = Simulator(nranks, CORI_HASWELL, recorder=rec).run(program)
    tape = from_recorder(rec, CORI_HASWELL)
    return res, tape, validate_tape(tape, res)


@pytest.mark.parametrize("dst", [1, None])
@pytest.mark.parametrize("wait", [True, False])
def test_tape_flush_with_and_without_a_wait(dst, wait):
    def program(ctx):
        ctx.set_phase("z")
        if ctx.rank == 0:
            yield ctx.put(1, "a", np.zeros(64), category="put")
            yield ctx.put(2, "b", np.zeros(8), category="put")
            if not wait:
                yield ctx.compute(1.0)      # both puts land meanwhile
            yield ctx.flush(dst, category="flush")
            yield ctx.flush(dst, category="again")     # nothing left: free
            yield ctx.flush(category="rest")
        ctx.mark("end")

    res, tape, out = _taped(3, program)
    assert [op[0] for op in tape.ops[0] if op[0] in "pf"] == list("ppfff")
    # A flush that waited is charged under its own label; one that did not
    # leaves no label at all.
    assert (("z", "flush") in out.times[0]) == wait
    assert ("z", "again") not in out.times[0]
    assert (("z", "rest") in out.times[0]) == (wait and dst == 1)
    assert res.unapplied_puts == [] and res.rma_applied_bytes == 72 * 8


def test_tape_two_epochs_and_a_rank_that_finishes_early():
    def program(ctx):
        if ctx.rank == 3:
            # Exits before anyone fences, its put still in flight: the
            # first fence waits for the write, not for the rank.
            yield ctx.put(0, "late", np.zeros(4096))
            return
        for epoch in range(2):
            ctx.set_phase(f"e{epoch}")
            yield ctx.compute(1e-6 * (ctx.rank + 1))
            yield ctx.put((ctx.rank + 1) % 3, ("k", epoch),
                          np.full(8 * (epoch + 1), float(ctx.rank)))
            yield ctx.fence(tag=epoch, category="sync")
            got = yield ctx.read(("k", epoch))
            assert got[0] == (ctx.rank - 1) % 3
            ctx.mark(f"epoch{epoch}")

    res, tape, out = _taped(4, program)
    assert [op[0] for op in tape.ops[0]].count("F") == 2
    assert [op[0] for op in tape.ops[3]] == ["p"]
    assert set(out.marks[0]) == {"epoch0", "epoch1"}
    assert out.times[1][("e0", "sync")] > 0 and ("e1", "sync") in out.times[1]
    net = CORI_HASWELL.net
    late = net.send_overhead + net.latency(
        4096 * 8, CORI_HASWELL.same_node(3, 0))
    assert out.marks[0]["epoch0"] == (late + net.send_overhead
                                      + net.recv_overhead)
    # Reads cost nothing and are not on the tape: compute, put, fence and
    # mark per epoch, and the early leaver's one put.
    assert tape.n_ops == 3 * 2 * 4 + 1


def test_tape_fence_completes_at_a_put_arrival():
    big = np.zeros(1 << 16)

    def program(ctx):
        if ctx.rank == 0:
            yield ctx.put(1, "big", big)
        yield ctx.fence()

    res, tape, out = _taped(2, program)
    net = CORI_HASWELL.net
    arrival = net.send_overhead + net.latency(
        big.nbytes, CORI_HASWELL.same_node(0, 1))
    assert arrival > net.send_overhead          # later than any entry clock
    assert out.clocks[1] == arrival + net.send_overhead + net.recv_overhead
    assert out.clocks[0] == out.clocks[1]


def test_tape_fence_one_rank_never_reaches():
    ops = [[("c", 1.0, "", "fp"), ("F", "", "comm")],
           [("F", "", "comm")],
           [("r", 7, "", "comm"), ("F", "", "comm")]]
    tape = Tape(nranks=3, ops=ops, send_overhead=0.1, recv_overhead=0.2)
    with pytest.raises(TapeError, match=r"rank\(s\) \[2\] blocked.*"
                                        r"rank\(s\) \[0, 1\] wait at a fence"):
        replay_tape(tape)


# -- cache shape and error paths ---------------------------------------------

def test_replay_cache_is_keyed_by_algorithm_and_machine():
    s = make_solver(1, 1, 4)
    b = np.ones((s.n, 1))
    for _ in range(2):
        s.solve(b, algorithm="new3d", replay=True)
        s.solve(b, algorithm="baseline3d", replay=True)
        s.solve(b, algorithm="new3d", machine=MACHINES["perlmutter-cpu"],
                replay=True)
    st = replay_state(s)
    assert sorted(st.programs) == [("baseline3d", "flat"), ("new3d", "auto")]
    assert st.stats.compiles == 2 and st.stats.records == 3
    assert st.stats.replays == 3


def test_replay_rejects_unsupported_modes():
    s = make_solver()
    b = np.ones(s.n)
    from repro.comm.faults import FaultPlan

    with pytest.raises(ValueError, match="fault"):
        s.solve(b, replay=True, faults=FaultPlan.uniform(seed=1, drop=0.1))
    with pytest.raises(ValueError, match="trace"):
        s.solve(b, replay=True, trace=True)
    with pytest.raises(ValueError, match="device"):
        s.solve(b, replay=True, device="gpu")
    with pytest.raises(ReplayError, match="sparse"):
        s.solve(b, replay=True, allreduce_impl="naive")


def test_replay_profile_serves_recorded_metrics():
    s = make_solver()
    b = np.ones(s.n)
    ref = s.solve(b, profile=True)
    s.solve(b, replay=True)
    out = s.solve(b, replay=True, profile=True)
    assert out.report.metrics is not None
    assert out.report.metrics.nsyncs == ref.report.metrics.nsyncs
    st = ref.report.metrics.stats()
    so = out.report.metrics.stats()
    assert (st.msgs, st.bytes) == (so.msgs, so.bytes)


def test_replay_profile_records_a_registry_on_demand():
    """A tape keeps a registry only once someone profiled it: the first
    profiled solve of an unprofiled tape records again, later ones replay."""
    s = make_solver()
    b = np.ones(s.n)
    ref = s.solve(b, profile=True)
    st = replay_state(s)
    assert s.solve(b, replay=True).report.metrics is None
    assert [ct.metrics for ct in st.tapes.values()] == [None]
    out = s.solve(b, replay=True, profile=True)
    assert (st.stats.records, st.stats.replays) == (2, 0)
    for _ in range(2):
        assert out.report.metrics.stats() == ref.report.metrics.stats()
        assert out.report.metrics.nsyncs == ref.report.metrics.nsyncs
        assert check_metrics(out.report) > 0
        assert_same_outcome(ref, out)
        out = s.solve(b, replay=True, profile=True)
    assert (st.stats.records, st.stats.replays) == (2, 2)
    assert s.solve(b, replay=True).report.metrics is None
    assert (st.stats.records, st.stats.replays) == (2, 3)


def test_replay_info_summarizes_artifacts():
    s = make_solver()
    info = replay_info(s, algorithm="new3d")
    assert info["impl"] == "new3d" and info["grid"] == "1x1x4"
    assert info["instructions"] > info["kernels"] > 0
    assert info["messages"] > 0 and info["message_bytes"] > 0
    assert info["tape_ops"] > info["messages"]
    assert info["est_virtual_time"] > 0


def test_small_poisson_replay_all_algorithms():
    A = poisson2d(10, stencil=9, seed=1)
    s = SpTRSVSolver(A, px=1, py=1, pz=2, max_supernode=4)
    b = np.random.default_rng(1).standard_normal((A.shape[0], 2))
    for alg in ("new3d", "baseline3d"):
        ref = s.solve(b, algorithm=alg)
        assert_same_outcome(ref, s.solve(b, algorithm=alg, replay=True))
        assert_same_outcome(ref, s.solve(b, algorithm=alg, replay=True))


def test_vector_plan_arena_covers_all_registers():
    s = make_solver(1, 1, 2)
    prog = compile_program(s.setup("new3d", "auto"), "new3d", "auto", s.n)
    vp = _VectorPlan(prog)
    assert vp.size > 0
    # the stores tile x, so it is one gather: every row read exactly once
    assert len(vp.store_s) == s.n
    assert len(np.unique(vp.store_s)) == s.n
    assert vp.store_s.max() < vp.size


def test_vector_plan_writes_slices_only():
    """Write-order arena: every destination is a row range, so a stage
    holds one index array per *source* operand and ``run`` never assigns
    through an index array."""
    s = make_solver(2, 1, 4)
    prog = compile_program(s.setup("new3d", "auto"), "new3d", "auto", s.n)
    vp = _VectorPlan(prog)
    at = vp.zero_end
    for acc_end, rounds, add, groups in vp.stages:
        assert type(acc_end) is int and acc_end >= at
        for end, src in rounds:
            assert type(end) is int and at < end <= acc_end
            assert src.shape == (end - at,) and src.max() < at
        at = acc_end
        if add is not None:
            end, a, b = add
            assert type(end) is int and a.shape == b.shape == (end - at,)
            at = end
        for stack, end, src, lsum in groups:
            G, _, m, k = stack.shape
            assert type(end) is int and end - at == G * m
            assert src.shape == (G, k) and src.max() < at
            assert lsum is None or lsum.shape == (G, m)
            at = end
    assert at == vp.size

    run = ast.parse(textwrap.dedent(inspect.getsource(_VectorPlan.run)))
    written = [t for node in ast.walk(run)
               if isinstance(node, (ast.Assign, ast.AugAssign))
               for t in (node.targets if isinstance(node, ast.Assign)
                         else [node.target])]
    written += [kw.value for node in ast.walk(run)
                if isinstance(node, ast.Call)
                for kw in node.keywords if kw.arg == "out"]
    subs = [t for t in written if isinstance(t, ast.Subscript)]
    assert subs
    for t in subs:
        index = t.slice.elts[0] if isinstance(t.slice, ast.Tuple) else t.slice
        assert isinstance(index, (ast.Slice, ast.Constant)), ast.unparse(t)


def test_vector_plan_build_peaks_under_twice_what_it_retains():
    s = make_solver()
    prog = compile_program(s.setup("new3d", "auto"), "new3d", "auto", s.n)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        vp = _VectorPlan(prog)
        retained, peak = (v - base for v in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert vp.size > 0 and 0 < retained <= peak <= 2 * retained


# -- serve integration -------------------------------------------------------

def test_serve_uses_replay_on_cache_hits():
    wl = generate_workload(WorkloadSpec(
        seed=42, rate=1e6, n_requests=32, deadline=10.0,
        mix=(("s2D9pt2048", "tiny", 1.0),)))
    svc = SolveService(ServiceConfig(),
                       BatchPolicy(max_batch=8, max_wait=1e-3,
                                   queue_bound=128),
                       invariants=True)
    res = svc.run(wl)
    assert res.slo.n_completed == 32
    assert res.slo.n_replayed >= 1
    assert res.slo.n_replayed == sum(b.replayed for b in res.batches)
    # replay only ever rides a cache hit
    assert all(b.cache_hit for b in res.batches if b.replayed)
    # the first batch is a cold miss -> simulated
    assert not res.batches[0].replayed
    # answers are bit-identical to cold per-request solves
    cold = SolveService(ServiceConfig())._build_solver("s2D9pt2048", "tiny")
    for r in wl.requests:
        x = cold.solve(r.rhs(cold.n)).x
        assert np.array_equal(res.solutions[r.id], x.ravel())


def test_serve_faulted_batches_stay_on_simulator():
    from repro.comm.faults import FaultPlan

    wl = generate_workload(WorkloadSpec(
        seed=9, rate=1e6, n_requests=12, deadline=10.0,
        mix=(("s2D9pt2048", "tiny", 1.0),)))
    svc = SolveService(ServiceConfig(),
                       BatchPolicy(max_batch=4, max_wait=1e-3),
                       faults=FaultPlan.uniform(seed=5, drop=0.02),
                       resilience=None, keep_solutions=False)
    res = svc.run(wl)
    assert res.slo.n_replayed == 0
    assert not any(b.replayed for b in res.batches)


def _reachable(root, kind):
    """Instances of ``kind`` reachable from ``root`` through references."""
    seen, stack, found = {id(root)}, [root], []
    while stack:
        obj = stack.pop()
        if isinstance(obj, kind):
            found.append(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(
                    ref, (type, types.ModuleType, types.FunctionType)):
                seen.add(id(ref))
                stack.append(ref)
    return found


def test_unprofiled_service_holds_no_metrics_registry():
    wl = generate_workload(WorkloadSpec(
        seed=42, rate=1e6, n_requests=24, deadline=10.0,
        mix=(("s2D9pt2048", "tiny", 1.0),)))
    svc = SolveService(ServiceConfig(algorithm="onesided_put"),
                       BatchPolicy(max_batch=8, max_wait=1e-3,
                                   queue_bound=128))
    res = svc.run(wl)
    assert res.slo.n_replayed >= 1
    states = _reachable(svc, ReplayState)
    assert states and all(st.tapes for st in states)
    for st in states:
        assert _reachable(st, MetricsRegistry) == []
        assert all(ct.metrics is None for ct in st.tapes.values())
