"""Tests for the compile-once schedule-replay fast path (repro.replay).

The contract under test is *bit-identity*: for a fault-free CPU solve,
the recording run, the compiled value program (both its reference
interpreter and its level-batched vector executor) and the replayed
timing tape must reproduce the simulated solve exactly — solution bits,
virtual clocks, per-label time/message/byte accounting and phase marks.
"""

import numpy as np
import pytest

from repro.comm.costmodel import MACHINES
from repro.core.solver import SpTRSVSolver
from repro.matrices import get_matrix, poisson2d
from repro.replay import (
    ReplayError,
    Tape,
    TapeRecorder,
    replay_info,
    replay_state,
    replay_tape,
)
from repro.replay.program import _VectorPlan, compile_program
from repro.replay.tape import TapeError
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
    assert len(vp.store_d) == s.n        # every row of x written exactly once
    assert len(np.unique(vp.store_d)) == s.n


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
