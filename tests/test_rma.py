"""One-sided communication: runtime primitives, the put-based reduction,
and the static RMA certifier (races, resource bounds, mutation self-test).
"""

import numpy as np
import pytest

from repro.analyze import (
    delete_op,
    expected_syncs,
    solver_schedule,
    verify_rma,
    verify_schedule,
)
from repro.check.invariants import check_sim
from repro.comm import (
    CORI_HASWELL,
    FaultPlan,
    RMAConflictError,
    RMAError,
    Simulator,
)
from repro.core.solver import SpTRSVSolver
from repro.matrices import poisson2d
from repro.planner import candidates
from repro.planner.cost import predict_time

MACHINE = CORI_HASWELL


def run(nranks, fn, **kw):
    return Simulator(nranks, MACHINE, **kw).run(fn)


# ---------------------------------------------------------------------------
# runtime primitives


def test_put_fence_read_roundtrip():
    data = np.arange(4, dtype=float)

    def fn(ctx):
        peer = 1 - ctx.rank
        yield ctx.put(peer, "slot", data * (ctx.rank + 1))
        yield ctx.fence(tag="epoch")
        got = yield ctx.read("slot")
        return got

    res = run(2, fn)
    assert np.array_equal(res.results[0], data * 2)   # written by rank 1
    assert np.array_equal(res.results[1], data * 1)
    # Both ranks leave the fence at the same virtual time.
    assert res.clocks[0] == res.clocks[1]
    assert res.rma_put_bytes == 2 * data.nbytes
    assert res.rma_applied_bytes == res.rma_put_bytes
    assert res.unapplied_puts == []
    assert res.rma_peak_bytes == [data.nbytes, data.nbytes]
    check_sim(res)


def test_fenced_rank_with_queued_message_is_not_a_recv_candidate():
    """A rank parked at a fence while an eager message already sits in its
    mailbox used to crash the scheduler (it matched a receive that was
    never posted); it must wait for the fence and receive afterwards."""
    def fn(ctx):
        if ctx.rank == 0:
            yield ctx.send(1, np.arange(3.0), tag="x")
            yield ctx.fence()
        else:
            yield ctx.compute(1.0)
            yield ctx.fence()
            after_fence = ctx.clock
            _, _, got = yield ctx.recv(src=0, tag="x")
            return after_fence, got

    res = run(2, fn)
    after_fence, got = res.results[1]
    assert np.array_equal(got, np.arange(3.0))
    assert 1.0 < after_fence < res.clocks[1]
    assert res.unconsumed_msgs == []
    check_sim(res)


def test_put_flush_read():
    def fn(ctx):
        if ctx.rank == 0:
            yield ctx.put(1, "k", np.ones(3))
            yield ctx.flush(1)
            # Tell the target the write landed (flush is origin-side only).
            yield ctx.send(1, None, tag="done")
        else:
            yield ctx.recv(src=0, tag="done")
            got = yield ctx.read("k")
            return got

    res = run(2, fn)
    assert np.array_equal(res.results[1], np.ones(3))
    assert res.rma_applied_bytes == 24
    check_sim(res)


def test_put_payload_is_copied_at_issue():
    buf = np.zeros(2)

    def fn(ctx):
        if ctx.rank == 0:
            yield ctx.put(1, "k", buf)
            buf[:] = 99.0           # mutate after issue, before the fence
        yield ctx.fence()
        if ctx.rank == 1:
            got = yield ctx.read("k")
            return got

    res = run(2, fn)
    assert np.array_equal(res.results[1], np.zeros(2))


def test_read_before_apply_raises():
    def fn(ctx):
        if ctx.rank == 0:
            yield ctx.put(1, "k", np.ones(1))
        yield ctx.fence()
        if ctx.rank == 0:
            got = yield ctx.read("never-written")
            return got

    with pytest.raises(RMAError):
        run(2, fn)


def test_unapplied_put_is_surfaced_and_rejected():
    def fn(ctx):
        if ctx.rank == 0:
            yield ctx.put(1, "k", np.ones(2))
        else:
            yield ctx.compute(1e-6)

    res = run(2, fn)
    assert len(res.unapplied_puts) == 1
    leak = res.unapplied_puts[0]
    assert (leak.origin, leak.dst, leak.key) == (0, 1, "k")
    assert res.rma_applied_bytes == 0
    with pytest.raises(AssertionError, match="rma"):
        check_sim(res)


def test_strict_mode_flags_overlapping_writes():
    def fn(ctx):
        if ctx.rank < 2:
            yield ctx.put(2, "hot", np.full(2, float(ctx.rank)))
        yield ctx.fence()

    with pytest.raises(RMAConflictError):
        run(3, fn, rma_strict=True)
    # Non-strict runs keep last-writer-wins determinism instead.
    run(3, fn)


def test_strict_mode_allows_disjoint_keys():
    def fn(ctx):
        if ctx.rank < 2:
            yield ctx.put(2, ("hot", ctx.rank), np.ones(2))
        yield ctx.fence()
        if ctx.rank == 2:
            a = yield ctx.read(("hot", 0))
            b = yield ctx.read(("hot", 1))
            return float(a.sum() + b.sum())

    res = run(3, fn, rma_strict=True)
    assert res.results[2] == 4.0


def test_rma_refused_under_fault_injection():
    plan = FaultPlan.uniform(seed=7, drop=0.5)

    def fn(ctx):
        yield ctx.put(1 - ctx.rank, "k", np.ones(1))
        yield ctx.fence()

    with pytest.raises(RMAError):
        Simulator(2, MACHINE, faults=plan, reliable=True).run(fn)


# ---------------------------------------------------------------------------
# the put-based inter-grid reduction


@pytest.fixture(scope="module")
def A():
    return poisson2d(20, stencil=9, seed=3)


STOCK_GRIDS = [(2, 1, 2), (2, 2, 2), (1, 2, 4)]


@pytest.mark.parametrize("grid", STOCK_GRIDS)
def test_onesided_put_bit_identical_to_new3d(A, grid):
    px, py, pz = grid
    solver = SpTRSVSolver(A, px, py, pz, max_supernode=8)
    b = np.linspace(-1.0, 1.0, A.shape[0])
    x_two = solver.solve(b, algorithm="new3d").x
    out = solver.solve(b, algorithm="onesided_put", profile=True)
    assert np.array_equal(x_two, out.x)
    # One labeled inter-grid sync point, like the paper's algorithm.
    assert out.report.metrics.nsyncs == 1
    res = out.report.sim
    assert res.unapplied_puts == []
    assert res.rma_applied_bytes == res.rma_put_bytes > 0
    check_sim(res)


def test_onesided_put_resilient_fallback(A):
    # Under injected faults the RMA path refuses to run; the resilience
    # tiers degrade to the two-sided backends and still verify.
    solver = SpTRSVSolver(A, 2, 1, 2, max_supernode=8)
    b = np.linspace(-1.0, 1.0, A.shape[0])
    from repro.core.solver import Resilience

    plan = FaultPlan.uniform(seed=5, drop=0.05)
    out = solver.solve(b, algorithm="onesided_put", faults=plan,
                       resilience=Resilience(reliable=True))
    assert out.resilience is not None
    assert out.resilience.tier in ("new3d", "baseline3d")


# ---------------------------------------------------------------------------
# static certification


@pytest.mark.parametrize("grid", STOCK_GRIDS)
def test_schedule_certified_and_resources_exact(A, grid):
    px, py, pz = grid
    solver = SpTRSVSolver(A, px, py, pz, max_supernode=8)
    sched = solver_schedule(solver, algorithm="onesided_put")
    assert sched.complete
    assert sched.nsyncs == expected_syncs("onesided_put", pz) == 1

    vrep = verify_schedule(sched)
    assert vrep.ok

    rrep = verify_rma(sched)
    assert rrep.ok and rrep.race_free
    assert rrep.resources.nepochs == 1

    # The static resource certificate must equal the runtime's measured
    # window occupancy exactly — peaks, totals, and conservation.
    b = np.linspace(-1.0, 1.0, A.shape[0])
    sim = solver.solve(b, algorithm="onesided_put").report.sim
    assert rrep.resources.peak_bytes == sim.rma_peak_bytes
    assert rrep.resources.total_put_bytes == sim.rma_put_bytes
    assert rrep.resources.applied_bytes == sim.rma_applied_bytes
    assert rrep.resources.unapplied_bytes == 0
    assert rrep.resources.conserved


def test_planner_candidates_and_pricing(A):
    solver = SpTRSVSolver(A, 2, 2, 2, max_supernode=8)
    assert "onesided_put" in candidates(solver)
    b = np.linspace(-1.0, 1.0, A.shape[0])
    measured = solver.solve(b, algorithm="onesided_put").report.sim.makespan
    assert predict_time(solver, "onesided_put") == pytest.approx(
        measured, rel=1e-9)


def test_non_rma_schedule_reports_no_onesided(A):
    solver = SpTRSVSolver(A, 2, 1, 2, max_supernode=8)
    sched = solver_schedule(solver, algorithm="new3d")
    rep = verify_rma(sched)
    assert rep.ok
    assert rep.resources.total_put_bytes == 0
    assert "no one-sided operations" in rep.summary()


# ---------------------------------------------------------------------------
# mutation self-test: the certifier must catch an injected missing fence


def _tiny_rma_schedule(A):
    """1x1x2 grid: two ranks, one put each, one fence, one read each."""
    solver = SpTRSVSolver(A, 1, 1, 2, max_supernode=8)
    return solver_schedule(solver, algorithm="onesided_put")


def test_fence_deletion_is_caught(A):
    sched = _tiny_rma_schedule(A)
    assert verify_rma(sched).ok

    mut = delete_op(sched, 1, "fence")
    rep = verify_rma(mut)
    assert not rep.ok

    # Exactly the injected defects, nothing else: both put/read pairs
    # race (rank 1 skips the epoch), rank 1's put is never applied, and
    # the fence counts disagree.
    assert len(rep.races) == 2
    kinds = sorted(i.kind for i in rep.issues)
    assert kinds == ["fence-mismatch", "unapplied-put"]
    for race in rep.races:
        ops = {race.first.kind, race.second.kind}
        assert ops == {"put", "read"}
        # Minimal two-op witness, ordered by global extraction index.
        assert race.first.gidx < race.second.gidx


def test_flush_deletion_is_caught():
    def fn(ctx):
        if ctx.rank == 0:
            yield ctx.put(1, "k", np.ones(2))
            yield ctx.flush(1)
            yield ctx.send(1, None, tag="done")
        else:
            yield ctx.recv(src=0, tag="done")
            _ = yield ctx.read("k")

    from repro.analyze import extract_schedule

    sched = extract_schedule(2, fn, name="flush-demo")
    assert verify_rma(sched).ok
    mut = delete_op(sched, 0, "flush")
    rep = verify_rma(mut)
    assert not rep.ok
    assert len(rep.races) == 1
    assert any(i.kind == "unapplied-put" for i in rep.issues)
    assert rep.resources.unapplied_bytes == 16


def test_mutation_witnesses_are_stable(A):
    """Re-extracting and re-mutating yields byte-identical witnesses."""
    reports = []
    for _ in range(2):
        mut = delete_op(_tiny_rma_schedule(A), 1, "fence")
        reports.append(verify_rma(mut))
    a, b = reports
    assert [r.describe() for r in a.races] == [r.describe() for r in b.races]
    assert [i.describe() for i in a.issues] == [i.describe()
                                                for i in b.issues]
    assert a.resources == b.resources


# ---------------------------------------------------------------------------
# witness minimality on RMA schedules


def test_fence_recv_deadlock_cycle_is_minimal_and_rotated():
    # Rank 0 parks at a fence; rank 1 waits on a message rank 0 never
    # sends.  The wait-for cycle is exactly [0, 1], smallest rank first.
    def fn(ctx):
        if ctx.rank == 0:
            yield ctx.fence()
        else:
            yield ctx.recv(src=0, tag="never")

    from repro.analyze import extract_schedule

    sched = extract_schedule(2, fn, name="fence-deadlock")
    assert not sched.complete
    assert sched.blocked_fences == [(0, 0)]
    rep = verify_schedule(sched)
    assert rep.deadlock is not None
    assert rep.deadlock.cycle == [0, 1]
    assert "fence" in rep.deadlock.edges[0]


def test_all_ranks_fencing_is_not_a_deadlock():
    def fn(ctx):
        yield ctx.fence(tag="only")
        yield ctx.compute(1e-9)

    from repro.analyze import extract_schedule

    sched = extract_schedule(2, fn, name="pure-fence")
    assert sched.complete
    assert verify_schedule(sched).ok


def test_race_witness_is_two_ops():
    # Three unordered accesses to one key -> pairwise witnesses, each
    # naming exactly two operations (minimal by construction).
    def fn(ctx):
        if ctx.rank in (0, 1):
            yield ctx.put(2, "hot", np.ones(1))
        yield ctx.fence()
        yield ctx.fence()   # second epoch keeps rank programs aligned

    from repro.analyze import extract_schedule

    sched = extract_schedule(3, fn, name="pair-race")
    rep = verify_rma(sched)
    assert len(rep.races) == 1          # put vs put, same key, same epoch
    r = rep.races[0]
    assert {r.first.rank, r.second.rank} == {0, 1}
    assert r.first.gidx < r.second.gidx
