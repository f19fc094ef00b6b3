"""Tests for repro.analyze: schedule extraction + static verification.

Pathological hand-written schedules must be *rejected with exact
witnesses*; the real solver schedules must be *certified* — deadlock-free,
match-deterministic, and with the paper's sync counts recovered statically
(no cost model, no simulation).
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.analyze import (
    allreduce_schedule,
    expected_syncs,
    extract_schedule,
    gpu_schedules,
    solver_schedule,
    verify_rma,
    verify_schedule,
)
from repro.comm.costmodel import CORI_HASWELL
from repro.analyze import extract
from repro.comm.simulator import ANY
from repro.core.backends import BACKENDS, Z_REDUCTIONS
from repro.core.solver import SpTRSVSolver
from repro.grids.grid3d import Grid3D
from repro.kernels import NUMERIC
from repro.matrices import poisson2d
from repro.planner import schedule_time
from tests.conftest import fresh_store, schedule_fields


# ---------------------------------------------------------------------------
# Pathological schedules: exact witnesses.
# ---------------------------------------------------------------------------


def test_send_send_deadlock_under_rendezvous():
    """The classic head-to-head send: eager-safe, rendezvous-deadlocked."""

    def fn(ctx):
        peer = 1 - ctx.rank
        yield ctx.send(peer, np.zeros(4), tag="x")
        yield ctx.recv(src=peer, tag="x")

    eager = verify_schedule(extract_schedule(2, fn))
    assert eager.ok

    rep = verify_schedule(extract_schedule(2, fn, rendezvous=True))
    assert not rep.deadlock_free and not rep.ok
    assert rep.deadlock is not None
    assert rep.deadlock.cycle == [0, 1]
    assert all("rendezvous send" in e for e in rep.deadlock.edges)


def test_three_rank_wait_cycle():
    def fn(ctx):
        nxt = (ctx.rank + 1) % 3
        _ = yield ctx.recv(src=nxt, tag="t")
        yield ctx.send((ctx.rank - 1) % 3, np.zeros(1), tag="t")

    sched = extract_schedule(3, fn)
    assert not sched.complete
    rep = verify_schedule(sched)
    assert rep.deadlock is not None
    assert rep.deadlock.cycle == [0, 1, 2]
    assert len(rep.deadlock.edges) == 3


def test_witness_cycle_is_minimal():
    """Ranks 2 and 3 wait into a 2-cycle; the witness is only the 2-cycle."""

    def fn(ctx):
        wait_on = {0: 1, 1: 0, 2: 0, 3: 2}[ctx.rank]
        _ = yield ctx.recv(src=wait_on, tag="t")
        yield ctx.send(wait_on, np.zeros(1), tag="t")

    rep = verify_schedule(extract_schedule(4, fn))
    assert rep.deadlock is not None
    assert rep.deadlock.cycle == [0, 1]


def test_racy_any_source_pair():
    """One wildcard recv, two feasible senders: race with both named."""

    def fn(ctx):
        if ctx.rank == 0:
            _ = yield ctx.recv(src=ANY, tag="m")
        else:
            yield ctx.send(0, np.zeros(1), tag="m")

    sched = extract_schedule(3, fn)
    assert sched.complete          # eagerly it runs; the *structure* races
    rep = verify_schedule(sched)
    assert not rep.match_deterministic and not rep.ok
    [race] = rep.races
    assert race.rank == 0 and race.wildcard
    assert race.positions == [0]
    assert sorted({s for s, _, _ in race.feasible}) == [1, 2]
    # The losing send is also flagged as never received.
    assert [i.kind for i in rep.endpoint_issues] == ["unmatched-send"]


def test_clean_tree_broadcast_certified():
    """Exact-source tree broadcast: no wildcards, everything matched."""

    children = {0: [1, 2], 1: [3], 2: [], 3: []}
    parent = {1: 0, 2: 0, 3: 1}

    def fn(ctx):
        if ctx.rank != 0:
            _ = yield ctx.recv(src=parent[ctx.rank], tag="b")
        for c in children[ctx.rank]:
            yield ctx.send(c, np.zeros(8), tag="b")

    for rendezvous in (False, True):
        rep = verify_schedule(extract_schedule(4, fn, rendezvous=rendezvous))
        assert rep.ok
        assert rep.wildcard_groups == [] and rep.races == []
    # Tree broadcasts are rendezvous-safe; that is part of the certificate.


def test_unsatisfiable_recv_is_endpoint_not_deadlock():
    def fn(ctx):
        if ctx.rank == 0:
            _ = yield ctx.recv(src=1, tag="never")
        else:
            yield ctx.send(0, np.zeros(1), tag="other")

    rep = verify_schedule(extract_schedule(2, fn))
    assert rep.deadlock is None            # acyclic stall, not a cycle
    kinds = sorted(i.kind for i in rep.endpoint_issues)
    assert kinds == ["unmatched-recv", "unmatched-send"]


# ---------------------------------------------------------------------------
# Set-determinism: the wildcard-group race rule.
# ---------------------------------------------------------------------------


def test_wildcard_group_set_deterministic():
    """k wildcard recvs fed by exactly k sends: certified, no race."""

    def fn(ctx):
        if ctx.rank == 0:
            for _ in range(2):
                _ = yield ctx.recv(src=ANY, tag="m")
        else:
            yield ctx.send(0, np.zeros(1), tag="m")

    rep = verify_schedule(extract_schedule(3, fn))
    assert rep.ok
    [grp] = rep.wildcard_groups
    assert grp.rank == 0 and grp.nfeasible == 2 and grp.positions == [0, 1]


def test_wildcard_group_overfed_is_race():
    """Same loop, three senders: one more feasible send than recvs."""

    def fn(ctx):
        if ctx.rank == 0:
            for _ in range(2):
                _ = yield ctx.recv(src=ANY, tag="m")
        else:
            yield ctx.send(0, np.zeros(1), tag="m")

    rep = verify_schedule(extract_schedule(4, fn))
    assert not rep.ok
    [race] = rep.races
    assert len(race.feasible) == 3 and len(race.positions) == 2


def test_causal_reordering_filters_dependent_sends():
    """A send that happens-after the group's last recv is not feasible."""

    def is_a(tag):
        return isinstance(tag, tuple) and tag[0] == "a"

    def fn(ctx):
        if ctx.rank == 0:
            _ = yield ctx.recv(src=ANY, tag=is_a)     # the wildcard group
            yield ctx.send(2, np.zeros(1), tag="go")
            _ = yield ctx.recv(src=2, tag=is_a)       # exact-src: own group
        elif ctx.rank == 1:
            yield ctx.send(0, np.zeros(1), tag=("a", 1))
        else:
            _ = yield ctx.recv(src=0, tag="go")
            yield ctx.send(0, np.zeros(1), tag=("a", 2))

    rep = verify_schedule(extract_schedule(3, fn))
    # Rank 2's ("a", 2) send is caused by the wildcard recv completing, so
    # no causal order could have delivered it there: group stays size 1.
    assert rep.ok
    [grp] = rep.wildcard_groups
    assert grp.nfeasible == 1


# ---------------------------------------------------------------------------
# Real solver schedules: certification + static sync counts.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def matrix():
    return poisson2d(12, stencil=9, seed=11)


@pytest.fixture(scope="module")
def solver224(matrix):
    return SpTRSVSolver(matrix, 2, 2, 4)


@pytest.mark.parametrize("algorithm", ["new3d", "baseline3d"])
def test_solver_schedules_certified(solver224, algorithm):
    sched = solver_schedule(solver224, algorithm=algorithm)
    rep = verify_schedule(sched)
    assert rep.ok, rep.summary()
    # The ANY-source kernels are certified *because* their recv loops are
    # proven set-deterministic, not because there are no wildcards.
    assert len(rep.wildcard_groups) > 0
    assert all(g.nfeasible == len(g.positions) for g in rep.wildcard_groups)


def test_static_sync_counts(solver224, matrix):
    """The paper's 1 vs ceil(log2 Pz) pinned with no cost model."""
    new = verify_schedule(solver_schedule(solver224, algorithm="new3d"))
    assert new.sync_labels == ["allreduce"]
    assert new.nsyncs == expected_syncs("new3d", 4) == 1

    base = verify_schedule(solver_schedule(solver224,
                                           algorithm="baseline3d"))
    assert base.sync_labels == ["level-0", "level-1"]
    assert base.nsyncs == expected_syncs("baseline3d", 4) == 2

    flat = SpTRSVSolver(matrix, 2, 2, 1)
    for alg in ("new3d", "2d"):
        rep = verify_schedule(solver_schedule(flat, algorithm=alg))
        assert rep.ok
        assert rep.nsyncs == expected_syncs(alg, 1) == 0


def test_allreduce_schedules(solver224):
    sparse = verify_schedule(allreduce_schedule(solver224, impl="sparse"))
    assert sparse.ok and sparse.sync_labels == ["allreduce"]
    naive = verify_schedule(allreduce_schedule(solver224, impl="naive"))
    assert naive.ok
    # The straw-man pays one sync per shared tree node — strictly more.
    assert naive.nsyncs > sparse.nsyncs
    assert all(s.startswith("node-") for s in naive.sync_labels)


def test_gpu_schedules_certified(matrix):
    solver = SpTRSVSolver(matrix, 2, 1, 2)
    scheds = gpu_schedules(solver)
    assert set(scheds) == {"gpu-l-grid0", "gpu-l-grid1", "gpu-allreduce",
                           "gpu-u-grid0", "gpu-u-grid1"}
    for name, sched in scheds.items():
        rep = verify_schedule(sched)
        assert rep.ok, f"{name}: {rep.summary()}"
        if name != "gpu-allreduce":
            # One-sided puts carry statically-known sources: no wildcards.
            assert rep.wildcard_groups == []
    assert verify_schedule(scheds["gpu-allreduce"]).nsyncs == 1


def test_expected_syncs_table():
    assert expected_syncs("new3d", 1) == 0
    assert expected_syncs("new3d", 8) == 1
    assert expected_syncs("baseline3d", 8) == 3
    assert expected_syncs("2d", 1) == 0
    with pytest.raises(ValueError):
        expected_syncs("nope", 4)


def test_schedule_summary_roundtrip(solver224):
    sched = solver_schedule(solver224, algorithm="new3d")
    s = verify_schedule(sched).summary()
    assert "certified" in s and "new3d" in s and "1 sync point(s)" in s


# ---------------------------------------------------------------------------
# The per-solver schedule store: one extraction, many readers.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("algorithm", list(BACKENDS))
def test_readers_leave_a_stored_schedule_unchanged(solver224, algorithm):
    if not BACKENDS[algorithm].grid_ok(solver224.grid):
        return
    sched = solver_schedule(solver224, algorithm=algorithm, nrhs=2)
    # Functions are atomic to deepcopy, so predicate tags keep identity and
    # dataclass equality is exact.
    before = copy.deepcopy(sched)
    verify_schedule(sched)
    verify_rma(sched)
    schedule_time(sched, CORI_HASWELL)
    sched.summary()
    assert sched == before
    assert solver_schedule(solver224, algorithm=algorithm, nrhs=2) is sched


@pytest.mark.parametrize("algorithm,change", [
    ("new3d", dict(algorithm="baseline3d")),
    ("new3d", dict(tree_kind="binary")),
    ("new3d", dict(allreduce_impl="naive")),
    ("baseline3d", dict(baseline_level_sync=False)),
    ("new3d", dict(rendezvous=True)),
], ids=lambda v: v if isinstance(v, str) else ",".join(v))
def test_store_key_covers_every_option(solver224, algorithm, change):
    solver = fresh_store(solver224)
    base = solver_schedule(solver, algorithm=algorithm, nrhs=2)
    assert solver_schedule(solver, algorithm=algorithm, nrhs=2) is base
    options = {"algorithm": algorithm, **change}
    other = solver_schedule(solver, nrhs=2, **options)
    assert other is not base
    assert solver_schedule(solver, nrhs=2, **options) is other
    # What the store hands out under these options is what extracting
    # under these options gives — never a neighbour's entry.
    assert schedule_fields(other) == schedule_fields(
        solver_schedule(fresh_store(solver224), nrhs=2, **options))
    assert solver_schedule(solver, algorithm=algorithm, nrhs=2) is base


def test_store_shares_options_that_resolve_identically(solver224):
    """The key is the resolved backend: baseline3d has no Z reduction, so
    ``allreduce_impl`` cannot split its entry."""
    solver = fresh_store(solver224)
    assert (solver_schedule(solver, algorithm="baseline3d",
                            allreduce_impl="naive")
            is solver_schedule(solver, algorithm="baseline3d"))


def _plain(value) -> bool:
    """A scalar, a string, ANY, or tuples of those — nothing that can keep
    a payload alive."""
    if isinstance(value, tuple):
        return all(_plain(v) for v in value)
    return value is None or value is ANY or isinstance(
        value, (bool, int, float, str))


@pytest.mark.parametrize("algorithm", list(BACKENDS))
def test_stored_schedule_keeps_no_payload_alive(solver224, algorithm):
    """The store outlives the extraction, so an event that referenced its
    zero-filled payload — directly or through a predicate tag's closure —
    would pin ``n x nrhs`` floats per message for the solver's lifetime."""
    if not BACKENDS[algorithm].grid_ok(solver224.grid):
        return
    sched = solver_schedule(solver224, algorithm=algorithm, nrhs=2)
    predicates = 0
    for ev in (e for evs in sched.events for e in evs):
        for name, value in vars(ev).items():
            if callable(value):
                assert name == "tag_spec"
                predicates += 1
                cells = [c.cell_contents for c in value.__closure__ or ()]
                assert all(_plain(c) for c in cells), (ev.describe(), cells)
            else:
                assert _plain(value), (ev.describe(), name, value)
    assert all(_plain(t) for t in sched.compute_tails)
    # The 2D kernel's salted predicate is the one callable tag there is.
    assert predicates > 0 or BACKENDS[algorithm].family.name == "ca_trsm"


# ---------------------------------------------------------------------------
# Extraction runs on the shape-only kernel set (repro.kernels).
# ---------------------------------------------------------------------------

KERNEL_GRIDS = [(2, 2, 1), (2, 1, 2), (1, 1, 4), (2, 2, 2)]


def _gid(v) -> str:
    return "x".join(map(str, v)) if isinstance(v, tuple) else str(v)


@pytest.fixture(scope="module")
def grid_solvers(matrix):
    return {g: SpTRSVSolver(matrix, *g) for g in KERNEL_GRIDS}


def _both_kernel_sets(monkeypatch, extract_once):
    """``extract_once()``'s fields under the shape-only set the extractor
    picks, and with the numeric set patched in instead."""
    shape = schedule_fields(extract_once())
    with monkeypatch.context() as m:
        m.setattr(extract, "SHAPE", NUMERIC)
        numeric = schedule_fields(extract_once())
    return shape, numeric


@pytest.mark.parametrize("grid,algorithm", [
    (g, name) for g in KERNEL_GRIDS for name, row in BACKENDS.items()
    if row.grid_ok(Grid3D(*g))], ids=_gid)
@pytest.mark.parametrize("nrhs", [1, 3])
def test_shape_extraction_equals_numeric(grid_solvers, monkeypatch, grid,
                                         algorithm, nrhs):
    """Field for field — events, tags, nbytes, pre_*, compute tails,
    completion, blocked lists: zero-shape kernels change no schedule."""
    solver = grid_solvers[grid]
    shape, numeric = _both_kernel_sets(monkeypatch, lambda: solver_schedule(
        fresh_store(solver), algorithm=algorithm, nrhs=nrhs))
    assert shape == numeric


@pytest.mark.parametrize("grid", [g for g in KERNEL_GRIDS if g[2] > 1],
                         ids=_gid)
@pytest.mark.parametrize("impl", list(Z_REDUCTIONS))
@pytest.mark.parametrize("nrhs", [1, 3])
def test_shape_allreduce_extraction_equals_numeric(grid_solvers, monkeypatch,
                                                   grid, impl, nrhs):
    solver = grid_solvers[grid]
    shape, numeric = _both_kernel_sets(monkeypatch, lambda: allreduce_schedule(
        solver, nrhs=nrhs, impl=impl))
    assert shape == numeric


def test_shape_set_overrides_every_numeric_kernel():
    """A kernel ``Shape`` forgot would silently compute under extraction."""
    from repro.kernels import Numeric, Shape

    kernels = {k for k in vars(Numeric) if not k.startswith("_")}
    assert kernels - set(vars(Shape)) == {"zeros"}


@pytest.fixture
def matmul_calls(monkeypatch):
    """Every call of ``repro.util.matmul_columns`` from here on."""
    import repro.util

    calls = []
    real = repro.util.matmul_columns

    def counting(M, Y):
        calls.append(M.shape)
        return real(M, Y)

    monkeypatch.setattr(repro.util, "matmul_columns", counting)
    return calls


def test_extraction_runs_no_gemm(solver224, matmul_calls):
    for algorithm, row in BACKENDS.items():
        if row.grid_ok(solver224.grid):
            solver_schedule(fresh_store(solver224), algorithm=algorithm,
                            nrhs=2)
    assert matmul_calls == []


def test_simulated_solve_runs_numeric_gemms(solver224, matmul_calls):
    """The shape-only set can never reach the simulator."""
    solver224.solve(np.ones(solver224.A.shape[0]))
    assert len(matmul_calls) > 0
