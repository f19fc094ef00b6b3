"""Integration tests: full pipeline, all algorithms, many grid shapes."""

import numpy as np
import pytest

from repro.comm import CORI_HASWELL, PERLMUTTER_CPU
from repro.core import SpTRSVSolver
from repro.matrices import (
    chemistry_like,
    fusion_block,
    kkt3d,
    make_rhs,
    poisson2d,
    poisson3d,
    random_spd_like,
)
from repro.numfact import solve_residual

GRID_SHAPES = [(1, 1, 1), (2, 2, 1), (1, 1, 2), (1, 1, 8),
               (2, 1, 4), (2, 3, 2), (3, 2, 4)]


@pytest.fixture(scope="module")
def A_poisson():
    return poisson2d(14, stencil=9, seed=4)


@pytest.mark.parametrize("shape", GRID_SHAPES)
@pytest.mark.parametrize("algorithm", ["new3d", "baseline3d"])
def test_solution_exact_on_grids(A_poisson, shape, algorithm):
    px, py, pz = shape
    solver = SpTRSVSolver(A_poisson, px, py, pz, max_supernode=8)
    b = make_rhs(A_poisson.shape[0], 2)
    out = solver.solve(b, algorithm=algorithm)
    assert solve_residual(A_poisson, out.x, b) < 1e-10


@pytest.mark.parametrize("gen", [
    lambda: poisson3d(5, stencil=7, seed=1),
    lambda: kkt3d(3, seed=2),
    lambda: chemistry_like(90, seed=3),
    lambda: fusion_block(12, block=4, seed=4),
    lambda: random_spd_like(150, avg_degree=5, seed=5),
])
def test_all_matrix_classes_all_algorithms(gen):
    A = gen()
    solver = SpTRSVSolver(A, 2, 2, 4, max_supernode=8)
    b = make_rhs(A.shape[0], 1, "random", seed=1)
    ref = solver.reference_solve(b)
    for algorithm in ("new3d", "baseline3d"):
        out = solver.solve(b, algorithm=algorithm)
        assert np.allclose(out.x, ref, atol=1e-9)
        assert solve_residual(A, out.x, b) < 1e-9


def test_2d_algorithm_requires_pz1(A_poisson):
    s1 = SpTRSVSolver(A_poisson, 2, 2, 1, max_supernode=8)
    b = make_rhs(A_poisson.shape[0], 1)
    out = s1.solve(b, algorithm="2d")
    assert solve_residual(A_poisson, out.x, b) < 1e-10
    s2 = SpTRSVSolver(A_poisson, 1, 1, 2, max_supernode=8)
    with pytest.raises(ValueError):
        s2.solve(b, algorithm="2d")


def test_unknown_algorithm_raises(A_poisson):
    solver = SpTRSVSolver(A_poisson, 1, 1, 1)
    with pytest.raises(ValueError):
        solver.solve(np.ones(A_poisson.shape[0]), algorithm="quantum")


def test_rhs_shape_checks(A_poisson):
    solver = SpTRSVSolver(A_poisson, 1, 1, 1)
    with pytest.raises(ValueError):
        solver.solve(np.ones(7))
    # 1-D RHS round-trips to 1-D solution.
    out = solver.solve(np.ones(A_poisson.shape[0]))
    assert out.x.ndim == 1


def test_multirhs_solutions_match_columnwise(A_poisson):
    solver = SpTRSVSolver(A_poisson, 2, 1, 2, max_supernode=8)
    b = make_rhs(A_poisson.shape[0], 3, "random", seed=7)
    out = solver.solve(b)
    for k in range(3):
        single = solver.solve(b[:, k])
        assert np.allclose(out.x[:, k], single.x, atol=1e-11)


def test_algorithms_agree_bitwise_tolerance(A_poisson):
    solver = SpTRSVSolver(A_poisson, 2, 2, 4, max_supernode=8)
    b = make_rhs(A_poisson.shape[0], 1)
    x_new = solver.solve(b, algorithm="new3d").x
    x_base = solver.solve(b, algorithm="baseline3d").x
    assert np.allclose(x_new, x_base, atol=1e-10)


def test_tree_kind_does_not_change_solution(A_poisson):
    solver = SpTRSVSolver(A_poisson, 3, 2, 2, max_supernode=8)
    b = make_rhs(A_poisson.shape[0], 1)
    xb = solver.solve(b, algorithm="new3d", tree_kind="binary").x
    xf = solver.solve(b, algorithm="new3d", tree_kind="flat").x
    assert np.allclose(xb, xf, atol=1e-12)


def test_replicated_ancestors_agree_across_grids(A_poisson):
    """After the U-solve every grid holds identical ancestor solutions."""
    from repro.core.sptrsv3d_new import build_new3d_setup, new3d_rank_fn
    from repro.comm import Simulator
    from repro.grids import BlockCyclicMap

    solver = SpTRSVSolver(A_poisson, 1, 1, 4, max_supernode=8)
    setup = solver.setup("new3d", "binary")
    b = make_rhs(A_poisson.shape[0], 1)[solver.perm]
    res = Simulator(solver.grid.nranks, CORI_HASWELL).run(
        new3d_rank_fn(setup, b, 1))
    cmap = BlockCyclicMap(solver.grid)
    part = solver.lu.partition
    for node in solver.layout.nodes:
        lo, hi = part.sn_range(node.first, node.last)
        for K in range(lo, hi):
            vals = [res.results[cmap.diag_owner_rank(K, z)][K]
                    for z in range(node.grid_lo, node.grid_hi)]
            for v in vals[1:]:
                assert np.allclose(v, vals[0], atol=1e-11)


# ---- performance-model sanity (shape, not absolute) -------------------------

def test_report_breakdown_keys(A_poisson):
    solver = SpTRSVSolver(A_poisson, 2, 2, 2, max_supernode=8)
    out = solver.solve(make_rhs(A_poisson.shape[0], 1))
    bd = out.report.breakdown()
    assert set(bd) == {"fp", "xy_comm", "z_comm"}
    assert all(v >= 0 for v in bd.values())
    assert out.report.total_time > 0
    assert out.report.message_count() > 0


def test_new3d_fewer_z_syncs_than_baseline():
    """The proposed algorithm's z-message count is O(log Pz) per rank while
    the baseline pays per-level exchanges; with Pz=8 new3d must send fewer
    or equal z-messages and strictly fewer z-message *rounds*."""
    A = poisson2d(16, stencil=9, seed=6)
    solver = SpTRSVSolver(A, 1, 1, 8, max_supernode=8)
    b = make_rhs(A.shape[0], 1)
    new = solver.solve(b, algorithm="new3d").report
    base = solver.solve(b, algorithm="baseline3d").report
    # Both exchange inter-grid data; baseline L+U phases pay at least as
    # many messages as the one-shot sparse allreduce.
    assert new.message_count("z") <= base.message_count("z")


def test_machine_override(A_poisson):
    """Per-solve machine override changes timing but never the solution."""
    solver = SpTRSVSolver(A_poisson, 1, 1, 2, max_supernode=8,
                          machine=CORI_HASWELL)
    b = make_rhs(A_poisson.shape[0], 1)
    out_cori = solver.solve(b)
    out_perl = solver.solve(b, machine=PERLMUTTER_CPU)
    assert out_cori.report.total_time != out_perl.report.total_time
    assert np.allclose(out_cori.x, out_perl.x, atol=1e-13)


def test_reference_solve_matches_scipy(A_poisson):
    import scipy.sparse.linalg as spla
    import scipy.sparse as sp

    solver = SpTRSVSolver(A_poisson, 1, 1, 1)
    b = make_rhs(A_poisson.shape[0], 1, "random", seed=8)
    x = solver.reference_solve(b)
    x_ref = spla.spsolve(sp.csc_matrix(A_poisson), b)
    assert np.allclose(x.ravel(), x_ref, atol=1e-8)


def test_solve_blocked_matches_unblocked(A_poisson):
    solver = SpTRSVSolver(A_poisson, 2, 1, 2, max_supernode=8)
    b = make_rhs(A_poisson.shape[0], 20, "random", seed=21)
    full = solver.solve(b)
    blocked = solver.solve_blocked(b, rhs_block=6)
    assert np.allclose(full.x, blocked.x, atol=1e-12)
    # Aggregated time covers all four panels.
    assert blocked.report.total_time > full.report.total_time * 0.5
    with pytest.raises(ValueError):
        solver.solve_blocked(b, rhs_block=0)
    # Narrow RHS short-circuits to a single solve.
    narrow = solver.solve_blocked(b[:, :3], rhs_block=8)
    assert np.allclose(narrow.x, full.x[:, :3], atol=1e-12)
