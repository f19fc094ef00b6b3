"""Tests for the factorization extensions: left-looking LU, serialization,
stability monitoring, and DAG level profiles."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.matrices import (
    chemistry_like,
    kkt3d,
    make_rhs,
    poisson2d,
    random_spd_like,
)
from repro.numfact import (
    load_factors,
    lu_factorize,
    lu_factorize_leftlooking,
    save_factors,
    solve_residual,
    stability_report,
)
from repro.perf import critical_path, level_profile
from repro.comm import CORI_HASWELL
from repro.symbolic import fixed_partition, symbolic_factor


MATS = [
    lambda: poisson2d(8, stencil=9, seed=1),
    lambda: kkt3d(3, seed=2),
    lambda: chemistry_like(70, seed=3),
    lambda: random_spd_like(90, avg_degree=5, seed=4),
]


# ---- left-looking LU ----------------------------------------------------------

@pytest.mark.parametrize("gen", MATS)
@pytest.mark.parametrize("mx", [1, 4, 16])
def test_leftlooking_matches_rightlooking(gen, mx):
    A = gen()
    part = symbolic_factor(A, max_supernode=mx).partition
    rl = lu_factorize(A, part)
    ll = lu_factorize_leftlooking(A, part)
    assert set(rl.Lblocks) == set(ll.Lblocks)
    assert set(rl.Ublocks) == set(ll.Ublocks)
    for key in rl.Lblocks:
        assert np.allclose(rl.Lblocks[key], ll.Lblocks[key], atol=1e-10)
    for key in rl.Ublocks:
        assert np.allclose(rl.Ublocks[key], ll.Ublocks[key], atol=1e-10)
    for s in range(rl.nsup):
        assert np.allclose(rl.diagU[s], ll.diagU[s], atol=1e-10)


def test_leftlooking_solves():
    A = poisson2d(10, stencil=5, seed=5)
    part = fixed_partition(100, 8)
    lu = lu_factorize_leftlooking(A, part)
    b = make_rhs(100, 2)
    assert solve_residual(A, lu.solve(b), b) < 1e-10


def test_leftlooking_size_mismatch():
    with pytest.raises(ValueError):
        lu_factorize_leftlooking(poisson2d(5), fixed_partition(10, 2))


# ---- serialization --------------------------------------------------------------

def test_factor_roundtrip(tmp_path):
    A = poisson2d(9, stencil=9, seed=6)
    part = symbolic_factor(A, max_supernode=6).partition
    lu = lu_factorize(A, part)
    path = str(tmp_path / "factors.npz")
    save_factors(path, lu)
    lu2 = load_factors(path)
    assert lu2.nsup == lu.nsup
    assert set(lu2.Lblocks) == set(lu.Lblocks)
    b = make_rhs(81, 3, "random", seed=7)
    assert np.allclose(lu.solve(b), lu2.solve(b), atol=1e-12)
    for K in range(lu.nsup):
        assert (lu2.l_blockrows[K] == lu.l_blockrows[K]).all()
        assert (lu2.u_blockcols[K] == lu.u_blockcols[K]).all()


def test_loaded_factors_solve_bit_identically(tmp_path):
    """Loading recomputes the diagonal inverses exactly as factoring does."""
    A = poisson2d(9, stencil=9, seed=6)
    lu = lu_factorize(A, symbolic_factor(A, max_supernode=6).partition)
    path = str(tmp_path / "factors.npz")
    save_factors(path, lu)
    lu2 = load_factors(path)
    for a, b in zip(lu.diagLinv + lu.diagUinv, lu2.diagLinv + lu2.diagUinv):
        assert np.array_equal(a, b)
    b = make_rhs(81, 3, "random", seed=7)
    assert np.array_equal(lu.solve(b), lu2.solve(b))


def test_factor_roundtrip_diag_only(tmp_path):
    A = sp.identity(8, format="csr") * 3.0
    part = fixed_partition(8, 4)
    lu = lu_factorize(A, part)
    path = str(tmp_path / "d.npz")
    save_factors(path, lu)
    lu2 = load_factors(path)
    assert not lu2.Lblocks and not lu2.Ublocks
    b = np.ones(8)
    assert np.allclose(lu2.solve(b), b / 3.0)


def test_loaded_factors_drive_distributed_solve(tmp_path):
    """A saved factorization plugs back into the 3D solver."""
    from repro.core.solver import SpTRSVSolver

    A = poisson2d(10, stencil=9, seed=8)
    solver = SpTRSVSolver(A, 2, 1, 2, max_supernode=8)
    path = str(tmp_path / "f.npz")
    save_factors(path, solver.lu)
    lu2 = load_factors(path)
    via = SpTRSVSolver.from_pipeline(A, solver.tree, solver.sym, lu2,
                                     2, 1, 2)
    b = make_rhs(100, 1)
    assert np.allclose(via.solve(b).x, solver.solve(b).x, atol=1e-12)


# ---- stability -------------------------------------------------------------------

def test_stability_clean_for_dd_matrices():
    A = poisson2d(10, stencil=9, seed=9)
    part = symbolic_factor(A, max_supernode=8).partition
    lu = lu_factorize(A, part)
    rep = stability_report(A, lu)
    assert rep.is_stable()
    assert rep.warnings() == []
    # Diagonally dominant: growth factor stays modest.
    assert rep.growth_factor < 10.0
    assert 0 < rep.min_pivot <= rep.max_pivot


def test_stability_flags_growth():
    """A nearly singular pivot produces huge growth and a warning."""
    M = np.array([[1e-9, 1.0, 0.1],
                  [1.0, 1.0, 0.2],
                  [0.1, 0.2, 1.0]])
    A = sp.csr_matrix(M)
    part = fixed_partition(3, 1)
    lu = lu_factorize(A, part)
    rep = stability_report(A, lu)
    assert rep.growth_factor > 1e4
    assert not rep.is_stable()
    assert any("growth" in w for w in rep.warnings())


# ---- level profiles ----------------------------------------------------------------

def test_level_profile_basic():
    A = poisson2d(10, stencil=9, seed=10)
    part = symbolic_factor(A, max_supernode=8).partition
    lu = lu_factorize(A, part)
    prof = level_profile(lu, "L")
    assert prof.widths.sum() == lu.nsup
    assert prof.depth >= 1
    assert prof.max_width >= 1
    assert prof.avg_parallelism == pytest.approx(lu.nsup / prof.depth)
    # Level consistency: every producer sits strictly below its consumers.
    for J in range(lu.nsup):
        for I in lu.l_blockrows[J]:
            assert prof.levels[int(I)] > prof.levels[J]


def test_level_profile_U_mirror():
    A = poisson2d(8, stencil=5, seed=11)
    part = symbolic_factor(A, max_supernode=8).partition
    lu = lu_factorize(A, part)
    pl = level_profile(lu, "L")
    pu = level_profile(lu, "U")
    # Symmetric pattern: both phases have the same depth.
    assert pl.depth == pu.depth
    with pytest.raises(ValueError):
        level_profile(lu, "X")


def test_level_depth_matches_critical_path_length():
    """With unit task costs the critical path visits exactly `depth`
    supernodes per phase."""
    A = poisson2d(9, stencil=9, seed=12)
    part = symbolic_factor(A, max_supernode=8).partition
    lu = lu_factorize(A, part)
    prof = level_profile(lu, "L")
    cp = critical_path(lu, CORI_HASWELL)
    # cp.length counts L + U solves along the chain; each phase's chain has
    # at most `depth` nodes.
    assert cp.length <= 2 * prof.depth


def test_diagonal_matrix_is_one_level():
    A = sp.identity(12, format="csr") * 2.0
    part = fixed_partition(12, 3)
    lu = lu_factorize(A, part)
    prof = level_profile(lu)
    assert prof.depth == 1
    assert prof.max_width == lu.nsup
