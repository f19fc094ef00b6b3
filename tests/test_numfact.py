"""Unit tests for the block-sparse supernodal LU factorization."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.matrices import (
    chemistry_like,
    fusion_block,
    kkt3d,
    make_rhs,
    poisson2d,
    poisson3d,
    random_spd_like,
)
from repro.numfact import (
    dense_lu_nopivot,
    factorization_residual,
    lu_factorize,
    solve_residual,
)
from repro.symbolic import fixed_partition, symbolic_factor


def test_dense_lu_nopivot_reconstructs():
    rng = np.random.default_rng(0)
    D = rng.standard_normal((12, 12)) + 20 * np.eye(12)
    L, U = dense_lu_nopivot(D)
    assert np.allclose(L @ U, D)
    assert np.allclose(np.diag(L), 1.0)
    assert np.allclose(np.triu(L, 1), 0.0)
    assert np.allclose(np.tril(U, -1), 0.0)


def test_dense_lu_nopivot_zero_pivot_raises():
    with pytest.raises(np.linalg.LinAlgError):
        dense_lu_nopivot(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_dense_lu_empty_and_one():
    L, U = dense_lu_nopivot(np.zeros((0, 0)))
    assert L.shape == (0, 0)
    L, U = dense_lu_nopivot(np.array([[3.0]]))
    assert U[0, 0] == 3.0


# ---- typed failure: every refusal of lu_factorize is a LinAlgError ----------

def test_lu_structurally_zero_diagonal_block_raises():
    # Column 0's diagonal is not stored and no elimination step fills it.
    A = sp.csr_matrix(np.array([[0.0, 1.0, 0.0],
                                [1.0, 2.0, 1.0],
                                [0.0, 1.0, 2.0]]))
    with pytest.raises(np.linalg.LinAlgError, match="structurally zero"):
        lu_factorize(A, fixed_partition(3, 1))


def test_lu_zero_diagonal_filled_by_elimination_factors():
    # (1, 1) is not stored, but eliminating column 0 fills it with -1.
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
    assert A.nnz == 3
    lu = lu_factorize(A, fixed_partition(2, 1))
    assert factorization_residual(A, lu) < 1e-12


@pytest.mark.parametrize("width", [1, 3])
def test_lu_exactly_singular_raises(width):
    # Eliminating column 0 zeroes the pivot of column 1, and column 1 has
    # nothing left below it: singular with or without pivoting.
    A = sp.csr_matrix(np.array([[2.0, 1.0, 0.0],
                                [4.0, 2.0, 0.0],
                                [0.0, 0.0, 1.0]]))
    with pytest.raises(RuntimeError, match="singular"):
        sp.linalg.splu(sp.csc_matrix(A), permc_spec="NATURAL",
                       diag_pivot_thresh=0.0)
    with pytest.raises(np.linalg.LinAlgError):
        lu_factorize(A, fixed_partition(3, width))


@pytest.mark.parametrize("width", [1, 3])
def test_lu_zero_pivot_that_pivoting_would_fix_raises(width):
    # Column 1's pivot is zero after eliminating column 0, but row 2 offers
    # a nonzero: SuperLU swaps rows even at threshold 0.  Factoring without
    # pivoting must refuse instead.
    A = sp.csr_matrix(np.array([[1.0, 1.0, 0.0],
                                [1.0, 1.0, 1.0],
                                [0.0, 1.0, 1.0]]))
    slu = sp.linalg.splu(sp.csc_matrix(A), permc_spec="NATURAL",
                         diag_pivot_thresh=0.0,
                         options=dict(SymmetricMode=True))
    assert not np.array_equal(slu.perm_r, np.arange(3))
    with pytest.raises(np.linalg.LinAlgError):
        lu_factorize(A, fixed_partition(3, width))


def test_lu_superlu_fill_outside_block_pattern_raises(monkeypatch):
    # Drop one L block from the symbolic pattern: SuperLU's entries there
    # must be refused, not silently lost.
    import repro.numfact.lu as lu_mod

    real = lu_mod.block_pattern

    def short(A, part):
        rows, cols = real(A, part)
        K = next(K for K, r in enumerate(rows) if len(r))
        rows[K] = rows[K][1:]
        return rows, cols

    monkeypatch.setattr(lu_mod, "block_pattern", short)
    A = poisson2d(6, stencil=9)
    with pytest.raises(np.linalg.LinAlgError, match="outside"):
        lu_factorize(A, symbolic_factor(A, max_supernode=4).partition)


def test_lu_blocks_are_c_contiguous_float64():
    A = poisson2d(7, stencil=9, seed=2)
    lu = lu_factorize(A, symbolic_factor(A, max_supernode=4).partition)
    blocks = [*lu.diagL, *lu.diagU, *lu.diagLinv, *lu.diagUinv,
              *lu.Lblocks.values(), *lu.Ublocks.values()]
    assert all(b.dtype == np.float64 and b.flags.c_contiguous for b in blocks)


MATS = [
    lambda: poisson2d(8, stencil=5),
    lambda: poisson2d(7, stencil=9, seed=2),
    lambda: poisson3d(4, stencil=7, seed=1),
    lambda: kkt3d(3),
    lambda: chemistry_like(80, seed=4),
    lambda: fusion_block(8, block=4),
    lambda: random_spd_like(90, avg_degree=5, seed=8),
]


@pytest.mark.parametrize("gen", MATS)
@pytest.mark.parametrize("mx", [1, 4, 16])
def test_lu_reconstructs_A(gen, mx):
    A = gen()
    sym = symbolic_factor(A, max_supernode=mx)
    lu = lu_factorize(A, sym.partition)
    assert factorization_residual(A, lu) < 1e-12


@pytest.mark.parametrize("gen", MATS)
def test_lu_solve_matches_scipy(gen):
    A = gen()
    sym = symbolic_factor(A, max_supernode=8)
    lu = lu_factorize(A, sym.partition)
    b = make_rhs(A.shape[0], 3, kind="manufactured")
    x = lu.solve(b)
    assert solve_residual(A, x, b) < 1e-10
    x_ref = sp.linalg.spsolve(sp.csc_matrix(A), b)
    assert np.allclose(x, x_ref, atol=1e-8)


def test_lu_solve_1d_rhs_roundtrip():
    A = poisson2d(6)
    sym = symbolic_factor(A)
    lu = lu_factorize(A, sym.partition)
    b = np.ones(36)
    x = lu.solve(b)
    assert x.shape == (36,)
    assert solve_residual(A, x, b) < 1e-10


def test_lu_with_fixed_partition():
    A = random_spd_like(60, seed=1)
    part = fixed_partition(60, 7)
    lu = lu_factorize(A, part)
    assert factorization_residual(A, lu) < 1e-12


def test_lu_triangular_structure():
    A = poisson2d(6, stencil=9)
    sym = symbolic_factor(A, max_supernode=4)
    lu = lu_factorize(A, sym.partition)
    for (I, K) in lu.Lblocks:
        assert I > K
    for (K, J) in lu.Ublocks:
        assert J > K
    for s in range(lu.nsup):
        assert np.allclose(np.diag(lu.diagL[s]), 1.0)
        assert np.allclose(lu.diagL[s] @ lu.diagLinv[s],
                           np.eye(lu.partition.size(s)), atol=1e-10)
        assert np.allclose(lu.diagU[s] @ lu.diagUinv[s],
                           np.eye(lu.partition.size(s)), atol=1e-10)


def test_lu_adjacency_lists_consistent():
    A = poisson2d(7, stencil=5)
    sym = symbolic_factor(A, max_supernode=4)
    lu = lu_factorize(A, sym.partition)
    for K in range(lu.nsup):
        assert set(lu.l_blockrows[K]) == {I for (I, K2) in lu.Lblocks if K2 == K}
        assert set(lu.u_blockcols[K]) == {J for (K2, J) in lu.Ublocks if K2 == K}
        assert (np.diff(lu.l_blockrows[K]) > 0).all()


def test_lu_block_pattern_symmetric():
    """Structurally symmetric input keeps the block pattern symmetric."""
    A = poisson2d(6, stencil=5)
    sym = symbolic_factor(A, max_supernode=4)
    lu = lu_factorize(A, sym.partition)
    assert {(i, k) for (i, k) in lu.Lblocks} == \
           {(j, k) for (k, j) in lu.Ublocks}


def test_lu_mismatched_partition_raises():
    A = poisson2d(5)
    with pytest.raises(ValueError):
        lu_factorize(A, fixed_partition(10, 2))


def test_nnz_stored_and_flops_positive():
    A = poisson2d(6)
    sym = symbolic_factor(A, max_supernode=4)
    lu = lu_factorize(A, sym.partition)
    assert lu.nnz_stored() >= A.nnz
    assert lu.solve_flops(1) > 0
    assert lu.solve_flops(4) == 4 * lu.solve_flops(1)


def test_to_csr_triangularity():
    A = poisson2d(6)
    sym = symbolic_factor(A, max_supernode=4)
    lu = lu_factorize(A, sym.partition)
    L, U = lu.to_csr()
    assert (abs(sp.triu(L, 1)) > 1e-300).nnz == 0
    assert (abs(sp.tril(U, -1)) > 1e-300).nnz == 0
