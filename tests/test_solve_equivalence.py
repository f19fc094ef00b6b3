"""Batched (multi-RHS) solves are bit-identical, column for column, to
single-RHS solves — the correctness contract repro.serve's batching
rests on, across every solve path (proposed, baseline, GPU, blocked,
reference)."""

import numpy as np
import pytest

from repro.comm.costmodel import MACHINES
from repro.core import SpTRSVSolver
from repro.matrices import get_matrix, make_rhs
from repro.util import matmul_columns


@pytest.fixture(scope="module")
def solver():
    A = get_matrix("s2D9pt2048", "tiny")
    return SpTRSVSolver(A, 1, 1, 2, max_supernode=8)


@pytest.fixture(scope="module")
def B(solver):
    return make_rhs(solver.n, 5, kind="random", seed=123)


def _assert_columns_bit_identical(solver, B, **solve_kw):
    X = solver.solve(B, **solve_kw).x
    for j in range(B.shape[1]):
        xj = solver.solve(B[:, j], **solve_kw).x
        assert np.array_equal(X[:, j], xj), (
            f"column {j} of the batched solve differs from its "
            f"single-RHS solve under {solve_kw}")


def test_new3d_batched_columns_bit_identical(solver, B):
    _assert_columns_bit_identical(solver, B, algorithm="new3d")


def test_baseline3d_batched_columns_bit_identical(solver, B):
    _assert_columns_bit_identical(solver, B, algorithm="baseline3d")


def test_gpu_batched_columns_bit_identical(B):
    A = get_matrix("s2D9pt2048", "tiny")
    s = SpTRSVSolver(A, 1, 1, 2, machine=MACHINES["perlmutter-gpu"],
                     max_supernode=8)
    _assert_columns_bit_identical(s, B, device="gpu")


def test_reference_batched_columns_bit_identical(solver, B):
    X = solver.reference_solve(B)
    for j in range(B.shape[1]):
        assert np.array_equal(X[:, j], solver.reference_solve(B[:, j]))


def test_solve_blocked_bit_identical_to_unblocked(solver, B):
    full = solver.solve(B).x
    panelled = solver.solve_blocked(B, rhs_block=2).x
    assert np.array_equal(full, panelled)


def test_batch_width_does_not_perturb_columns(solver):
    """A column's bits don't depend on *which* batch it rode in."""
    B = make_rhs(solver.n, 4, kind="random", seed=7)
    X4 = solver.solve(B).x
    X2 = solver.solve(B[:, :2]).x
    assert np.array_equal(X4[:, :2], X2)


def test_matmul_columns_matches_per_column_gemv():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((12, 9))
    Y = rng.standard_normal((9, 4))
    Z = matmul_columns(M, Y)
    for j in range(4):
        assert np.array_equal(
            Z[:, j:j + 1], M @ np.ascontiguousarray(Y[:, j:j + 1]))
    # Degenerate shapes fall through to plain matmul.
    assert np.array_equal(matmul_columns(M, Y[:, :1]), M @ Y[:, :1])


# -- kernel contract: matmul_columns == one isolated matmul per column -------

M_LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    # a non-contiguous block of a larger panel
    "slice": lambda A: np.pad(A, ((1, 2), (3, 1)))[1:1 + A.shape[0],
                                                   3:3 + A.shape[1]],
}
Y_LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    # every other column of a wider panel
    "strided": lambda Y: np.repeat(Y, 2, axis=1)[:, ::2],
}


def _assert_columns_are_isolated_matmuls(M, Y):
    Z = matmul_columns(M, Y)
    assert Z.shape == (M.shape[0], Y.shape[1])
    for j in range(Y.shape[1]):
        ref = (M @ np.ascontiguousarray(Y[:, j:j + 1]))[:, 0]
        assert np.array_equal(Z[:, j], ref), (
            f"column {j} of {M.shape} @ {Y.shape} is not its own matmul")


SHAPES = [(12, 9), (33, 17), (64, 64), (0, 5), (5, 0), (1, 7), (7, 1), (1, 1)]


@pytest.mark.parametrize("nrhs", [1, 2, 3, 16, 17])
@pytest.mark.parametrize("y_layout", Y_LAYOUTS)
@pytest.mark.parametrize("m_layout", M_LAYOUTS)
def test_matmul_columns_contract(m_layout, y_layout, nrhs):
    rng = np.random.default_rng(nrhs)
    for m, k in SHAPES:
        M = M_LAYOUTS[m_layout](rng.standard_normal((m, k)))
        Y = Y_LAYOUTS[y_layout](rng.standard_normal((k, nrhs)))
        _assert_columns_are_isolated_matmuls(M, Y)


def test_matmul_columns_1d_rhs_is_plain_matvec():
    rng = np.random.default_rng(0)
    M, y = rng.standard_normal((12, 9)), rng.standard_normal(9)
    assert np.array_equal(matmul_columns(M, y), M @ y)


def test_matmul_columns_contract_on_real_factor_blocks():
    """Every distinct (shape, layout) among the blocks of one real
    factorization, at a width where a wide GEMM would tile differently."""
    lu = SpTRSVSolver(get_matrix("nlpkkt80", "small"), 1, 1, 1).lu
    classes = {}
    for M in (*lu.Lblocks.values(), *lu.Ublocks.values(),
              *lu.diagLinv, *lu.diagUinv):
        classes.setdefault((M.shape, M.flags.c_contiguous,
                            M.flags.f_contiguous), M)
    assert len(classes) > 50
    rng = np.random.default_rng(2)
    for M in classes.values():
        _assert_columns_are_isolated_matmuls(
            M, rng.standard_normal((M.shape[1], 16)))


def test_kernel_contract_canary_passes_and_is_loud(monkeypatch):
    import repro.util as util

    util.check_kernel_contract()
    # A host whose stacked matmul behaved like a wide GEMM must be refused.
    monkeypatch.setattr(util, "_stacked_columns", lambda M, Y: M @ Y + 1e-9)
    monkeypatch.setattr(util, "_contract_checked", False)
    with pytest.raises(RuntimeError, match=f"numpy {np.__version__}"):
        matmul_columns(np.ones((3, 3)), np.ones((3, 2)))
