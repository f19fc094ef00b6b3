"""Small shared helpers used across the repro packages."""

from __future__ import annotations

import numpy as np


def is_power_of_two(x: int) -> bool:
    """Return True if ``x`` is a positive power of two (1, 2, 4, ...)."""
    return x > 0 and (x & (x - 1)) == 0


def ilog2(x: int) -> int:
    """Exact integer log2 of a positive power of two.

    Raises ``ValueError`` if ``x`` is not a power of two.
    """
    if not is_power_of_two(x):
        raise ValueError(f"{x} is not a positive power of two")
    return x.bit_length() - 1


def as_2d_rhs(b: np.ndarray) -> tuple[np.ndarray, bool]:
    """Normalize a right-hand side to shape ``(n, nrhs)``.

    Returns ``(b2d, was_1d)`` so callers can restore the original shape.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim == 1:
        return b.reshape(-1, 1), True
    if b.ndim == 2:
        return b, False
    raise ValueError(f"RHS must be 1-D or 2-D, got ndim={b.ndim}")


def _stacked_columns(M: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """All columns of ``M @ Y`` in one gufunc call, ``(m, k) @ (nrhs, k, 1)``."""
    return np.matmul(M, np.ascontiguousarray(Y.T)[:, :, None])[:, :, 0].T


def check_kernel_contract() -> None:
    """Re-verify on *this* host's numpy/BLAS what :func:`matmul_columns`
    and the replay arena both rest on: a stacked matmul equals, bit for
    bit, its per-slice ``(m, k) @ (k, 1)`` calls.  Raises ``RuntimeError``
    naming the numpy and BLAS builds otherwise; there is no fallback — a
    host that fails cannot honour the batching contract on either path.
    """
    rng = np.random.default_rng(0)
    for m, k, nrhs in ((3, 5, 2), (16, 16, 3), (33, 17, 16)):
        A, Y = rng.standard_normal((m, k)), rng.standard_normal((k, nrhs))
        for M in (A, np.asfortranarray(A)):
            Z = _stacked_columns(M, Y)
            if all(np.array_equal(Z[:, j:j + 1],
                                  M @ np.ascontiguousarray(Y[:, j:j + 1]))
                   for j in range(nrhs)):
                continue
            try:
                blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
                blas = f"{blas.get('name')} {blas.get('version')}"
            except (TypeError, AttributeError, KeyError):
                blas = "unknown BLAS"
            raise RuntimeError(
                f"kernel contract broken on this host (numpy "
                f"{np.__version__}, {blas}): a stacked ({m},{k}) @ "
                f"({nrhs},{k},1) matmul is not bit-identical to its "
                f"per-column products, so batched != unbatched")


_contract_checked = False


def matmul_columns(M: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``M @ Y`` with per-column bit-reproducibility.

    Guaranteed: column ``j`` of the result is bit-identical to ``M @``
    (column ``j`` of ``Y``, contiguous) evaluated in isolation, whatever
    the layouts of ``M`` and ``Y`` and whatever else rides in the batch —
    the serving tier's contract that coalescing single-RHS requests into
    a batch changes no individual answer.  A wide ``(m, k) @ (k, nrhs)``
    GEMM stays forbidden (BLAS tiles its summation by width; lint rule
    RPR003).  The *stacked* ``(m, k) @ (nrhs, k, 1)`` call is allowed
    because numpy's matmul gufunc evaluates it slice by slice, issuing per
    column the very BLAS call a Python loop over columns would — the
    property the replay arena has batched on since PR 7, re-verified by
    :func:`check_kernel_contract` on the first multi-column call of a
    process.  The result may be a Fortran-ordered view.
    """
    if Y.ndim != 2:
        return M @ Y
    if Y.shape[1] <= 1:
        return M @ np.ascontiguousarray(Y)   # a strided column sums differently
    global _contract_checked
    if not _contract_checked:
        check_kernel_contract()
        _contract_checked = True
    return _stacked_columns(M, Y)


def check_permutation(perm: np.ndarray, n: int) -> None:
    """Validate that ``perm`` is a permutation of ``range(n)``."""
    perm = np.asarray(perm)
    if perm.shape != (n,):
        raise ValueError(f"permutation has shape {perm.shape}, expected ({n},)")
    seen = np.zeros(n, dtype=bool)
    seen[perm] = True
    if not seen.all():
        raise ValueError("not a permutation: some indices missing")


def inverse_permutation(perm: np.ndarray) -> np.ndarray:
    """Return the inverse of permutation ``perm`` (iperm[perm[i]] = i)."""
    perm = np.asarray(perm)
    iperm = np.empty_like(perm)
    iperm[perm] = np.arange(len(perm))
    return iperm
