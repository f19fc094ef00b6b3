"""Left-looking supernodal LU — the alternative factorization schedule.

SuperLU's distributed factorization is right-looking; its sequential
ancestors (and the original SuperLU) are left-looking.  Both produce the
same factors on the same pattern, so this dense-block implementation serves
as an independent cross-check of :func:`repro.numfact.lu.lu_factorize`,
whose values come from SuperLU (the test suite compares them block by
block), and as the natural base for factorization variants that update
panels lazily.

For each supernode ``K`` (ascending), the block column ``K`` is gathered
from ``A`` and updated by every earlier supernode ``J`` with ``U(J,K)``
nonzero, in ascending ``J`` order; fill blocks are discovered on the fly
and enqueued as new dependencies.
"""

from __future__ import annotations

import heapq

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from repro.numfact.lu import BlockSparseLU
from repro.symbolic.supernodes import SupernodePartition


def dense_lu_nopivot(D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense LU without pivoting: returns (unit-lower L, upper U).

    Raises ``ZeroDivisionError``-style ``np.linalg.LinAlgError`` if a zero
    pivot is hit (the generators' diagonal dominance rules this out).
    """
    m = D.shape[0]
    LU = np.array(D, dtype=np.float64, copy=True)
    for k in range(m - 1):
        piv = LU[k, k]
        if piv == 0.0:
            raise np.linalg.LinAlgError(f"zero pivot at position {k}")
        LU[k + 1:, k] /= piv
        LU[k + 1:, k + 1:] -= np.outer(LU[k + 1:, k], LU[k, k + 1:])
    if m and LU[m - 1, m - 1] == 0.0:
        raise np.linalg.LinAlgError(f"zero pivot at position {m - 1}")
    L = np.tril(LU, -1) + np.eye(m)
    U = np.triu(LU)
    return L, U


def _scatter_blocks(A: sp.csc_matrix, part: SupernodePartition
                    ) -> dict[tuple[int, int], np.ndarray]:
    """Scatter scalar entries of A into dense supernode blocks."""
    coo = sp.coo_matrix(A)
    col2sn = part.col2sn()
    bi = col2sn[coo.row]
    bj = col2sn[coo.col]
    order = np.lexsort((coo.col, coo.row, bj, bi))
    bi, bj = bi[order], bj[order]
    rows, cols, vals = coo.row[order], coo.col[order], coo.data[order]
    # Group runs of equal (bi, bj).
    key = bi * part.nsup + bj
    starts = np.flatnonzero(np.r_[True, np.diff(key) != 0])
    ends = np.r_[starts[1:], len(key)]
    work: dict[tuple[int, int], np.ndarray] = {}
    for s, e in zip(starts, ends):
        I, J = int(bi[s]), int(bj[s])
        blk = np.zeros((part.size(I), part.size(J)))
        blk[rows[s:e] - part.first(I), cols[s:e] - part.first(J)] = vals[s:e]
        work[(I, J)] = blk
    return work


def lu_factorize_leftlooking(A: sp.spmatrix,
                             partition: SupernodePartition) -> BlockSparseLU:
    """Left-looking supernodal LU of ``A`` over ``partition``.

    Produces factors identical (to rounding) to
    :func:`~repro.numfact.lu.lu_factorize`.
    """
    A = sp.csc_matrix(A)
    if A.shape[0] != A.shape[1] or A.shape[0] != partition.n:
        raise ValueError("matrix/partition size mismatch")
    nsup = partition.nsup
    scattered = _scatter_blocks(A, partition)

    # Column-wise views of A's blocks: col_blocks[K] = {I: block}.
    a_cols: list[dict[int, np.ndarray]] = [{} for _ in range(nsup)]
    for (I, K), blk in scattered.items():
        a_cols[K][I] = blk

    diagL: list[np.ndarray] = [None] * nsup  # type: ignore[list-item]
    diagU: list[np.ndarray] = [None] * nsup  # type: ignore[list-item]
    diagLinv: list[np.ndarray] = [None] * nsup  # type: ignore[list-item]
    diagUinv: list[np.ndarray] = [None] * nsup  # type: ignore[list-item]
    Lblocks: dict[tuple[int, int], np.ndarray] = {}
    Ublocks: dict[tuple[int, int], np.ndarray] = {}
    l_blockrows: list[np.ndarray] = [None] * nsup  # type: ignore[list-item]
    u_blockcols: list[list[int]] = [[] for _ in range(nsup)]

    for K in range(nsup):
        col = {I: np.array(blk, copy=True) for I, blk in a_cols[K].items()}
        # Pending producer supernodes J < K, processed in ascending order;
        # updates may create fill in rows (J', K) with J < J' < K, which
        # are pushed lazily.
        pending = [J for J in col if J < K]
        heapq.heapify(pending)
        seen = set(pending)
        while pending:
            J = heapq.heappop(pending)
            UJK = diagLinv[J] @ col.pop(J)
            Ublocks[(J, K)] = UJK
            u_blockcols[J].append(K)
            for I in l_blockrows[J]:
                I = int(I)
                upd = Lblocks[(I, J)] @ UJK
                tgt = col.get(I)
                if tgt is None:
                    col[I] = -upd
                    if I < K and I not in seen:
                        heapq.heappush(pending, I)
                        seen.add(I)
                else:
                    tgt -= upd
        D = col.pop(K, None)
        if D is None:
            raise np.linalg.LinAlgError(f"structurally zero diagonal block {K}")
        Lkk, Ukk = dense_lu_nopivot(D)
        diagL[K], diagU[K] = Lkk, Ukk
        eye = np.eye(Lkk.shape[0])
        diagLinv[K] = scipy.linalg.solve_triangular(Lkk, eye, lower=True,
                                                    unit_diagonal=True)
        diagUinv[K] = scipy.linalg.solve_triangular(Ukk, eye, lower=False)
        rows = sorted(col)
        for I in rows:
            Lblocks[(I, K)] = col[I] @ diagUinv[K]
        l_blockrows[K] = np.array(rows, dtype=np.int64)

    return BlockSparseLU(
        partition=partition, diagL=diagL, diagU=diagU,
        diagLinv=diagLinv, diagUinv=diagUinv,
        Lblocks=Lblocks, Ublocks=Ublocks,
        l_blockrows=l_blockrows,
        u_blockcols=[np.array(sorted(c), dtype=np.int64)
                     for c in u_blockcols],
    )
