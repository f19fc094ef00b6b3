r"""Symmetric-pattern symbolic factorization and supernode detection.

Computes the exact scalar fill pattern of L (= pattern of U^T under the
structurally symmetric assumption the paper makes) by merging child column
patterns along the elimination tree:

    struct(L(:, j)) = struct(A(j:, j))  ∪  ⋃_{c: parent(c)=j} struct(L(:, c)) \ {c}

From the per-column patterns it detects supernodes (columns with nested
patterns), subject to a maximum size and to separator-tree boundaries.
:func:`block_pattern` gives the block pattern a numeric LU stores over a
partition.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.ordering.elimination_tree import etree
from repro.symbolic.supernodes import SupernodePartition, fixed_partition


@dataclass
class SymbolicFactor:
    """Result of the symbolic phase.

    ``partition`` is the supernode partition; ``below_rows[s]`` holds the
    sorted row indices of L strictly below supernode ``s``'s diagonal block
    (shared by all of the supernode's columns); ``nnz_L`` / ``nnz_U`` count
    scalar nonzeros including the (full) triangular diagonal blocks.
    """

    partition: SupernodePartition
    below_rows: list[np.ndarray]
    nnz_L: int
    nnz_U: int
    parent: np.ndarray  # elimination tree

    @property
    def nnz_LU(self) -> int:
        """Scalar nonzeros of L + U counting the diagonal once."""
        return self.nnz_L + self.nnz_U - self.partition.n

    def density(self) -> float:
        """nnz(LU) / n^2, the Table 1 'Density' column."""
        n = self.partition.n
        return self.nnz_LU / float(n) / float(n)


def _column_patterns(A: sp.csc_matrix, parent: np.ndarray) -> list[np.ndarray]:
    """Per-column sorted patterns of L (rows >= j), via column merging."""
    n = A.shape[0]
    indptr, indices = A.indptr, A.indices
    children: list[list[int]] = [[] for _ in range(n)]
    for j in range(n):
        p = parent[j]
        if p >= 0:
            children[p].append(j)
    patterns: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    for j in range(n):
        col = indices[indptr[j]:indptr[j + 1]]
        pieces = [col[col >= j]]
        if not len(pieces[0]) or pieces[0][0] != j:
            pieces.insert(0, np.array([j], dtype=col.dtype))
        for c in children[j]:
            pc = patterns[c]
            pieces.append(pc[1:])  # drop the child's diagonal entry c... see below
        if len(pieces) == 1:
            patterns[j] = pieces[0]
        else:
            patterns[j] = np.unique(np.concatenate(pieces))
    return patterns


def symbolic_factor(A: sp.spmatrix,
                    max_supernode: int = 32,
                    boundaries: np.ndarray | None = None,
                    mode: str = "detect") -> SymbolicFactor:
    """Symbolic factorization of a structurally symmetric matrix.

    ``mode='detect'`` computes the exact fill and detects supernodes;
    ``mode='fixed'`` skips pattern detection and chops fixed-size chunks
    (below-row patterns are then derived from the union of A-column patterns
    of the chunk closed over the elimination tree — still a superset-correct
    pattern because it reuses the same merge).

    ``boundaries`` (sorted, containing 0 and n) forces supernode breaks,
    e.g. at separator-tree node edges.
    """
    A = sp.csc_matrix(A)
    A.sort_indices()
    n = A.shape[0]
    parent = etree(A)
    patterns = _column_patterns(A, parent)

    bset = set()
    if boundaries is not None:
        bset = {int(b) for b in boundaries}

    if mode == "fixed":
        partition = fixed_partition(
            n, max_supernode,
            np.asarray(sorted(bset | {0, n}), dtype=np.int64)
            if boundaries is not None else None)
    elif mode == "detect":
        starts = [0]
        size = 1
        for j in range(1, n):
            pj, pprev = patterns[j], patterns[j - 1]
            mergeable = (size < max_supernode
                         and j not in bset
                         and len(pj) == len(pprev) - 1
                         and np.array_equal(pprev[1:], pj))
            if mergeable:
                size += 1
            else:
                starts.append(j)
                size = 1
        starts.append(n)
        partition = SupernodePartition(np.asarray(starts, dtype=np.int64))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    # Below-diagonal row pattern per supernode: the first column's pattern
    # clipped below the supernode (patterns are nested within a supernode,
    # and for 'fixed' chunks the union is what the merge already produced
    # for the last column... use the union over the chunk to stay a superset).
    below_rows: list[np.ndarray] = []
    nnz_L = 0
    for s in range(partition.nsup):
        c0, c1 = partition.first(s), partition.last(s)
        if mode == "detect":
            rows = patterns[c0]
            rows = rows[rows >= c1]
        else:
            rows = np.unique(np.concatenate([patterns[c] for c in range(c0, c1)]))
            rows = rows[rows >= c1]
        below_rows.append(rows)
        w = c1 - c0
        # Full dense diagonal block (supernodal storage) + below rows per col.
        nnz_L += w * (w + 1) // 2
        if mode == "detect":
            for c in range(c0, c1):
                pc = patterns[c]
                nnz_L += int((pc >= c1).sum())
        else:
            nnz_L += w * len(rows)

    return SymbolicFactor(partition=partition, below_rows=below_rows,
                          nnz_L=nnz_L, nnz_U=nnz_L, parent=parent)


def block_pattern(A: sp.spmatrix, part: SupernodePartition
                  ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Symbolic block elimination: sorted ``(l_blockrows, u_blockcols)``.

    Eliminating ``K`` creates block ``(I, J)`` for every block row ``I`` and
    block column ``J`` of ``K`` (a superset of the scalar fill; it keeps the
    3D layout's ancestor-ordering invariant, see DESIGN.md).  Raises
    ``np.linalg.LinAlgError`` on a diagonal block neither stored nor filled.
    """
    nsup, col2sn = part.nsup, part.col2sn()
    coo = sp.coo_matrix(A)
    B = sp.csr_matrix((np.ones(coo.nnz), (col2sn[coo.row], col2sn[coo.col])),
                      shape=(nsup, nsup))
    up, lo = sp.triu(B, 1, format="csr"), sp.tril(B, -1, format="csc")
    cols_of = [set(up.indices[up.indptr[K]:up.indptr[K + 1]].tolist())
               for K in range(nsup)]
    rows_of = [set(lo.indices[lo.indptr[K]:lo.indptr[K + 1]].tolist())
               for K in range(nsup)]
    diag = set(np.flatnonzero(B.diagonal()).tolist())
    for K in range(nsup):
        if K not in diag:
            raise np.linalg.LinAlgError(f"structurally zero diagonal block {K}")
        lrows, ucols = sorted(rows_of[K]), sorted(cols_of[K])
        for I in lrows:
            cols_of[I].update(ucols[bisect_right(ucols, I):])
        for J in ucols:
            rows_of[J].update(lrows[bisect_right(lrows, J):])
        diag.update(rows_of[K] & cols_of[K])
    return ([np.array(sorted(r), dtype=np.int64) for r in rows_of],
            [np.array(sorted(c), dtype=np.int64) for c in cols_of])
