"""Supernodal block-sparse LU factorization (no pivoting): one SuperLU call
in natural order with diagonal pivots, its values scattered one supernode
panel at a time into dense blocks on :func:`repro.symbolic.block_pattern`."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.symbolic.fill import block_pattern
from repro.symbolic.supernodes import SupernodePartition
from repro.util import as_2d_rhs, matmul_columns


@dataclass
class BlockSparseLU:
    """LU factors stored as dense supernode blocks.

    - ``diagL[s]`` / ``diagU[s]``: unit-lower / upper triangular diagonal
      blocks of supernode ``s``; ``diagLinv`` / ``diagUinv`` their inverses
      (the paper assumes these are precomputed).
    - ``Lblocks[(I, K)]``: dense L block, ``I > K``.
    - ``Ublocks[(K, J)]``: dense U block, ``J > K``.
    - ``l_blockrows[K]`` / ``u_blockcols[K]``: sorted adjacency.
    """

    partition: SupernodePartition
    diagL: list[np.ndarray]
    diagU: list[np.ndarray]
    diagLinv: list[np.ndarray]
    diagUinv: list[np.ndarray]
    Lblocks: dict[tuple[int, int], np.ndarray]
    Ublocks: dict[tuple[int, int], np.ndarray]
    l_blockrows: list[np.ndarray] = field(default_factory=list)
    u_blockcols: list[np.ndarray] = field(default_factory=list)

    @property
    def nsup(self) -> int:
        return self.partition.nsup

    @property
    def n(self) -> int:
        return self.partition.n

    def _sizes(self) -> tuple[int, int]:
        """Entries of the diagonal blocks (L and U share the footprint of
        one) and of the off-diagonal blocks."""
        return (sum(d.size for d in self.diagL),
                sum(b.size for d in (self.Lblocks, self.Ublocks)
                    for b in d.values()))

    def nnz_stored(self) -> int:
        """Scalar entries stored in all dense blocks (incl. both triangles)."""
        return sum(self._sizes())

    def solve_flops(self, nrhs: int = 1) -> int:
        """FLOPs of one sequential L+U solve (2mn per GEMM, m^2 per TRSV)."""
        diag, offdiag = self._sizes()
        return (4 * diag + 2 * offdiag) * nrhs

    # ---- sequential reference solves -------------------------------------

    def solve_L(self, b: np.ndarray) -> np.ndarray:
        """Sequential reference forward solve ``L y = b`` (unit diagonal L)."""
        y, was1d = as_2d_rhs(b)
        y = y.copy()
        part = self.partition
        for K in range(self.nsup):
            c0, c1 = part.first(K), part.last(K)
            yK = matmul_columns(self.diagLinv[K], y[c0:c1])
            y[c0:c1] = yK
            for I in self.l_blockrows[K]:
                r0, r1 = part.first(I), part.last(I)
                y[r0:r1] -= matmul_columns(self.Lblocks[(I, K)], yK)
        return y[:, 0] if was1d else y

    def solve_U(self, y: np.ndarray) -> np.ndarray:
        """Sequential reference backward solve ``U x = y``."""
        x, was1d = as_2d_rhs(y)
        x = x.copy()
        part = self.partition
        for K in range(self.nsup - 1, -1, -1):
            c0, c1 = part.first(K), part.last(K)
            acc = x[c0:c1].copy()
            for J in self.u_blockcols[K]:
                j0, j1 = part.first(J), part.last(J)
                acc -= matmul_columns(self.Ublocks[(K, J)], x[j0:j1])
            x[c0:c1] = matmul_columns(self.diagUinv[K], acc)
        return x[:, 0] if was1d else x

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Sequential reference solve ``A x = b`` via L then U."""
        return self.solve_U(self.solve_L(b))

    # ---- reconstruction (for verification) --------------------------------

    def to_csr(self) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """Reassemble (L, U) as scipy sparse matrices."""
        part = self.partition
        n = self.n

        def emit(blocks, diag):
            rows, cols, vals = [], [], []
            for (I, K), blk in [*(((s, s), d) for s, d in enumerate(diag)),
                                *blocks.items()]:
                r0 = part.first(I)
                c0 = part.first(K)
                r, c = np.nonzero(blk)
                rows.append(r + r0)
                cols.append(c + c0)
                vals.append(blk[r, c])
            return sp.csr_matrix(
                (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                shape=(n, n))

        return emit(self.Lblocks, self.diagL), emit(self.Ublocks, self.diagU)


def _panel(M, K: int, adj: np.ndarray, part: SupernodePartition,
           lower: bool) -> list[np.ndarray]:
    """K's columns of L (CSC) or rows of U (CSR), none before column s[K],
    scattered into one buffer of C-contiguous blocks: K's diagonal block,
    then those of ``adj``."""
    s = part.sn_start
    w, members = s[K + 1] - s[K], np.concatenate(([K], adj))
    sizes = s[members + 1] - s[members]
    base = np.concatenate(([0], np.cumsum(sizes))) * w
    ptr = M.indptr[s[K]:s[K + 1] + 1]
    minor, vals = M.indices[ptr[0]:ptr[-1]], M.data[ptr[0]:ptr[-1]]
    k = np.searchsorted(s[members], minor, side="right") - 1
    off = minor - s[members[k]]
    if (off >= sizes[k]).any():
        raise np.linalg.LinAlgError(f"SuperLU fill outside supernode {K}")
    major = np.repeat(np.arange(w), ptr[1:] - ptr[:-1])
    buf = np.zeros(base[-1])
    buf[base[k] + (off * w + major if lower else major * sizes[k] + off)] = vals
    return [buf[a:b].reshape((m, w) if lower else (w, m)) for a, b, m in
            zip(base[:-1].tolist(), base[1:].tolist(), sizes.tolist())]


def _scatter(M, adjs: list[np.ndarray], part: SupernodePartition,
             lower: bool) -> tuple[list[np.ndarray], dict]:
    """One factor's diagonal blocks and off-diagonal blocks, panel by panel."""
    diag, blocks = [], {}
    for K, adj in enumerate(adjs):
        d, *offdiag = _panel(M, K, adj, part, lower)
        diag.append(d)
        blocks.update(zip([(I, K) if lower else (K, I) for I in adj.tolist()],
                          offdiag))
    return diag, blocks


def triangular_inverses(diag: list[np.ndarray], tri) -> list[np.ndarray]:
    """Inverses of triangular blocks: one batched inversion per block size."""
    sizes, out = np.array([d.shape[0] for d in diag]), {}
    for w in np.unique(sizes).tolist():
        ks = np.flatnonzero(sizes == w).tolist()
        out.update(zip(ks, tri(np.linalg.inv(np.stack([diag[k] for k in ks])))))
    return [out[k] for k in range(len(diag))]


def lu_factorize(A: sp.spmatrix, partition: SupernodePartition) -> BlockSparseLU:
    """Supernodal LU of ``A`` over ``partition``, without pivoting: a
    structurally zero diagonal block, an exactly singular matrix and a zero
    pivot that only row pivoting avoids raise ``np.linalg.LinAlgError``."""
    A = sp.csc_matrix(A)
    if A.shape[0] != A.shape[1] or A.shape[0] != partition.n:
        raise ValueError("matrix/partition size mismatch")
    pattern = block_pattern(A, partition)
    try:
        slu = spla.splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                        options=dict(SymmetricMode=True))
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise np.linalg.LinAlgError(str(exc)) from None
    if (np.stack([slu.perm_r, slu.perm_c]) != np.arange(partition.n)).any():
        raise np.linalg.LinAlgError("zero pivot: SuperLU had to pivot rows")
    # Peak RSS, not speed, binds here (a process builds many factors):
    # SuperLU's own storage goes before the scatter, each copy after it.
    L, U = slu.L, slu.U
    del slu
    diagL, Lblocks = _scatter(L, pattern[0], partition, lower=True)
    del L
    U = U.tocsr()
    diagU, Ublocks = _scatter(U, pattern[1], partition, lower=False)
    del U
    diagLinv = triangular_inverses(diagL, np.tril)
    diagUinv = triangular_inverses(diagU, np.triu)
    return BlockSparseLU(partition, diagL, diagU, diagLinv, diagUinv,
                         Lblocks, Ublocks, *pattern)
