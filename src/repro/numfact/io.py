"""Serialization of factorizations: save once, solve in later sessions.

A :class:`BlockSparseLU` serializes to a single ``.npz`` with the partition,
the block index arrays and the packed block data.  Factorization is the
expensive preprocessing step of the paper's workflow ("most of the time is
spent in symbolic and numeric LU factorization before calling SpTRSV"), so
persisting it is the natural library feature.
"""

from __future__ import annotations

import numpy as np

from repro.numfact.lu import BlockSparseLU, triangular_inverses
from repro.symbolic.supernodes import SupernodePartition


def _pack(blocks: dict[tuple[int, int], np.ndarray]):
    keys = sorted(blocks)
    idx = np.array(keys, dtype=np.int64).reshape(len(keys), 2)
    data = np.concatenate([blocks[k].ravel() for k in keys]) \
        if keys else np.empty(0)
    return idx, data


def _unpack(idx: np.ndarray, data: np.ndarray, part: SupernodePartition):
    blocks: dict[tuple[int, int], np.ndarray] = {}
    ofs = 0
    for I, K in idx:
        I, K = int(I), int(K)
        m, n = part.size(I), part.size(K)
        blocks[(I, K)] = data[ofs:ofs + m * n].reshape(m, n)
        ofs += m * n
    return blocks


def _adjacency(idx: np.ndarray, by: int, nsup: int) -> list[np.ndarray]:
    """Per supernode ``k``, the other coordinate of the keys whose column
    ``by`` is ``k``, ascending (``idx`` is sorted, as :func:`_pack` wrote)."""
    order = np.argsort(idx[:, by], kind="stable")
    cuts = np.searchsorted(idx[order, by], np.arange(1, nsup))
    return np.split(idx[order, 1 - by], cuts)


def save_factors(path: str, lu: BlockSparseLU) -> None:
    """Write a factorization to ``path`` (.npz)."""
    lidx, ldata = _pack(lu.Lblocks)
    uidx, udata = _pack(lu.Ublocks)
    np.savez_compressed(
        path,
        sn_start=lu.partition.sn_start,
        l_idx=lidx, l_data=ldata,
        u_idx=uidx, u_data=udata,
        diagL=np.concatenate([d.ravel() for d in lu.diagL]),
        diagU=np.concatenate([d.ravel() for d in lu.diagU]),
    )


def load_factors(path: str) -> BlockSparseLU:
    """Read a factorization written by :func:`save_factors`.

    Diagonal inverses are recomputed on load (they are derived data), the
    way :func:`~repro.numfact.lu.lu_factorize` computes them.
    """
    with np.load(path) as z:
        part = SupernodePartition(z["sn_start"])
        lidx, uidx = z["l_idx"], z["u_idx"]
        Lblocks = _unpack(lidx, z["l_data"], part)
        Ublocks = _unpack(uidx, z["u_data"], part)
        diagL, diagU = [], []
        ofs = 0
        dl, du = z["diagL"], z["diagU"]
        for s in range(part.nsup):
            w = part.size(s)
            diagL.append(dl[ofs:ofs + w * w].reshape(w, w))
            diagU.append(du[ofs:ofs + w * w].reshape(w, w))
            ofs += w * w

    return BlockSparseLU(
        partition=part, diagL=diagL, diagU=diagU,
        diagLinv=triangular_inverses(diagL, np.tril),
        diagUinv=triangular_inverses(diagU, np.triu),
        Lblocks=Lblocks, Ublocks=Ublocks,
        l_blockrows=_adjacency(lidx, 1, part.nsup),
        u_blockcols=_adjacency(uidx, 0, part.nsup),
    )
