"""Communication-avoiding block TRSM with selective inversion (``ca_trsm``).

An alternative solver backend in the spirit of Wicky & Solomonik's
communication-avoiding parallel TRSM (arXiv:1612.01855): instead of the
paper's 2D block-cyclic message-driven kernel, the whole 3D grid is
flattened into one 1D rank pool, supernode *columns* are distributed
block-cyclically over it, and the solve proceeds level set by level set
over the elimination DAG.  Two structural choices keep communication low:

- **Selective inversion.**  Every diagonal supernode block is applied as
  its precomputed inverse (``diagLinv`` / ``diagUinv`` from
  :class:`~repro.numfact.lu.BlockSparseLU`), so the per-level critical
  path is GEMM-only — no distributed triangular solves, no intra-block
  dependency chains.
- **Per-level message packing.**  Within a level, a rank computes every
  update its solved columns produce and sends **one** packed message per
  destination rank, instead of one message per block — O(P) messages per
  level in the worst case, independent of the block sparsity.

Contributions are buffered per (row, source column) and summed in
canonical source-column order before a row is solved, so multi-RHS
columns stay bit-identical to single-RHS solves (the same reproducibility
contract as :mod:`repro.core.sptrsv2d`).  All receives name their exact
source rank — the schedule has no wildcard to race on, which makes the
static analyzer's certification of this backend trivial.

Like every backend, ``ca_trsm`` runs as rank programs on the simulator
(:mod:`repro.comm.simulator`), so it inherits fault injection, metrics,
static schedule extraction and the α-β virtual clock unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.simulator import RankCtx
from repro.core.plan2d import u_blockrows
from repro.grids.grid3d import Grid3D
from repro.numfact.lu import BlockSparseLU


@dataclass
class CaTrsmSetup:
    """Precomputed level-set schedule of the communication-avoiding TRSM.

    ``levels_L`` / ``levels_U`` list the supernodes of each level (level 0
    has no unresolved dependencies).  ``senders_L`` / ``senders_U`` give,
    per level, the exact packed-message sources each rank must drain
    before advancing — the static receive schedule.
    """

    grid: Grid3D
    lu: BlockSparseLU
    u_adj: list[np.ndarray]             # consumer rows of each U column
    levels_L: list[list[int]]
    levels_U: list[list[int]]
    senders_L: list[dict[int, list[int]]]   # level -> {dest: [src, ...]}
    senders_U: list[dict[int, list[int]]]


def _level_sets(nsup: int, producers: list[list[int]],
                order: range) -> list[list[int]]:
    """Level of each supernode: 1 + max level of its producers.

    ``order`` must topologically sort the DAG (ascending for L, whose
    producers have smaller indices; descending for U).
    """
    level = [0] * nsup
    for K in order:
        deps = producers[K]
        if len(deps):
            level[K] = 1 + max(level[int(J)] for J in deps)
    out: list[list[int]] = [[] for _ in range(max(level, default=0) + 1)]
    for K in range(nsup):
        out[level[K]].append(K)
    return out if nsup else []


def _sender_schedule(levels: list[list[int]], adj, nranks: int
                     ) -> list[dict[int, list[int]]]:
    """Per level, the sorted packed-message sources of every destination."""
    out: list[dict[int, list[int]]] = []
    for sns in levels:
        pairs: set[tuple[int, int]] = set()
        for K in sns:
            s = K % nranks
            for I in adj[K]:
                d = int(I) % nranks
                if d != s:
                    pairs.add((d, s))
        sched: dict[int, list[int]] = {}
        for d, s in sorted(pairs):
            sched.setdefault(d, []).append(s)
        out.append(sched)
    return out


def build_ca_trsm_setup(lu: BlockSparseLU, grid: Grid3D) -> CaTrsmSetup:
    """Build the level-set schedule over the flattened rank pool."""
    nsup = lu.nsup
    P = grid.nranks
    u_adj = u_blockrows(lu)
    # Producers of an L column K are the columns J whose block row set
    # contains K; of a U column K, the columns J in u_blockcols[K].
    l_prod: list[list[int]] = [[] for _ in range(nsup)]
    for J in range(nsup):
        for I in lu.l_blockrows[J]:
            l_prod[int(I)].append(J)
    u_prod = [list(map(int, lu.u_blockcols[K])) for K in range(nsup)]
    levels_L = _level_sets(nsup, l_prod, range(nsup))
    levels_U = _level_sets(nsup, u_prod, range(nsup - 1, -1, -1))
    return CaTrsmSetup(
        grid=grid, lu=lu, u_adj=u_adj,
        levels_L=levels_L, levels_U=levels_U,
        senders_L=_sender_schedule(levels_L, lu.l_blockrows, P),
        senders_U=_sender_schedule(levels_U, u_adj, P))


def ca_trsm_rank_fn(setup: CaTrsmSetup, b_perm: np.ndarray, nrhs: int):
    """Build the simulator rank function of the level-set solve.

    Each rank returns ``{K: x_K}`` for the supernode columns it owns
    (1D block-cyclic: owner of ``K`` is ``K % nranks``).
    """
    lu = setup.lu
    part = lu.partition
    P = setup.grid.nranks

    def rank_fn(ctx: RankCtx):
        r = ctx.rank
        kz = ctx.kernels
        mine = [K for K in range(lu.nsup) if K % P == r]
        rhs = {K: kz.copy(b_perm[part.first(K):part.last(K)])
               for K in mine}
        # Buffered contributions: row -> {source column -> partial};
        # materialized in canonical source order, never arrival order.
        contribs: dict[int, dict[int, np.ndarray]] = {}

        def add_contrib(I: int, K: int, arr: np.ndarray) -> None:
            c = contribs.setdefault(I, {})
            c[K] = kz.add(c[K], arr) if K in c else arr

        def materialize(I: int) -> np.ndarray:
            return kz.accumulate(part.size(I), nrhs, contribs.pop(I, None))

        def run_phase(levels, senders, adj, blocks, diag_inv, rhs_in, tagp):
            """One triangular sweep; returns the solved owned subvectors."""
            values: dict[int, np.ndarray] = {}
            for lev, sns in enumerate(levels):
                outgoing: dict[int, list] = {}
                for K in sns:
                    if K % P != r:
                        continue
                    w = part.size(K)
                    yield ctx.gemm(w, nrhs, w, category="fp")
                    val = kz.gemm(diag_inv[K],
                                  kz.sub(rhs_in[K], materialize(K)))
                    values[K] = val
                    for I in adj[K]:
                        I = int(I)
                        blk = blocks[(I, K)]
                        m, k = blk.shape
                        yield ctx.gemm(m, nrhs, k, category="fp")
                        upd = kz.gemm(blk, val)
                        if I % P == r:
                            add_contrib(I, K, upd)
                        else:
                            outgoing.setdefault(I % P, []).append((I, K, upd))
                for d in sorted(outgoing):
                    yield ctx.send(d, outgoing[d], tag=(tagp, lev),
                                   category="xy")
                for s in senders[lev].get(r, ()):
                    _, _, packed = yield ctx.recv(src=s, tag=(tagp, lev),
                                                  category="xy")
                    for (I, K, upd) in packed:
                        add_contrib(I, K, upd)
            return values

        ctx.set_phase("l")
        ctx.mark("l_start")
        y = yield from run_phase(setup.levels_L, setup.senders_L,
                                 lu.l_blockrows, lu.Lblocks, lu.diagLinv,
                                 rhs, "caL")
        ctx.mark("l_end")
        ctx.set_phase("u")
        x = yield from run_phase(setup.levels_U, setup.senders_U,
                                 setup.u_adj, lu.Ublocks, lu.diagUinv,
                                 y, "caU")
        ctx.mark("u_end")
        return x

    return rank_fn


def collect_solution_ca(setup: CaTrsmSetup, results: list, n: int,
                        nrhs: int) -> np.ndarray:
    """Assemble the permuted-order solution from per-rank results."""
    part = setup.lu.partition
    P = setup.grid.nranks
    x = np.empty((n, nrhs))
    for K in range(part.nsup):
        x[part.first(K):part.last(K)] = results[K % P][K]
    return x
