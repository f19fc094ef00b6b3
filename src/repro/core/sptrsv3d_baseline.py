"""The baseline communication-avoiding 3D SpTRSV (Sao/Vuduc/Li, ICS 2019).

The algorithm walks the elimination tree level by level.  In the L phase
each active grid 2D-solves its current node's diagonal block, applies the
off-diagonal blocks to produce partial sums for ancestor rows, then a
pairwise inter-grid reduction merges those partials onto the grid with the
smallest id — the other grid idles for the rest of the L phase.  The U
phase mirrors it top-down: solved ancestor subvectors are handed to the
re-activating partner grid before it solves its own node.

This gives ``O(log Pz)`` inter-grid synchronizations and per-node
communication trees — the two costs the paper's proposed algorithm removes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.collectives import barrier
from repro.comm.simulator import RankCtx
from repro.core.plan2d import Plan2D, build_2d_plans, u_blockrows
from repro.grids.grid3d import BlockCyclicMap, Grid3D
from repro.core.sptrsv2d import sptrsv_2d
from repro.numfact.lu import BlockSparseLU
from repro.ordering.layout import LayoutTree
from repro.symbolic.supernodes import SupernodePartition


def _active_steps(z: int, depth: int) -> int:
    """Number of L steps grid ``z`` is active for: trailing zeros of z,
    capped at ``depth`` (grid 0 is active at every level)."""
    k = 0
    while k < depth and z % (1 << (k + 1)) == 0:
        k += 1
    return k


@dataclass
class Baseline3DSetup:
    """Per-grid, per-level plans of the baseline algorithm."""

    grid: Grid3D
    layout: LayoutTree
    part: SupernodePartition
    lu: BlockSparseLU
    # per grid z: list over active steps k of (node_sns, ancestor_sns, planL, planU)
    steps: list[list[tuple[list[int], list[int], Plan2D, Plan2D]]]
    sn_owner_grid: dict[int, int]


def build_baseline3d_setup(lu: BlockSparseLU, layout: LayoutTree,
                           grid: Grid3D,
                           tree_kind: str = "flat") -> Baseline3DSetup:
    """Build per-level plans.  The baseline defaults to flat communication
    (per the paper, integrating the tree optimization into the level-by-level
    structure is impractical); ``tree_kind="binary"`` remains available as an
    ablation knob."""
    part = lu.partition
    uadj = u_blockrows(lu)
    sn_owner_grid: dict[int, int] = {}
    for node in layout.nodes:
        lo, hi = part.sn_range(node.first, node.last)
        for K in range(lo, hi):
            sn_owner_grid[K] = node.owner_grid

    steps: list[list[tuple[list[int], list[int], Plan2D, Plan2D]]] = []
    for z in range(grid.pz):
        path = layout.path(z)
        kmax = _active_steps(z, layout.depth)
        zsteps = []
        for k in range(kmax + 1):
            node = path[k]
            lo, hi = part.sn_range(node.first, node.last)
            node_sns = list(range(lo, hi))
            anc_sns: list[int] = []
            for a in path[k + 1:]:
                alo, ahi = part.sn_range(a.first, a.last)
                anc_sns.extend(range(alo, ahi))
            anc_sns.sort()
            plan_l = build_2d_plans(
                lu, grid, z, "L", node_sns,
                update_set=node_sns + anc_sns, tree_kind=tree_kind)
            plan_u = build_2d_plans(
                lu, grid, z, "U", node_sns, ext_set=anc_sns,
                tree_kind=tree_kind, u_adj=uadj)
            zsteps.append((node_sns, anc_sns, plan_l, plan_u))
        steps.append(zsteps)
    return Baseline3DSetup(grid=grid, layout=layout, part=part, lu=lu,
                           steps=steps, sn_owner_grid=sn_owner_grid)


def _my_diag_sns(sns: list[int], grid: Grid3D, i: int, j: int) -> list[int]:
    return [K for K in sns if K % grid.px == i and K % grid.py == j]


def baseline3d_rank_fn(setup: Baseline3DSetup, b_perm: np.ndarray, nrhs: int,
                       level_sync: bool = True):
    """Build the simulator rank function for the baseline 3D algorithm.

    ``level_sync`` keeps the paper's characterization of the baseline:
    the grid pair exchanging data synchronizes at every elimination-tree
    level (``O(log Pz)`` synchronizations total); disable it for the
    ablation that isolates the synchronization cost.
    """
    grid = setup.grid
    part = setup.part
    depth = setup.layout.depth

    def rank_fn(ctx: RankCtx):
        i, j, z = grid.coords_of(ctx.rank)
        kz = ctx.kernels
        zsteps = setup.steps[z]
        kmax = len(zsteps) - 1

        # ---------------- L phase: leaf level upward -----------------------
        ctx.set_phase("l")
        ctx.mark("l_start")
        carry: dict[int, np.ndarray] = {}  # partial sums for ancestor rows
        y_all: dict[int, np.ndarray] = {}
        for k in range(kmax + 1):
            node_sns, anc_sns, plan_l, _ = zsteps[k]
            my_plan = plan_l.plan_of(ctx.rank)
            rhs = {}
            init = {}
            for K in my_plan.solve_cols:
                rhs[K] = kz.copy(b_perm[part.first(K):part.last(K)])
                if K in carry:
                    init[K] = carry.pop(K)
            y, out = yield from sptrsv_2d(ctx, plan_l, rhs, nrhs,
                                          initial_lsum=init,
                                          comm_category="xy",
                                          fp_category="fp",
                                          tag_salt=("bL", z, k))
            y_all.update(y)
            for I, v in out.items():
                carry[I] = kz.add(carry[I], v) if I in carry else v

            # Pairwise inter-grid reduction of the ancestor partial sums
            # onto the smaller grid id; the sender idles afterwards.
            if k < depth:
                # Each elimination-tree level is one inter-grid
                # synchronization point; its L-reduce half here and the
                # mirrored U-broadcast half below share the label, exactly
                # as the sparse allreduce's two halves count as one.
                ctx.set_sync(f"level-{k}")
                stride = 1 << k
                ks = _my_diag_sns(anc_sns, grid, i, j)
                if ks:
                    if z % (2 * stride) == stride:
                        buf = kz.pack([carry[K] if K in carry
                                       else kz.zeros(part.size(K), nrhs)
                                       for K in ks])
                        yield ctx.send(grid.zpeer(ctx.rank, z - stride), buf,
                                       tag=("bzl", k), category="z")
                    else:
                        _, _, buf = yield ctx.recv(
                            src=grid.zpeer(ctx.rank, z + stride),
                            tag=("bzl", k), category="z")
                        kz.unpack(buf, carry, ks, part.size, add=True)
                if level_sync:
                    # Per-level synchronization of the exchanging grid pair
                    # (the baseline's O(log Pz) sync structure).
                    pair_lo = z - (z % (2 * stride))
                    members = (grid.grid_ranks(pair_lo)
                               + grid.grid_ranks(pair_lo + stride))
                    yield from barrier(ctx, members,
                                       tag=("blbar", k, pair_lo),
                                       category="z", sync=f"level-{k}")
                ctx.set_sync("")
        ctx.mark("l_end")

        # ---------------- U phase: top level downward -----------------------
        ctx.set_phase("u")
        x_all: dict[int, np.ndarray] = {}
        x_known: dict[int, np.ndarray] = {}
        # Re-activation: receive solved ancestor subvectors from the partner.
        if z != 0:
            _, anc_sns, _, _ = zsteps[kmax]
            partner = z - (1 << kmax)
            ctx.set_sync(f"level-{kmax}")
            ks = _my_diag_sns(anc_sns, grid, i, j)
            if ks:
                _, _, buf = yield ctx.recv(
                    src=grid.zpeer(ctx.rank, partner),
                    tag=("bzu", kmax), category="z")
                kz.unpack(buf, x_known, ks, part.size, add=False)
            if level_sync:
                members = (grid.grid_ranks(partner) + grid.grid_ranks(z))
                yield from barrier(ctx, members, tag=("bubar", kmax, partner),
                                   category="z", sync=f"level-{kmax}")
            ctx.set_sync("")
        for k in range(kmax, -1, -1):
            node_sns, anc_sns, _, plan_u = zsteps[k]
            my_plan = plan_u.plan_of(ctx.rank)
            rhs = {K: y_all[K] for K in my_plan.solve_cols}
            ext = {J: x_known[J] for J in my_plan.ext_cols}
            x, _ = yield from sptrsv_2d(ctx, plan_u, rhs, nrhs,
                                        ext_values=ext,
                                        comm_category="xy",
                                        fp_category="fp",
                                        tag_salt=("bU", z, k))
            x_all.update(x)
            x_known.update(x)
            # Hand the solved path down to the grid activating at step k-1.
            if k >= 1:
                stride = 1 << (k - 1)
                peer_z = z + stride
                ctx.set_sync(f"level-{k - 1}")
                # Supernodes the partner needs: ancestors of its next node,
                # i.e. this node plus our ancestors.
                need = sorted(node_sns) + anc_sns
                ks = _my_diag_sns(need, grid, i, j)
                if ks:
                    buf = kz.pack([x_known[K] for K in ks])
                    yield ctx.send(grid.zpeer(ctx.rank, peer_z), buf,
                                   tag=("bzu", k - 1), category="z")
                if level_sync:
                    members = (grid.grid_ranks(z) + grid.grid_ranks(peer_z))
                    yield from barrier(ctx, members, tag=("bubar", k - 1, z),
                                       category="z", sync=f"level-{k - 1}")
                ctx.set_sync("")
        ctx.mark("u_end")
        return x_all

    return rank_fn


def collect_solution_baseline(setup: Baseline3DSetup, results: list, n: int,
                              nrhs: int) -> np.ndarray:
    """Assemble the permuted-order solution: each node was solved exactly
    once, on its owner grid."""
    cmap = BlockCyclicMap(setup.grid)
    x = np.empty((n, nrhs))
    for K in range(setup.part.nsup):
        z = setup.sn_owner_grid[K]
        r = cmap.diag_owner_rank(K, z)
        x[setup.part.first(K):setup.part.last(K)] = results[r][K]
    return x
