"""The proposed 3D SpTRSV algorithm (the paper's Algorithm 1).

Every grid ``z`` treats its leaf node plus *all* ancestors as one 2D
block-cyclic matrix ``L^z``/``U^z`` and runs plain 2D solves over it,
replicating the ancestor computation instead of synchronizing per tree
level.  The right-hand side entries of a replicated node are zeroed on
every grid except the smallest grid id sharing it, so the per-grid partial
solutions of the ancestors sum — linearly — to the true solution; the
single sparse allreduce between the L- and U-solves performs that sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.simulator import RankCtx
from repro.core.plan2d import Plan2D, build_2d_plans, u_blockrows
from repro.core.sptrsv2d import sptrsv_2d
from repro.grids.grid3d import BlockCyclicMap, Grid3D
from repro.numfact.lu import BlockSparseLU
from repro.ordering.layout import LayoutTree
from repro.symbolic.supernodes import SupernodePartition


@dataclass
class New3DSetup:
    """Precomputed per-grid plans for the proposed algorithm.

    Built once per (grid shape, tree kind); the plans play the role of the
    ``fmod`` arrays and communication trees SuperLU_DIST precomputes before
    its solve phase.
    """

    grid: Grid3D
    layout: LayoutTree
    part: SupernodePartition
    lu: BlockSparseLU
    plans_L: list[Plan2D]          # per grid z
    plans_U: list[Plan2D]
    grid_sns: list[list[int]]      # supernodes of grid z (leaf + ancestors)
    sn_owner_grid: dict[int, int]  # smallest grid id replicating a supernode


def grid_supernodes(layout: LayoutTree, part: SupernodePartition,
                    z: int) -> list[int]:
    """All supernodes grid ``z`` holds: its leaf node plus every ancestor."""
    sns: list[int] = []
    for node in layout.path(z):
        lo, hi = part.sn_range(node.first, node.last)
        sns.extend(range(lo, hi))
    return sorted(sns)


def build_new3d_setup(lu: BlockSparseLU, layout: LayoutTree, grid: Grid3D,
                      tree_kind: str = "binary") -> New3DSetup:
    """Build the per-grid L/U plans of the proposed 3D algorithm."""
    part = lu.partition
    uadj = u_blockrows(lu)
    plans_L, plans_U, grid_sns = [], [], []
    sn_owner_grid: dict[int, int] = {}
    for node in layout.nodes:
        lo, hi = part.sn_range(node.first, node.last)
        for K in range(lo, hi):
            sn_owner_grid[K] = node.owner_grid
    for z in range(grid.pz):
        sns = grid_supernodes(layout, part, z)
        sset = set(sns)
        # Ancestor-closure invariant: every block row of a grid's columns
        # lies inside the grid's supernode set (guaranteed by a valid ND
        # separator tree; a violation means the ordering is broken and the
        # distributed solve would silently drop blocks).
        for K in sns:
            for I in lu.l_blockrows[K]:
                if int(I) not in sset:
                    raise AssertionError(
                        f"grid {z}: block row {int(I)} of column {K} falls "
                        f"outside the grid's node path — the separator tree "
                        f"violates the ancestor-closure property")
        grid_sns.append(sns)
        plans_L.append(build_2d_plans(lu, grid, z, "L", sns,
                                      tree_kind=tree_kind))
        plans_U.append(build_2d_plans(lu, grid, z, "U", sns,
                                      tree_kind=tree_kind, u_adj=uadj))
    return New3DSetup(grid=grid, layout=layout, part=part, lu=lu,
                      plans_L=plans_L, plans_U=plans_U, grid_sns=grid_sns,
                      sn_owner_grid=sn_owner_grid)


def new3d_rank_fn(setup: New3DSetup, b_perm: np.ndarray, nrhs: int,
                  allreduce_impl: str = "sparse"):
    """Build the simulator rank function executing Algorithm 1.

    ``b_perm`` is the full RHS in the permuted ordering, shape ``(n, nrhs)``
    (the solve phase is what the paper times; RHS staging is preprocessing).
    Each rank returns its diagonally-owned solution subvectors.
    """
    # Imported here: the backend table imports this module's builders.
    from repro.core.backends import Z_REDUCTIONS

    grid = setup.grid
    part = setup.part
    reduce_z = Z_REDUCTIONS[allreduce_impl].make(setup)

    def rank_fn(ctx: RankCtx):
        _, _, z = grid.coords_of(ctx.rank)
        plan_L = setup.plans_L[z]
        plan_U = setup.plans_U[z]
        my_cols = plan_L.plan_of(ctx.rank).solve_cols
        kz = ctx.kernels

        # Form b^z: zero the replicated entries except on the owner grid
        # (Algorithm 1 lines 4-10).
        rhs: dict[int, np.ndarray] = {}
        for K in my_cols:
            c0, c1 = part.first(K), part.last(K)
            if setup.sn_owner_grid[K] == z:
                rhs[K] = kz.copy(b_perm[c0:c1])
            else:
                rhs[K] = kz.zeros(c1 - c0, nrhs)

        ctx.set_phase("l")
        ctx.mark("l_start")
        y, _ = yield from sptrsv_2d(ctx, plan_L, rhs, nrhs,
                                    comm_category="xy", fp_category="fp",
                                    tag_salt=("nL", z))
        ctx.mark("l_end")

        # Single inter-grid synchronization: the sparse allreduce
        # (or the naive per-node allreduce, kept for the ablation).
        # The allreduce labels itself via ctx.set_sync, so a profiled run
        # reports exactly one sync point here (MetricsRegistry.nsyncs == 1)
        # vs the baseline's ceil(log2(Pz)) "level-k" points.
        ctx.set_phase("z")
        yield from reduce_z(ctx, y)
        ctx.mark("z_end")

        ctx.set_phase("u")
        x, _ = yield from sptrsv_2d(ctx, plan_U, y, nrhs,
                                    comm_category="xy", fp_category="fp",
                                    tag_salt=("nU", z))
        ctx.mark("u_end")
        return x

    return rank_fn


def collect_solution(setup: New3DSetup, results: list, n: int,
                     nrhs: int) -> np.ndarray:
    """Assemble the global (permuted-order) solution from per-rank results.

    Each supernode's subvector is taken from its diagonal owner on the
    owner grid (the replicas on other grids are bitwise-identical after the
    U-solve, which the integration tests assert).
    """
    cmap = BlockCyclicMap(setup.grid)
    x = np.empty((n, nrhs))
    for K in range(setup.part.nsup):
        z = setup.sn_owner_grid[K]
        r = cmap.diag_owner_rank(K, z)
        x[setup.part.first(K):setup.part.last(K)] = results[r][K]
    return x
