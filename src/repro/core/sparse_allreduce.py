"""Sparse inter-grid allreduce (the paper's Algorithm 2).

After the per-grid 2D L-solves, the partial solutions of every *replicated*
(ancestor) supernode must be summed across the grids sharing it.  A naive
per-node ``MPI_Allreduce`` costs a latency per elimination-tree node; the
sparse allreduce instead performs ``log2(Pz)`` pairwise exchange steps each
way — a hypercube reduce toward grid 0 followed by the mirrored broadcast —
with each rank packing all its supernode subvectors for a step into one
buffer.

Note on the paper's pseudocode: Algorithm 2 as printed sends from
``z % 2^(l+1) == 0`` during the reduce, but Fig. 3 (and the baseline's
"reduce to the smallest grid id" convention) show the accumulation flowing
*toward* the smaller grid; we follow the figure.
"""

from __future__ import annotations

import numpy as np

from repro.comm.simulator import RankCtx
from repro.grids.grid3d import Grid3D
from repro.ordering.layout import LayoutTree
from repro.symbolic.supernodes import SupernodePartition


def ancestor_supernodes(layout: LayoutTree, part: SupernodePartition,
                        z: int) -> list[list[int]]:
    """For each allreduce step ``l``, the supernodes exchanged by grid ``z``.

    Step ``l`` pairs grids differing in bit ``l`` and moves the nodes those
    two grids still share: the ancestors of the level-``(depth-l)`` node on
    ``z``'s path, i.e. ``path[l+1:]``.  The per-step lists are identical for
    both members of a pair, which keeps the exchange symmetric.
    """
    path = layout.path(z)
    out: list[list[int]] = []
    for l in range(layout.depth):
        sns: list[int] = []
        for node in path[l + 1:]:
            lo, hi = part.sn_range(node.first, node.last)
            sns.extend(range(lo, hi))
        out.append(sorted(sns))
    return out


def _my_sns(sns: list[int], grid: Grid3D, i: int, j: int) -> list[int]:
    """Supernodes in ``sns`` whose diagonal block lives at 2D coords (i, j)."""
    return [K for K in sns if K % grid.px == i and K % grid.py == j]


def sparse_allreduce(ctx: RankCtx, grid: Grid3D, layout: LayoutTree,
                     part: SupernodePartition, values: dict[int, np.ndarray],
                     category: str = "z"):
    """Sum ``values[K]`` across all grids replicating supernode ``K``.

    ``values`` holds the partial subvectors this rank diagonally owns; the
    entries for replicated supernodes are updated in place to the full sum.
    Every rank of every grid must call this (ranks with nothing to exchange
    at a step skip it — their partner skips symmetrically).
    """
    i, j, z = grid.coords_of(ctx.rank)
    depth = layout.depth
    if depth == 0:
        return
    steps = ancestor_supernodes(layout, part, z)
    my_steps = [_my_sns(sns, grid, i, j) for sns in steps]
    kz = ctx.kernels

    # The whole reduce+broadcast is ONE inter-grid synchronization point —
    # the quantity the paper's headline claim counts.
    ctx.set_sync("allreduce")

    # Sparse reduce: accumulate toward grid 0.
    for l in range(depth):
        ks = my_steps[l]
        if not ks:
            continue
        stride = 1 << l
        if z % (2 * stride) == stride:
            yield ctx.send(grid.zpeer(ctx.rank, z - stride),
                           kz.pack([values[K] for K in ks]),
                           tag=("sar", "r", l), category=category)
        elif z % (2 * stride) == 0:
            _, _, buf = yield ctx.recv(src=grid.zpeer(ctx.rank, z + stride),
                                       tag=("sar", "r", l), category=category)
            kz.unpack(buf, values, ks, part.size, add=True)

    # Sparse broadcast: mirrored, full sums flow back out.
    for l in range(depth - 1, -1, -1):
        ks = my_steps[l]
        if not ks:
            continue
        stride = 1 << l
        if z % (2 * stride) == 0:
            yield ctx.send(grid.zpeer(ctx.rank, z + stride),
                           kz.pack([values[K] for K in ks]),
                           tag=("sar", "b", l), category=category)
        elif z % (2 * stride) == stride:
            _, _, buf = yield ctx.recv(src=grid.zpeer(ctx.rank, z - stride),
                                       tag=("sar", "b", l), category=category)
            kz.unpack(buf, values, ks, part.size, add=False)

    ctx.set_sync("")


def structural_nonzeros(lu, grid_sns: list[list[int]],
                        sn_owner_grid: dict[int, int]) -> list[set[int]]:
    """Per grid, the supernodes whose L-solve partial can be nonzero.

    Grid ``z``'s right-hand side is zeroed everywhere except the supernodes
    it owns, so after the 2D L-solve its partial ``y^z[K]`` is exactly zero
    unless ``K`` is reachable from an owned supernode along L's block
    sparsity (``y = L^{-1} b`` propagates strictly forward over the edges
    ``K -> I`` with ``L(I, K) != 0``).  The reachable sets are the block
    analogue of SpComm3D's precomputed communication sparsity: both
    partners of an exchange derive them from the shared symbolic structure,
    so the filtered schedules agree without any extra negotiation.
    """
    out: list[set[int]] = []
    for z, sns in enumerate(grid_sns):
        seed = [K for K in sns if sn_owner_grid[K] == z]
        nz = set(seed)
        stack = list(seed)
        while stack:
            K = stack.pop()
            for I in lu.l_blockrows[K]:
                I = int(I)
                if I not in nz:
                    nz.add(I)
                    stack.append(I)
        out.append(nz)
    return out


def sparse_allreduce_v2(ctx: RankCtx, grid: Grid3D, layout: LayoutTree,
                        part: SupernodePartition,
                        values: dict[int, np.ndarray],
                        nz_sets: list[set[int]], category: str = "z"):
    """Structure-filtered variant of :func:`sparse_allreduce`.

    Identical hypercube schedule, but during the *reduce* sweep a sender
    only packs the supernodes whose accumulated partial is structurally
    nonzero — i.e. nonzero for at least one grid of the subcube it has
    already absorbed (``nz_sets`` from :func:`structural_nonzeros`).  A
    skipped supernode's contribution is exactly ``0.0``, so the receiver
    keeping its own partial is bit-identical to adding the zeros.  The
    broadcast sweep stays unfiltered: every grid needs the *full* sums.
    Both members of a pair filter by the same subcube union, so sends and
    receives stay paired and the exchange cannot deadlock.
    """
    i, j, z = grid.coords_of(ctx.rank)
    depth = layout.depth
    if depth == 0:
        return
    steps = ancestor_supernodes(layout, part, z)
    my_steps = [_my_sns(sns, grid, i, j) for sns in steps]
    kz = ctx.kernels

    def subcube_nz(z0: int, width: int) -> set[int]:
        return set().union(*(nz_sets[zz] for zz in range(z0, z0 + width)))

    ctx.set_sync("allreduce")

    # Filtered sparse reduce: accumulate toward grid 0, sending only the
    # structurally-nonzero subvector blocks of the sender's subcube.
    for l in range(depth):
        stride = 1 << l
        if z % (2 * stride) == stride:
            ks = [K for K in my_steps[l]
                  if K in subcube_nz(z, stride)]
            if ks:
                yield ctx.send(grid.zpeer(ctx.rank, z - stride),
                               kz.pack([values[K] for K in ks]),
                               tag=("sar2", "r", l), category=category)
        elif z % (2 * stride) == 0:
            ks = [K for K in my_steps[l]
                  if K in subcube_nz(z + stride, stride)]
            if ks:
                _, _, buf = yield ctx.recv(
                    src=grid.zpeer(ctx.rank, z + stride),
                    tag=("sar2", "r", l), category=category)
                kz.unpack(buf, values, ks, part.size, add=True)

    # Unfiltered mirrored broadcast: the full sums flow back out.
    for l in range(depth - 1, -1, -1):
        ks = my_steps[l]
        if not ks:
            continue
        stride = 1 << l
        if z % (2 * stride) == 0:
            yield ctx.send(grid.zpeer(ctx.rank, z + stride),
                           kz.pack([values[K] for K in ks]),
                           tag=("sar2", "b", l), category=category)
        elif z % (2 * stride) == stride:
            _, _, buf = yield ctx.recv(src=grid.zpeer(ctx.rank, z - stride),
                                       tag=("sar2", "b", l),
                                       category=category)
            kz.unpack(buf, values, ks, part.size, add=False)

    ctx.set_sync("")


def onesided_allreduce(ctx: RankCtx, grid: Grid3D, layout: LayoutTree,
                       part: SupernodePartition,
                       values: dict[int, np.ndarray],
                       category: str = "z"):
    """Put-based variant of :func:`sparse_allreduce` (one fence per solve).

    Every rank packs, per shared layout node, its partial subvectors into
    one buffer and *puts* it into the window of each peer grid sharing the
    node, under a key naming the (origin grid, node range) — so no two
    writes ever target the same key and the epoch is race-free by
    construction (:mod:`repro.analyze.rma` certifies this).  A single
    ``ctx.fence`` then delimits the epoch: afterwards each rank reads the
    peers' buffers from its own window and reduces locally with the
    balanced pairwise association of the hypercube, keeping the result
    bit-identical to :func:`sparse_allreduce` on every grid.

    Communication structure after Xie et al. (arXiv:2012.06959): GPU-style
    one-sided exchange needs exactly one synchronization per solve, the
    same count the paper's Algorithm 2 achieves with two-sided pairs.
    """
    i, j, z = grid.coords_of(ctx.rank)
    kz = ctx.kernels
    shares: list[tuple[int, int, list[int]]] = []
    for node in layout.nodes:
        nshare = node.grid_hi - node.grid_lo
        if nshare < 2 or not (node.grid_lo <= z < node.grid_hi):
            continue
        lo, hi = part.sn_range(node.first, node.last)
        ks = [K for K in range(lo, hi)
              if K % grid.px == i and K % grid.py == j]
        if ks:
            shares.append((node.grid_lo, node.grid_hi, ks))
    if not shares:
        # Still participate in the epoch: the fence is collective.
        yield ctx.fence(tag="allreduce", category=category)
        return

    # Like the two-sided variants, the whole exchange is ONE inter-grid
    # synchronization point (the puts carry the sync label; the fence is
    # the single barrier).
    ctx.set_sync("allreduce")
    for glo, ghi, ks in shares:
        buf = kz.pack([values[K] for K in ks])
        for z2 in range(glo, ghi):
            if z2 != z:
                yield ctx.put(grid.zpeer(ctx.rank, z2), ("osp", z, glo, ghi),
                              buf, category=category)
    yield ctx.fence(tag="allreduce", category=category)
    ctx.set_sync("")

    for glo, ghi, ks in shares:
        bufs: list[np.ndarray] = []
        for z2 in range(glo, ghi):
            if z2 == z:
                bufs.append(kz.pack([values[K] for K in ks]))
            else:
                buf = yield ctx.read(("osp", z2, glo, ghi),
                                     category=category)
                bufs.append(buf)
        # Balanced pairwise association: the hypercube's bytes on every grid.
        kz.unpack(kz.tree_sum(bufs), values, ks, part.size, add=False)


def naive_allreduce(ctx: RankCtx, grid: Grid3D, layout: LayoutTree,
                    part: SupernodePartition, values: dict[int, np.ndarray],
                    category: str = "z"):
    """The straw-man the paper argues against (§3.2): one ``MPI_Allreduce``
    per elimination-tree node over the grids sharing it.

    Functionally equivalent to :func:`sparse_allreduce` but pays a full
    reduce+broadcast latency per *node* instead of one packed pairwise
    exchange per *level* — the ablation benchmark quantifies the gap.
    """
    from repro.comm.collectives import allreduce

    i, j, z = grid.coords_of(ctx.rank)
    for node in layout.nodes:
        nshare = node.grid_hi - node.grid_lo
        if nshare < 2 or not (node.grid_lo <= z < node.grid_hi):
            continue
        lo, hi = part.sn_range(node.first, node.last)
        ks = [K for K in range(lo, hi)
              if K % grid.px == i and K % grid.py == j]
        if not ks:
            continue
        buf = ctx.kernels.pack([values[K] for K in ks])
        members = [grid.zpeer(ctx.rank, zz)
                   for zz in range(node.grid_lo, node.grid_hi)]
        # One rendezvous per tree node — the sync-point count the sparse
        # allreduce collapses to 1.
        out = yield from allreduce(ctx, members, buf,
                                   tag=("nar", node.heap_id),
                                   category=category,
                                   sync=f"node-{node.heap_id}")
        ctx.kernels.unpack(out, values, ks, part.size, add=False)
