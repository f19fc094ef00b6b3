"""Collective operations built on the simulator's point-to-point layer.

Each collective is a generator meant to be driven with ``yield from`` inside
a rank function; ``members`` is the explicit participant list (the
sub-communicator), so arbitrary subsets of the 3D grid can synchronize —
this is how the per-grid and cross-grid communicators of the paper are
expressed without a full MPI communicator implementation.

All participating ranks must call the same collective with the same
``members`` and ``tag``.

Every collective accepts ``sync=``: a label naming the inter-grid
synchronization point its messages belong to in a profiled run
(``Simulator(metrics=...)``; see ``docs/OBSERVABILITY.md``).  The previous
label is restored on return, so scoping nests correctly.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.comm.simulator import RankCtx


def _binomial_peers(idx: int, size: int) -> tuple[int, list[int]]:
    """Binomial-tree parent and children for position ``idx`` of ``size``."""
    parent = -1
    children = []
    mask = 1
    while mask < size:
        if idx & mask:
            parent = idx & ~mask
            break
        mask <<= 1
    peer_mask = 1
    while peer_mask < size:
        if idx & (peer_mask - 1) == 0 and not idx & peer_mask:
            c = idx | peer_mask
            if c < size:
                children.append(c)
        peer_mask <<= 1
    return parent, children


def bcast(ctx: RankCtx, members: list[int], root: int, value: Any,
          tag: Any = "bcast", category: str = "comm",
          timeout: float | None = None, sync: str | None = None):
    """Broadcast ``value`` from ``root`` to all ``members``; returns it.

    ``timeout`` bounds each internal receive (virtual seconds); on expiry
    :class:`~repro.comm.faults.RecvTimeout` surfaces at the caller's
    ``yield from``, so lossy-fabric runs fail diagnosably instead of
    hanging the whole collective.
    """
    members = sorted(members)
    size = len(members)
    ridx = members.index(root)
    prev_sync = ctx.sync
    if sync is not None:
        ctx.set_sync(sync)
    # Rotate so the root is position 0 of the binomial tree.
    idx = (members.index(ctx.rank) - ridx) % size
    parent, children = _binomial_peers(idx, size)
    if parent >= 0:
        _, _, value = yield ctx.recv(src=members[(parent + ridx) % size],
                                     tag=tag, category=category,
                                     timeout=timeout)
    for c in children:
        yield ctx.send(members[(c + ridx) % size], value, tag=tag,
                       category=category)
    if sync is not None:
        ctx.set_sync(prev_sync)
    return value


def reduce(ctx: RankCtx, members: list[int], root: int, value: np.ndarray,
           op: Callable = np.add, tag: Any = "reduce",
           category: str = "comm", timeout: float | None = None,
           sync: str | None = None):
    """Reduce ``value`` over ``members`` onto ``root``.

    Returns the reduced array on the root, the (partially reduced) local
    value elsewhere.  ``timeout`` bounds each internal receive (see
    :func:`bcast`).
    """
    members = sorted(members)
    size = len(members)
    ridx = members.index(root)
    prev_sync = ctx.sync
    if sync is not None:
        ctx.set_sync(sync)
    idx = (members.index(ctx.rank) - ridx) % size
    parent, children = _binomial_peers(idx, size)
    acc = ctx.kernels.copy(value)
    # Receive from children in ascending order: smaller subtrees finish first.
    for c in children:
        _, _, v = yield ctx.recv(src=members[(c + ridx) % size], tag=tag,
                                 category=category, timeout=timeout)
        acc = ctx.kernels.combine(op, acc, v)
    if parent >= 0:
        yield ctx.send(members[(parent + ridx) % size], acc, tag=tag,
                       category=category)
    if sync is not None:
        ctx.set_sync(prev_sync)
    return acc


def allreduce(ctx: RankCtx, members: list[int], value: np.ndarray,
              op: Callable = np.add, tag: Any = "allreduce",
              category: str = "comm", timeout: float | None = None,
              sync: str | None = None):
    """Reduce-then-broadcast allreduce over ``members``; returns the sum.

    ``timeout`` bounds each internal receive (see :func:`bcast`).
    """
    members = sorted(members)
    root = members[0]
    acc = yield from reduce(ctx, members, root, value, op=op,
                            tag=(tag, "r"), category=category,
                            timeout=timeout, sync=sync)
    out = yield from bcast(ctx, members, root, acc, tag=(tag, "b"),
                           category=category, timeout=timeout, sync=sync)
    return out


def barrier(ctx: RankCtx, members: list[int], tag: Any = "barrier",
            category: str = "comm", timeout: float | None = None,
            sync: str | None = None):
    """Synchronize ``members``: nobody returns before everyone arrived.

    ``timeout`` bounds each internal receive (see :func:`bcast`).
    """
    token = np.zeros(1)
    yield from allreduce(ctx, members, token, tag=(tag, "bar"),
                         category=category, timeout=timeout, sync=sync)
