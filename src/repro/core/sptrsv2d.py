"""Message-driven 2D SpTRSV kernel (the paper's Algorithm 3, generalized).

One generator runs per rank inside the simulator.  The kernel is fully
message-driven: after seeding the dependency-free supernodes, each rank
loops over a precomputed number of expected messages
(``MPI_Recv(MPI_ANY_SOURCE)`` in the paper), forwarding broadcast values
down the column trees, accumulating ``lsum`` partial sums, reducing them up
the row trees, and solving a supernode the moment its dependencies are met.

The same kernel executes L-solves and U-solves (the plan encodes the
direction) and the baseline algorithm's per-node restricted solves
(``ext_cols`` producers and exported ``out_rows``).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.comm.simulator import ANY, RankCtx
from repro.core.plan2d import Plan2D


def sptrsv_2d(ctx: RankCtx, plan2d: Plan2D, rhs: dict[int, np.ndarray],
              nrhs: int, ext_values: dict[int, np.ndarray] | None = None,
              initial_lsum: dict[int, np.ndarray] | None = None,
              comm_category: str = "xy", fp_category: str = "fp",
              tag_salt: object = None):
    """Run one 2D triangular solve on the calling rank.

    - ``rhs[K]``: ``(size(K), nrhs)`` right-hand side at K's diagonal owner,
      for every K in this rank's ``solve_cols``.
    - ``ext_values[J]``: known producer values at J's diagonal owner.
    - ``initial_lsum[I]``: partial sums carried in from earlier solves
      (baseline levels), at I's diagonal owner.
    - ``tag_salt`` disambiguates messages when several kernel instances
      overlap in one simulation phase.

    Returns ``(values, out_lsum)``: solved subvectors for this rank's
    ``solve_cols`` and exported partial sums for its ``out_rows``.
    """
    plan = plan2d.plan_of(ctx.rank)
    size = plan2d.sn_size
    diag_inv = plan2d.diag_inv
    my_solve = set(plan.solve_cols)
    rank = ctx.rank
    kz = ctx.kernels

    # Partial sums are buffered per contribution and summed in canonical
    # key order (``kernels.accumulate``), NOT in message-arrival order.
    # Keys: (0, 0) carried-in lsum, (1, J) local block of column J,
    # (2, src) reduce-tree partial from rank ``src``.
    contribs: dict[int, dict[tuple[int, int], np.ndarray]] = {}

    def add_contrib(I: int, key: tuple[int, int], arr: np.ndarray) -> None:
        c = contribs.setdefault(I, {})
        c[key] = kz.add(c[key], arr) if key in c else arr

    def materialize(I: int) -> np.ndarray:
        """Sum of row I's contributions, in canonical key order."""
        return kz.accumulate(size(I), nrhs, contribs.pop(I, None))

    if initial_lsum:
        for I, v in initial_lsum.items():
            add_contrib(I, (0, 0), v)

    fmod = dict(plan.fmod0)
    frecv = dict(plan.frecv0)
    values: dict[int, np.ndarray] = {}
    work: deque = deque()

    def row_ready(I: int) -> bool:
        return fmod.get(I, 0) == 0 and frecv.get(I, 0) == 0

    def drain():
        """Process queued work items until none remain (no recursion)."""
        while work:
            item = work.popleft()
            kind = item[0]
            if kind == "solve":
                K = item[1]
                w = size(K)
                yield ctx.gemm(w, nrhs, w, category=fp_category)
                val = kz.gemm(diag_inv[K], kz.sub(rhs[K], materialize(K)))
                values[K] = val
                work.append(("emit", K, val))
            elif kind == "emit":
                J, val = item[1], item[2]
                tree = plan.bcast_trees.get(J)
                if tree is not None:
                    for c in tree.children(rank):
                        yield ctx.send(c, val, tag=("bc", J, tag_salt),
                                       category=comm_category)
                for I, blk in plan.consumer_blocks.get(J, ()):
                    m, k = blk.shape
                    yield ctx.gemm(m, nrhs, k, category=fp_category)
                    add_contrib(I, (1, J), kz.gemm(blk, val))
                    fmod[I] -= 1
                    if row_ready(I):
                        work.append(("rowdone", I))
            elif kind == "rowdone":
                I = item[1]
                tree = plan.red_trees.get(I)
                if tree is None or tree.root == rank:
                    if I in my_solve:
                        work.append(("solve", I))
                    # else: exported out_row, value stays in lsum
                else:
                    yield ctx.send(tree.parent(rank), materialize(I),
                                   tag=("rd", I, tag_salt),
                                   category=comm_category)

    # Seed: external producers first, then dependency-free solve columns.
    for J in plan.ext_cols:
        work.append(("emit", J, ext_values[J]))
    for K in plan.solve_cols:
        if row_ready(K):
            work.append(("solve", K))
    yield from drain()

    def my_tag(t) -> bool:
        return (isinstance(t, tuple) and len(t) == 3 and t[2] == tag_salt
                and t[0] in ("bc", "rd"))

    for _ in range(plan.nrecv):
        src, tag, payload = yield ctx.recv(src=ANY, tag=my_tag,
                                           category=comm_category)
        kind, key, _salt = tag
        if kind == "bc":
            work.append(("emit", key, payload))
        elif kind == "rd":
            add_contrib(key, (2, src), payload)
            frecv[key] -= 1
            if row_ready(key):
                work.append(("rowdone", key))
        else:  # pragma: no cover - protocol violation
            raise RuntimeError(f"unexpected message tag {tag!r}")
        yield from drain()

    missing = my_solve - set(values)
    if missing:  # pragma: no cover - indicates a plan bug
        raise RuntimeError(
            f"rank {rank}: solve incomplete, missing {sorted(missing)[:5]}")
    return values, {I: materialize(I) for I in plan.out_rows}
