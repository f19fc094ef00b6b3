"""Zero-cost symbolic schedule extraction.

Runs real rank programs — the same generator-coroutine protocol the
simulator drives (:mod:`repro.comm.simulator`) — under an *untimed* causal
executor and records every send/recv as a
:class:`~repro.analyze.schedule.Schedule` event.  No cost model is
consulted: compute ops are discarded, the stub machine prices every
operation at zero seconds, and delivery follows causal send order instead
of arrival times.  Payloads are real (zero-filled) arrays so the kernels'
shape logic runs unchanged, but only ``(tag, nbytes)`` summaries are kept.

The point: anything proved about the extracted schedule (deadlock
freedom, match determinism, sync counts — see
:mod:`repro.analyze.verify`) holds for the *communication structure*, not
for one timed execution.  The extractor resolves wildcard receives in one
particular causal order; the verifier's race detector is what certifies
that every other causal order matches the same send sets.

Two send semantics are supported:

- eager (default): sends buffer immediately, matching the runtime's
  ``MPI_Isend`` model — a send can never block.
- ``rendezvous=True``: sends block until a matching receive is posted
  (synchronous ``MPI_Ssend``).  A schedule that is deadlock-free under
  rendezvous is safe for *any* MPI eager threshold; this is how the
  classic send/send deadlock is surfaced statically.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable

import numpy as np

from repro.comm.simulator import (
    ANY,
    RankCtx,
    RMAError,
    _ComputeOp,
    _FenceOp,
    _FlushOp,
    _PutOp,
    _ReadOp,
    _RecvOp,
    _SendOp,
)
from repro.analyze.schedule import (
    FenceEvent,
    FlushEvent,
    PutEvent,
    ReadEvent,
    RecvEvent,
    Schedule,
    SendEvent,
)
from repro.core.backends import Z_REDUCTIONS, resolve


class ExtractionLimit(RuntimeError):
    """Extraction exceeded ``max_events`` (runaway program, not deadlock)."""


class _ZeroCPU:
    def op_time(self, flops: float, nbytes: float) -> float:
        return 0.0


class _ZeroNet:
    send_overhead = 0.0
    recv_overhead = 0.0
    alpha_intra = 0.0
    alpha_inter = 0.0

    def latency(self, nbytes: float, same_node: bool) -> float:
        return 0.0


class _SymbolicMachine:
    """Machine stub pricing every operation at zero virtual seconds."""

    name = "symbolic"
    cpu = _ZeroCPU()
    net = _ZeroNet()
    gpu = None

    def same_node(self, a: int, b: int) -> bool:
        return True


SYMBOLIC_MACHINE = _SymbolicMachine()

_READY, _RECV, _SENDB, _DONE, _FENCEX = 0, 1, 2, 3, 4


def _op_matches(op: _RecvOp, sev: SendEvent) -> bool:
    """The recv op's spec against a recorded send (simulator semantics)."""
    if op.src is not ANY and int(op.src) != sev.rank:
        return False
    if op.tag is ANY:
        return True
    if callable(op.tag):
        return bool(op.tag(sev.tag))
    return sev.tag == op.tag


def extract_schedule(nranks: int, rank_fn: Callable[[RankCtx], Iterable],
                     rendezvous: bool = False,
                     max_events: int = 5_000_000,
                     name: str = "") -> Schedule:
    """Extract the communication schedule of ``rank_fn`` over ``nranks``.

    ``rank_fn`` is exactly what ``Simulator.run`` accepts.  The executor
    drives every runnable rank round-robin; when all ranks are blocked it
    delivers the earliest-sent matching message (eager mode) or completes
    the earliest-blocked matching rendezvous pair.  A state where no rank
    can move does NOT raise — it is recorded on the returned schedule
    (``complete=False`` plus the blocked positions), so the verifier can
    produce a deadlock witness instead of a stack trace.
    """
    n = nranks
    ctxs = [RankCtx(r, n, SYMBOLIC_MACHINE) for r in range(n)]
    gens: list = []
    for r in range(n):
        g = rank_fn(ctxs[r])
        gens.append(g if hasattr(g, "send") else iter(()))

    events: list[list[SendEvent | RecvEvent]] = [[] for _ in range(n)]
    # Undelivered eager messages per destination, in global send order.
    mail: list[list[tuple[SendEvent, object]]] = [[] for _ in range(n)]
    state = [_READY] * n
    pend: list = [None] * n   # (_RecvOp, RecvEvent) or (_SendOp, SendEvent, payload)
    started = [False] * n
    # Per-rank compute segment since the last comm event: [flops, bytes,
    # nops].  Flushed onto the next Send/RecvEvent's pre_* fields, so the
    # schedule carries enough compute structure for static pricing
    # (repro.planner) without timing anything here.
    seg: list[list] = [[0.0, 0.0, 0] for _ in range(n)]
    gstep = 0
    nops = 0
    # One-sided state: per-rank windows and the global issued-but-unapplied
    # write list (gidx, origin, dst, key, payload) — applied at the origin's
    # flush or at the collective fence, mirroring the simulator.
    windows: list[dict] = [{} for _ in range(n)]
    rma_pending: list[tuple] = []

    def apply_rma(writes: list[tuple]) -> None:
        for _gidx, _origin, dst, key, payload in sorted(writes):
            windows[dst][key] = payload

    def run_rank(r: int, value) -> None:
        """Advance rank r until it blocks or finishes (mirrors the
        simulator's ``advance``, minus clocks and faults)."""
        nonlocal gstep, nops
        ctx = ctxs[r]
        gen = gens[r]
        while True:
            nops += 1
            if nops > max_events:
                raise ExtractionLimit(
                    f"schedule extraction exceeded {max_events} operations")
            try:
                if not started[r]:
                    started[r] = True
                    op = next(gen)
                else:
                    op = gen.send(value)
            except StopIteration:
                state[r] = _DONE
                pend[r] = None
                return
            value = None
            if isinstance(op, _SendOp):
                fl, nb, no = seg[r]
                seg[r] = [0.0, 0.0, 0]
                ev = SendEvent(r, len(events[r]), gstep, op.dst, op.tag,
                               op.nbytes, ctx.phase, ctx.sync, op.category,
                               pre_flops=fl, pre_bytes=nb, pre_ops=no)
                gstep += 1
                events[r].append(ev)
                if rendezvous:
                    state[r] = _SENDB
                    pend[r] = (op, ev, op.payload)
                    return
                mail[op.dst].append((ev, op.payload))
            elif isinstance(op, _RecvOp):
                fl, nb, no = seg[r]
                seg[r] = [0.0, 0.0, 0]
                ev = RecvEvent(r, len(events[r]), gstep, op.src, op.tag,
                               ctx.phase, ctx.sync, op.category,
                               pre_flops=fl, pre_bytes=nb, pre_ops=no)
                gstep += 1
                events[r].append(ev)
                state[r] = _RECV
                pend[r] = (op, ev)
                return
            elif isinstance(op, _ComputeOp):
                # Zero-cost: compute never appears in the schedule, but
                # its flop/byte annotations accumulate into the segment.
                seg[r][0] += op.flops
                seg[r][1] += op.nbytes
                seg[r][2] += 1
            elif isinstance(op, _PutOp):
                fl, nb, no = seg[r]
                seg[r] = [0.0, 0.0, 0]
                ev = PutEvent(r, len(events[r]), gstep, op.dst, op.key,
                              op.nbytes, ctx.phase, ctx.sync, op.category,
                              pre_flops=fl, pre_bytes=nb, pre_ops=no)
                gstep += 1
                events[r].append(ev)
                rma_pending.append((ev.gidx, r, op.dst, op.key, op.payload))
            elif isinstance(op, _FlushOp):
                fl, nb, no = seg[r]
                seg[r] = [0.0, 0.0, 0]
                ev = FlushEvent(r, len(events[r]), gstep, op.dst,
                                ctx.phase, ctx.sync, op.category,
                                pre_flops=fl, pre_bytes=nb, pre_ops=no)
                gstep += 1
                events[r].append(ev)
                mine = [w for w in rma_pending
                        if w[1] == r and (op.dst is None or w[2] == op.dst)]
                for w in mine:
                    rma_pending.remove(w)
                apply_rma(mine)
            elif isinstance(op, _FenceOp):
                fl, nb, no = seg[r]
                seg[r] = [0.0, 0.0, 0]
                ev = FenceEvent(r, len(events[r]), gstep, op.tag,
                                ctx.phase, ctx.sync, op.category,
                                pre_flops=fl, pre_bytes=nb, pre_ops=no)
                gstep += 1
                events[r].append(ev)
                state[r] = _FENCEX
                pend[r] = (op, ev)
                return
            elif isinstance(op, _ReadOp):
                fl, nb, no = seg[r]
                seg[r] = [0.0, 0.0, 0]
                ev = ReadEvent(r, len(events[r]), gstep, op.key,
                               ctx.phase, ctx.sync, op.category,
                               pre_flops=fl, pre_bytes=nb, pre_ops=no)
                gstep += 1
                events[r].append(ev)
                if op.key not in windows[r]:
                    raise RMAError(
                        f"extraction: rank {r} read window key {op.key!r} "
                        f"before any put to it was applied (missing "
                        f"flush/fence?)")
                value = windows[r][op.key]
            else:
                raise TypeError(
                    f"rank {r} yielded {op!r}; yield "
                    f"ctx.send/recv/compute/put/flush/fence/read")

    while True:
        progressed = False
        for r in range(n):
            if state[r] == _READY:
                run_rank(r, None)
                progressed = True
        if progressed:
            continue
        # Everyone is blocked or done: deliver messages / complete pairs.
        delivered = False
        for r in range(n):
            if state[r] != _RECV:
                continue
            op, ev = pend[r]
            best = None
            for i, (sev, _payload) in enumerate(mail[r]):
                if _op_matches(op, sev):
                    best = i   # FIFO == earliest global send order
                    break
            if best is not None:
                sev, payload = mail[r].pop(best)
                ev.match = (sev.rank, sev.pos)
                ev.matched_tag = sev.tag
                state[r] = _READY
                run_rank(r, (sev.rank, sev.tag, payload))
                delivered = True
                continue
            if rendezvous:
                cands = [(pend[s][1].gidx, s) for s in range(n)
                         if state[s] == _SENDB and pend[s][0].dst == r
                         and _op_matches(op, pend[s][1])]
                if cands:
                    _, s = min(cands)
                    sop, sev, payload = pend[s]
                    ev.match = (sev.rank, sev.pos)
                    ev.matched_tag = sev.tag
                    state[s] = _READY
                    pend[s] = None
                    state[r] = _READY
                    run_rank(r, (sev.rank, sev.tag, payload))
                    run_rank(s, None)
                    delivered = True
        if delivered:
            continue
        # Fence quorum (mirrors the simulator): the collective epoch
        # boundary completes only when every live rank is parked at its
        # fence — then all pending writes are applied and everyone resumes.
        fencing = [r for r in range(n) if state[r] == _FENCEX]
        if fencing and all(state[r] in (_FENCEX, _DONE) for r in range(n)):
            writes = list(rma_pending)
            rma_pending.clear()
            apply_rma(writes)
            for r in fencing:
                state[r] = _READY
                pend[r] = None
            continue
        break

    blocked_recvs = [(r, pend[r][1].pos) for r in range(n)
                     if state[r] == _RECV]
    blocked_sends = [(r, pend[r][1].pos) for r in range(n)
                     if state[r] == _SENDB]
    blocked_fences = [(r, pend[r][1].pos) for r in range(n)
                      if state[r] == _FENCEX]
    return Schedule(nranks=n, events=events,
                    complete=all(s == _DONE for s in state),
                    blocked_recvs=blocked_recvs,
                    blocked_sends=blocked_sends,
                    blocked_fences=blocked_fences,
                    rendezvous=rendezvous, name=name,
                    compute_tails=[(s[0], s[1], s[2]) for s in seg])


# -- solver targets ----------------------------------------------------------


class ScheduleDerivationError(RuntimeError):
    """Two extracted widths do not determine a third exactly: the event
    skeleton moved with ``nrhs``, or a size is not integer-affine in it."""


_AFFINE = frozenset(("nbytes", "pre_flops", "pre_bytes", "pre_ops"))


def _affine(a, b, w1: int, w2: int, w: int):
    """The value at ``w`` on the line through ``(w1, a)`` and ``(w2, b)``,
    in integer arithmetic; raises unless that is exact."""
    if a == b:
        return a
    ia, ib = int(a), int(b)
    q, rem = divmod((w - w1) * (ib - ia), w2 - w1)
    if rem or ia != a or ib != b:
        raise ScheduleDerivationError(
            f"{a!r} at nrhs={w1} and {b!r} at nrhs={w2} give no exact "
            f"integer at nrhs={w}")
    return type(a)(ia + q)


def derive_schedule(widths: dict[int, Schedule], nrhs: int,
                    name: str = "") -> Schedule:
    """The schedule at ``nrhs`` from two extracted at other widths.

    Extraction is untimed and no rank program branches on ``nrhs``, so
    everything but the sizes (``nbytes``, ``pre_*``, ``compute_tails``) is
    width-independent and the sizes are integers affine in ``nrhs``.  Both
    are checked event by event and a breach raises — nothing is
    re-extracted.  Predicate tags are the first width's closures."""
    (w1, s1), (w2, s2) = widths.items()

    def moved(x: str, y: str) -> ScheduleDerivationError:
        return ScheduleDerivationError(
            f"event skeleton depends on nrhs: {x} at nrhs={w1} vs {y} at "
            f"nrhs={w2}")

    def shape(s: Schedule):
        return (s.nranks, s.complete, s.blocked_recvs, s.blocked_sends,
                s.blocked_fences, s.rendezvous, len(s.compute_tails),
                [[type(e) for e in evs] for evs in s.events])

    if shape(s1) != shape(s2):
        raise moved(s1.summary(), s2.summary())
    events = []
    for evs1, evs2 in zip(s1.events, s2.events):
        out = []
        for a, b in zip(evs1, evs2):
            fields, other = dict(vars(a)), vars(b)
            for k, va in fields.items():
                vb = other[k]
                if k in _AFFINE:
                    fields[k] = _affine(va, vb, w1, w2, nrhs)
                elif va != vb and not (callable(va) and callable(vb)):
                    raise moved(f"{a.describe()} with {k}={va!r}",
                                f"{b.describe()} with {k}={vb!r}")
            out.append(type(a)(**fields))
        events.append(out)
    tails = [tuple(_affine(x, y, w1, w2, nrhs) for x, y in zip(t1, t2))
             for t1, t2 in zip(s1.compute_tails, s2.compute_tails)]
    return dataclasses.replace(s1, events=events, compute_tails=tails,
                               name=name)


def solver_schedule(solver, algorithm: str = "new3d", nrhs: int = 1,
                    tree_kind: str | None = None,
                    allreduce_impl: str = "sparse",
                    baseline_level_sync: bool = True,
                    rendezvous: bool = False) -> Schedule:
    """The CPU solve schedule of a factored
    :class:`~repro.core.solver.SpTRSVSolver` — same backend resolution as
    ``SpTRSVSolver.solve``, zero right-hand side, no cost model.

    Schedules are structure-only, so the solver keeps them: per resolved
    backend and ``rendezvous`` the first two widths asked for are extracted
    and retained, every further width is derived from those two exactly
    (:func:`derive_schedule`) and not retained.  Callers share the returned
    object: it is read-only."""
    run = resolve(algorithm, solver.grid, tree_kind, allreduce_impl,
                  baseline_level_sync)
    grid = solver.grid
    label = f"{run.name}[{run.z.name}]" if run.z else run.name
    name = f"{label} px={grid.px} py={grid.py} pz={grid.pz} nrhs={nrhs}"
    widths = solver.__dict__.setdefault("_schedules", {}).setdefault(
        (run, rendezvous), {})
    if nrhs not in widths:
        if len(widths) == 2:
            return derive_schedule(widths, nrhs, name)
        rank_fn = run.rank_fn(solver.setup(run.impl, run.tree_kind),
                              np.zeros((solver.n, nrhs)), nrhs)
        widths[nrhs] = extract_schedule(grid.nranks, rank_fn,
                                        rendezvous=rendezvous, name=name)
    return widths[nrhs]


def _z_phase_schedule(setup, nrhs: int, impl: str, name: str,
                      rendezvous: bool = False) -> Schedule:
    """The inter-grid reduction alone: every rank contributes zero-filled
    subvectors for its diagonally-owned supernodes, exactly as the solve's
    Z phase does."""
    grid, part = setup.grid, setup.part
    reduce_z = Z_REDUCTIONS[impl].make(setup)

    def rank_fn(ctx: RankCtx):
        _, _, z = grid.coords_of(ctx.rank)
        cols = setup.plans_L[z].plan_of(ctx.rank).solve_cols
        values = {K: np.zeros((part.size(K), nrhs)) for K in cols}
        ctx.set_phase("z")
        yield from reduce_z(ctx, values)

    return extract_schedule(
        grid.nranks, rank_fn, rendezvous=rendezvous,
        name=f"{name} px={grid.px} py={grid.py} pz={grid.pz}")


def allreduce_schedule(solver, nrhs: int = 1, impl: str = "sparse",
                       rendezvous: bool = False) -> Schedule:
    """Extract the standalone inter-grid allreduce schedule (Algorithm 2)."""
    return _z_phase_schedule(solver.setup("new3d", "auto"), nrhs, impl,
                             f"{impl}_allreduce", rendezvous)


def _plan_bcast_schedule(plan2d, nrhs: int, u_solve: bool,
                         name: str) -> Schedule:
    """Derive the one-sided GPU dataflow schedule of one 2D solve statically.

    The GPU engine (:mod:`repro.gpu.dataflow`) is event-driven, not a
    generator program, but its communication is fully determined by the
    plan: each solved column's value flows down its broadcast tree, parent
    to children, and nothing else crosses GPUs (``Py == 1``).  Columns are
    linearized in topological order (ascending for L, descending for U —
    the same order the single-kernel admission uses) and each tree is
    walked root-down, so every recorded order is consistent with the true
    dataflow dependencies.  Receives carry their statically-known source
    (the tree parent) — one-sided puts have no wildcard to race on.
    """
    grid = plan2d.grid
    if grid.py != 1:
        raise ValueError("GPU 2D solves require Py == 1 (see repro.gpu)")
    ranks = grid.grid_ranks(plan2d.z)
    size = plan2d.sn_size
    trees: dict[int, object] = {}
    for r in ranks:
        for J, t in plan2d.plan_of(r).bcast_trees.items():
            trees.setdefault(J, t)

    nranks = grid.nranks
    events: list[list[SendEvent | RecvEvent]] = [[] for _ in range(nranks)]
    gstep = 0
    for J in sorted(trees, reverse=u_solve):
        tree = trees[J]
        nbytes = int(size(J)) * nrhs * 8
        frontier = [tree.root]
        while frontier:
            m = frontier.pop(0)
            if m != tree.root:
                parent = tree.parent(m)
                # The parent's send to m was recorded when m's parent was
                # visited; it is the last send to m in the parent's list.
                spos = next(e.pos for e in reversed(events[parent])
                            if e.kind == "send" and e.dst == m
                            and e.tag == ("gbc", J))
                ev = RecvEvent(m, len(events[m]), gstep, parent, ("gbc", J),
                               phase="u" if u_solve else "l", category="xy",
                               match=(parent, spos),
                               matched_tag=("gbc", J))
                gstep += 1
                events[m].append(ev)
            for c in tree.children(m):
                sev = SendEvent(m, len(events[m]), gstep, c, ("gbc", J),
                                nbytes, phase="u" if u_solve else "l",
                                category="xy")
                gstep += 1
                events[m].append(sev)
                frontier.append(c)
    return Schedule(nranks=nranks, events=events, complete=True, name=name)


def gpu_schedules(solver, nrhs: int = 1) -> dict[str, Schedule]:
    """Schedules of the three GPU solve phases (Algorithms 4-5 + 2).

    Phases 1 and 3 (per-grid one-sided broadcasts) are derived statically
    from the binary-tree plans; phase 2 (the CPU-side sparse allreduce) is
    extracted by running it under the symbolic harness — the same split
    :func:`repro.gpu.solver3d.solve_new3d_gpu` executes.
    """
    setup = solver.setup("new3d", "binary")
    grid = solver.grid
    if grid.grid_size > 1 and grid.py != 1:
        raise ValueError("multi-GPU grids require Py == 1 (see repro.gpu)")
    out: dict[str, Schedule] = {}
    for z in range(grid.pz):
        out[f"gpu-l-grid{z}"] = _plan_bcast_schedule(
            setup.plans_L[z], nrhs, u_solve=False,
            name=f"gpu-l grid {z} of px={grid.px} pz={grid.pz}")

    out["gpu-allreduce"] = _z_phase_schedule(setup, nrhs, "sparse",
                                             "gpu-allreduce")
    for z in range(grid.pz):
        out[f"gpu-u-grid{z}"] = _plan_bcast_schedule(
            setup.plans_U[z], nrhs, u_solve=True,
            name=f"gpu-u grid {z} of px={grid.px} pz={grid.pz}")
    return out
