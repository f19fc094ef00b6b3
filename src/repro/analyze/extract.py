"""Zero-cost symbolic schedule extraction.

Runs real rank programs — the same generator-coroutine protocol the
simulator drives (:mod:`repro.comm.simulator`) — under an *untimed* causal
executor and records every send/recv as a
:class:`~repro.analyze.schedule.Schedule` event.  No cost model is
consulted: compute ops are discarded, the stub machine prices every
operation at zero seconds, and delivery follows causal send order instead
of arrival times.  The programs compute on the shape-only kernel set
(:data:`repro.kernels.SHAPE`): payloads are zero arrays of the real shapes,
no arithmetic runs, and only ``(tag, nbytes)`` summaries are kept.

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
    PARKED,
    RankCtx,
    RecvOp,
    RMAError,
    op_handlers,
    unknown_op,
)
from repro.analyze.schedule import (
    Event,
    FenceEvent,
    FlushEvent,
    PutEvent,
    ReadEvent,
    RecvEvent,
    Schedule,
    SendEvent,
)
from repro.core.backends import Z_REDUCTIONS, resolve
from repro.kernels import SHAPE


class ExtractionLimit(RuntimeError):
    """Extraction exceeded ``max_events`` (runaway program, not deadlock)."""


class _ZeroCPU:
    def op_time(self, flops: float, nbytes: float) -> float:
        return 0.0


class _SymbolicMachine:
    """Machine stub pricing every operation at zero virtual seconds; the
    extractor's ``RankCtx`` reads only ``cpu``."""

    cpu = _ZeroCPU()


SYMBOLIC_MACHINE = _SymbolicMachine()

_READY, _RECV, _SENDB, _DONE, _FENCEX = 0, 1, 2, 3, 4


def _op_matches(op: RecvOp, sev: SendEvent) -> bool:
    """The recv op's spec against a recorded send (simulator semantics)."""
    if op.src is not ANY and int(op.src) != sev.rank:
        return False
    if op.tag is ANY:
        return True
    if callable(op.tag):
        return bool(op.tag(sev.tag))
    return sev.tag == op.tag


class Extractor:
    """The untimed causal executor behind :func:`extract_schedule`: the
    simulator's op table (:data:`repro.comm.simulator.OPS`) interpreted
    without clocks or faults, every comm op recorded as a schedule event."""

    def __init__(self, nranks: int, rank_fn: Callable[[RankCtx], Iterable],
                 rendezvous: bool, max_events: int):
        n = self.n = nranks
        self.rendezvous = rendezvous
        self.max_events = max_events
        self.ctxs = [RankCtx(r, n, SYMBOLIC_MACHINE, kernels=SHAPE)
                     for r in range(n)]
        gens = [rank_fn(ctx) for ctx in self.ctxs]
        self.gens = [g if hasattr(g, "send") else (_ for _ in ())
                     for g in gens]
        self.handlers = op_handlers(Extractor)
        self.events: list[list[Event]] = [[] for _ in range(n)]
        # Undelivered eager messages per destination, in global send order.
        self.mail: list[list[tuple[SendEvent, object]]] = [
            [] for _ in range(n)]
        self.state = [_READY] * n
        # What each parked rank waits on: (op, event[, payload]).
        self.pend: list = [None] * n
        # Per-rank compute segment since the last comm event: [flops, bytes,
        # nops].  Flushed onto the next event's pre_* fields, so the
        # schedule carries enough compute structure for static pricing
        # (repro.planner) without timing anything here.
        self.seg: list[list] = [[0.0, 0.0, 0] for _ in range(n)]
        self.gstep = 0
        self.nops = 0
        # One-sided state: per-rank windows and the global
        # issued-but-unapplied write list (gidx, origin, dst, key, payload)
        # — applied at the origin's flush or at the collective fence,
        # mirroring the simulator.
        self.windows: list[dict] = [{} for _ in range(n)]
        self.rma_pending: list[tuple] = []

    def record(self, cls: type, ctx: RankCtx, op, *fields):
        """Append ``op``'s event (``cls`` with ``fields``) to its rank's
        list, carrying the compute segment accumulated since the last."""
        r = ctx.rank
        fl, nb, no = self.seg[r]
        self.seg[r] = [0.0, 0.0, 0]
        ev = cls(r, len(self.events[r]), self.gstep, *fields, ctx.phase,
                 ctx.sync, op.category, pre_flops=fl, pre_bytes=nb,
                 pre_ops=no)
        self.gstep += 1
        self.events[r].append(ev)
        return ev

    def park(self, r: int, state: int, *waiting):
        self.state[r] = state
        self.pend[r] = waiting
        return PARKED

    def apply_rma(self, writes: list[tuple]) -> None:
        for _gidx, _origin, dst, key, payload in sorted(writes):
            self.windows[dst][key] = payload

    def run_rank(self, r: int, value=None) -> None:
        """Advance rank r until it blocks or finishes (the engine's
        ``resume``, minus clocks and faults)."""
        ctx, gen, handlers = self.ctxs[r], self.gens[r], self.handlers
        nops, max_events = self.nops, self.max_events
        while value is not PARKED:
            self.nops = nops = nops + 1
            if nops > max_events:
                raise ExtractionLimit(f"schedule extraction exceeded "
                                      f"{max_events} operations")
            try:
                op = gen.send(value)
            except StopIteration:
                self.state[r] = _DONE
                self.pend[r] = None
                return
            try:
                handler = handlers[type(op)]
            except KeyError:
                raise unknown_op(r, op) from None
            value = handler(self, ctx, op)

    def op_send(self, ctx, op):
        ev = self.record(SendEvent, ctx, op, op.dst, op.tag, op.nbytes)
        if self.rendezvous:
            return self.park(ctx.rank, _SENDB, op, ev, op.payload)
        self.mail[op.dst].append((ev, op.payload))

    def op_recv(self, ctx, op):
        return self.park(ctx.rank, _RECV, op,
                         self.record(RecvEvent, ctx, op, op.src, op.tag))

    def op_compute(self, ctx, op):
        # Zero-cost: compute never appears in the schedule, but its
        # flop/byte annotations accumulate into the segment.
        seg = self.seg[ctx.rank]
        seg[0] += op.flops
        seg[1] += op.nbytes
        seg[2] += 1

    def op_put(self, ctx, op):
        ev = self.record(PutEvent, ctx, op, op.dst, op.key, op.nbytes)
        self.rma_pending.append((ev.gidx, ctx.rank, op.dst, op.key,
                                 op.payload))

    def op_flush(self, ctx, op):
        self.record(FlushEvent, ctx, op, op.dst)
        mine = [w for w in self.rma_pending if w[1] == ctx.rank
                and (op.dst is None or w[2] == op.dst)]
        for w in mine:
            self.rma_pending.remove(w)
        self.apply_rma(mine)

    def op_fence(self, ctx, op):
        return self.park(ctx.rank, _FENCEX, op,
                         self.record(FenceEvent, ctx, op, op.tag))

    def op_read(self, ctx, op):
        self.record(ReadEvent, ctx, op, op.key)
        if op.key not in self.windows[ctx.rank]:
            raise RMAError(
                f"extraction: rank {ctx.rank} read window key {op.key!r} "
                f"before any put to it was applied (missing flush/fence?)")
        return self.windows[ctx.rank][op.key]

    def complete(self, r: int, sev: SendEvent, payload) -> None:
        """Match rank r's parked receive to ``sev`` and hand it over."""
        ev = self.pend[r][1]
        ev.match = (sev.rank, sev.pos)
        ev.matched_tag = sev.tag
        self.state[r] = _READY
        self.run_rank(r, (sev.rank, sev.tag, payload))

    def deliver(self) -> bool:
        """Everyone is blocked or done: deliver messages / complete pairs."""
        n, state, pend = self.n, self.state, self.pend
        delivered = False
        for r in range(n):
            if state[r] != _RECV:
                continue
            op = pend[r][0]
            # FIFO == earliest global send order.
            best = next((i for i, (sev, _payload) in enumerate(self.mail[r])
                         if _op_matches(op, sev)), None)
            if best is not None:
                self.complete(r, *self.mail[r].pop(best))
                delivered = True
            elif self.rendezvous:
                cands = [(pend[s][1].gidx, s) for s in range(n)
                         if state[s] == _SENDB and pend[s][0].dst == r
                         and _op_matches(op, pend[s][1])]
                if cands:
                    _, s = min(cands)
                    _sop, sev, payload = pend[s]
                    state[s] = _READY
                    pend[s] = None
                    self.complete(r, sev, payload)
                    self.run_rank(s)
                    delivered = True
        return delivered

    def run(self) -> None:
        """Drive every rank until none can move."""
        n, state = self.n, self.state
        while True:
            ready = [r for r in range(n) if state[r] == _READY]
            for r in ready:
                self.run_rank(r)
            if ready or self.deliver():
                continue
            # Fence quorum (mirrors the simulator): the collective epoch
            # boundary completes only when every live rank is parked at its
            # fence — then all pending writes are applied and everyone
            # resumes.
            fencing = [r for r in range(n) if state[r] == _FENCEX]
            if not fencing or any(s not in (_FENCEX, _DONE) for s in state):
                return
            self.apply_rma(self.rma_pending)
            self.rma_pending = []
            for r in fencing:
                state[r] = _READY
                self.pend[r] = None

    def blocked(self, state: int) -> list[tuple[int, int]]:
        return [(r, self.pend[r][1].pos) for r in range(self.n)
                if self.state[r] == state]


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
    x = Extractor(nranks, rank_fn, rendezvous, max_events)
    x.run()
    return Schedule(nranks=nranks, events=x.events,
                    complete=all(s == _DONE for s in x.state),
                    blocked_recvs=x.blocked(_RECV),
                    blocked_sends=x.blocked(_SENDB),
                    blocked_fences=x.blocked(_FENCEX),
                    rendezvous=rendezvous, name=name,
                    compute_tails=[(s[0], s[1], s[2]) for s in x.seg])


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
