"""Deterministic discrete-event simulator for message-passing programs.

Each rank is a generator that yields operation objects created through its
:class:`RankCtx` (``send`` / ``recv`` / ``compute``).  The scheduler always
advances the runnable rank with the smallest virtual clock, so message
availability tracks causal order closely; ``recv(ANY, ANY)`` picks the
matching message with the earliest arrival time, mirroring
``MPI_Recv(MPI_ANY_SOURCE)`` in the paper's Algorithm 3 while staying
deterministic.

Sends are eager and buffered (the solvers use ``MPI_Isend``): the sender is
busy only for the network model's injection overhead, and the payload is
copied so later mutation by the sender cannot race the receiver.

The ops are one table (:data:`OPS`); :meth:`Simulator.run` hands the
program to a per-run :class:`Engine` that dispatches on it, with delivery
(lossless, or the fault-plan / reliable-envelope path) bound as a policy at
construction and metrics, trace and tape recording attached as
:class:`Observer` s — see ``docs/ARCHITECTURE.md``.

Every operation carries a ``(phase, category)`` label; per-rank time is
accumulated per label, which is how the paper's Z-Comm / XY-Comm /
FP-Operation breakdowns (Figs. 5-6) and per-rank load-balance plots
(Figs. 7-8) are produced.

Fault tolerance (see :mod:`repro.comm.faults` and ``docs/FAULTS.md``): a
seeded :class:`~repro.comm.faults.FaultPlan` passed as ``faults=`` injects
drops, duplicates, delay spikes, reorderings, bit corruption, rank crashes
and slowdowns; ``checksums=True`` verifies payload integrity on delivery;
``reliable=True`` runs every message under an ack/retransmit envelope; and
``ctx.recv(timeout=...)`` plus the ``watchdog_events`` stall detector turn
would-be hangs into typed, catchable errors.  All of these default off, in
which case the simulation is bit-identical to the lossless runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable

import numpy as np

from repro.comm.costmodel import gemm_bytes, gemm_flops
from repro.comm.faults import (
    ChecksumError,
    CommFaultError,
    FaultEvent,
    FaultPlan,
    RecvTimeout,
    ReliableTransport,
    StallError,
    corrupt_payload,
    payload_checksum,
)
from repro.comm.invariants import check_sim
from repro.kernels import NUMERIC


class _AnyType:
    """Singleton wildcard for recv source/tag matching."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ANY"


ANY = _AnyType()


class DeadlockError(RuntimeError):
    """All live ranks are blocked on receives with no matching messages."""


class RMAError(RuntimeError):
    """A one-sided operation was used incorrectly: a window key read before
    any put to it was applied, or an RMA op issued under a configuration
    that does not support one-sided semantics (fault injection, reliable
    transport)."""


class RMAConflictError(RMAError):
    """Opt-in (``Simulator(rma_strict=True)``): two unordered accesses to
    the same window key overlapped — a second put raced an in-flight or
    same-epoch write from another origin, or a local read raced an
    in-flight put.  Which value the window holds would be a scheduling
    accident; the static certifier (:mod:`repro.analyze.rma`) proves the
    absence of such conflicts from the schedule alone.
    """

    def __init__(self, rank: int, dst: int, key: Any, other: int,
                 what: str = "put"):
        super().__init__(
            f"RMA conflict: rank {rank} {what} to window {dst} key {key!r} "
            f"overlaps an unordered write from rank {other}; separate the "
            f"accesses with a flush/fence epoch")
        self.rank = rank
        self.dst = dst
        self.key = key
        self.other = other


class AmbiguousRecvError(RuntimeError):
    """Opt-in (``Simulator(strict_match=True)``): a wildcard receive was
    about to complete while queued messages from two or more distinct
    senders satisfied its spec, so which one it matches is a scheduling
    accident.

    This per-delivery check is sound but coarse: the static analyzer
    (:mod:`repro.analyze`) refines it by proving receive *loops*
    set-deterministic — every feasible send is matched by some receive of
    the same loop, so the delivered set (and any canonical-order
    accumulation over it) is independent of match order.
    """

    def __init__(self, rank: int, tag: Any, srcs: list[int]):
        super().__init__(
            f"ambiguous wildcard recv on rank {rank} (tag spec {tag!r}): "
            f"queued messages from ranks {srcs} all match; which is "
            f"delivered first is a scheduling accident")
        self.rank = rank
        self.tag = tag
        self.srcs = srcs


@dataclass
class _Message:
    arrival: float
    seq: int
    src: int
    tag: Hashable
    payload: Any
    nbytes: int
    checksum: int | None = None

    def __lt__(self, other: "_Message") -> bool:
        return (self.arrival, self.seq) < (other.arrival, other.seq)


# -- the rank-program op vocabulary -------------------------------------------
#
# What a rank program may ``yield`` (built by the RankCtx methods of the same
# name).  Every interpreter of the protocol — the engine below,
# repro.analyze.extract — dispatches on OPS and has one ``op_<kind>`` handler
# per row.


@dataclass
class SendOp:
    dst: int
    payload: Any
    tag: Hashable
    nbytes: int
    category: str


@dataclass
class RecvOp:
    src: Any
    tag: Any
    category: str
    timeout: float | None = None


@dataclass
class ComputeOp:
    seconds: float
    category: str
    flops: float = 0.0   # metrics-only annotation; never affects the clock
    nbytes: float = 0.0  # memory traffic of the op; annotation like flops


@dataclass
class PutOp:
    dst: int
    key: Hashable
    payload: Any
    nbytes: int
    category: str


@dataclass
class FlushOp:
    dst: int | None      # None flushes this origin's writes to every target
    category: str


@dataclass
class FenceOp:
    tag: Hashable
    category: str


@dataclass
class ReadOp:
    key: Hashable
    category: str


#: Op class → kind, in the order the error text below lists them.
OPS: dict[type, str] = {SendOp: "send", RecvOp: "recv", ComputeOp: "compute",
                        PutOp: "put", FlushOp: "flush", FenceOp: "fence",
                        ReadOp: "read"}


def op_handlers(interpreter: type) -> dict[type, Callable]:
    """The ``op_<kind>`` function of class ``interpreter`` for every op
    class, to be called as ``handler(self, ctx, op)`` (unbound, so an
    interpreter holding its table does not reference itself)."""
    return {cls: getattr(interpreter, "op_" + kind)
            for cls, kind in OPS.items()}


def unknown_op(rank: int, op: Any) -> TypeError:
    """What every interpreter raises for a yielded object outside OPS."""
    return TypeError(f"rank {rank} yielded {op!r}; yield "
                     f"ctx.{'/'.join(OPS.values())}")


@dataclass(eq=False)
class _PendingWrite:
    """One issued-but-unapplied put (eq=False: identity, payloads are
    arrays)."""

    arrival: float
    seq: int
    origin: int
    dst: int
    key: Hashable
    payload: Any
    nbytes: int


def _payload_nbytes(payload: Any) -> int:
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, np.generic):
        return payload.nbytes  # scalar numpy value: its itemsize
    if isinstance(payload, (list, tuple)):
        return sum(_payload_nbytes(p) for p in payload) + 16
    if isinstance(payload, dict):
        return sum(_payload_nbytes(k) + _payload_nbytes(v)
                   for k, v in payload.items()) + 16
    return 32  # control message


def _copy_payload(payload: Any) -> Any:
    if isinstance(payload, np.ndarray):
        return payload.copy()
    if isinstance(payload, tuple):
        return tuple(_copy_payload(p) for p in payload)
    if isinstance(payload, list):
        return [_copy_payload(p) for p in payload]
    if isinstance(payload, dict):
        return {k: _copy_payload(v) for k, v in payload.items()}
    return payload


class _LabelScope:
    """Context manager restoring a RankCtx label attribute on exit."""

    def __init__(self, ctx: "RankCtx", attr: str, value: str):
        self._ctx = ctx
        self._attr = attr
        self._value = value
        self._saved = ""

    def __enter__(self):
        self._saved = getattr(self._ctx, self._attr)
        setattr(self._ctx, self._attr, self._value)
        return self._ctx

    def __exit__(self, *exc):
        setattr(self._ctx, self._attr, self._saved)
        return False


class RankCtx:
    """Per-rank handle: build ops to ``yield`` and accumulate timing.
    ``kernels``: the arithmetic the program computes through
    (:mod:`repro.kernels`), numeric unless the extractor says otherwise."""

    def __init__(self, rank: int, nranks: int, machine,
                 observers: "Iterable[Observer]" = (), kernels=NUMERIC):
        self.rank = rank
        self.nranks = nranks
        self.machine = machine
        self.observers = observers
        self.kernels = kernels
        self.clock = 0.0
        self.phase = ""
        self.sync = ""
        self.times: dict[tuple[str, str], float] = {}
        self.sent_msgs: dict[tuple[str, str], int] = {}
        self.sent_bytes: dict[tuple[str, str], float] = {}
        self.marks: dict[str, float] = {}

    # -- op builders (use as `yield ctx.send(...)`) -------------------------

    def send(self, dst: int, payload: Any, tag: Hashable = None,
             nbytes: int | None = None, category: str = "comm") -> SendOp:
        """Eager buffered send of ``payload`` to rank ``dst``."""
        if not (0 <= dst < self.nranks):
            raise ValueError(f"send to invalid rank {dst}")
        if nbytes is None:
            nbytes = _payload_nbytes(payload)
        return SendOp(dst, payload, tag, nbytes, category)

    def recv(self, src: Any = ANY, tag: Any = ANY,
             category: str = "comm", timeout: float | None = None) -> RecvOp:
        """Blocking receive; yields ``(src, tag, payload)``.

        ``tag`` may be ``ANY``, an exact value, or a predicate
        ``callable(tag) -> bool`` (used to scope phases of a protocol).

        ``timeout`` (virtual seconds) bounds the wait: if no matching
        message can arrive by then, :class:`~repro.comm.faults.RecvTimeout`
        is raised at the yield point (catchable; uncaught it propagates out
        of the simulation).
        """
        if src is not ANY:
            if not isinstance(src, (int, np.integer)):
                raise ValueError(
                    f"recv src must be a rank index or ANY, got {src!r}")
            if not (0 <= src < self.nranks):
                raise ValueError(
                    f"recv from invalid rank {src} (nranks={self.nranks}); "
                    f"this wait could never be satisfied")
        if timeout is not None and timeout <= 0:
            raise ValueError("recv timeout must be > 0")
        return RecvOp(src, tag, category, timeout)

    def compute(self, seconds: float, category: str = "fp",
                flops: float = 0.0, nbytes: float = 0.0) -> ComputeOp:
        """Advance the local clock by ``seconds`` of work.

        ``flops`` and ``nbytes`` are metrics-only annotations (recorded
        when a :class:`~repro.obs.metrics.MetricsRegistry` is attached,
        and folded into static schedules by :mod:`repro.analyze`); they
        never influence the virtual clock.
        """
        if seconds < 0:
            raise ValueError("compute time must be >= 0")
        return ComputeOp(seconds, category, flops, nbytes)

    def put(self, dst: int, key: Hashable, payload: Any,
            nbytes: int | None = None, category: str = "comm") -> PutOp:
        """One-sided write of ``payload`` into rank ``dst``'s window under
        ``key``.

        Charged exactly like an eager send (injection overhead locally, α-β
        latency in flight), but there is no matching receive: the write is
        applied to the target's window at the origin's next
        :meth:`flush`/:meth:`fence`, and the target observes it with
        :meth:`read`.  Overlapping unordered writes to one key are
        undefined; ``Simulator(rma_strict=True)`` detects them dynamically
        and :mod:`repro.analyze.rma` proves their absence statically.
        """
        if not (0 <= dst < self.nranks):
            raise ValueError(f"put to invalid rank {dst}")
        hash(key)   # window keys must be hashable, like message tags
        if nbytes is None:
            nbytes = _payload_nbytes(payload)
        return PutOp(dst, key, payload, nbytes, category)

    def flush(self, dst: int | None = None,
              category: str = "comm") -> FlushOp:
        """Complete this rank's outstanding puts to ``dst`` (all targets
        when ``None``): blocks until their payloads have landed and applies
        them to the target windows."""
        if dst is not None and not (0 <= dst < self.nranks):
            raise ValueError(f"flush of invalid rank {dst}")
        return FlushOp(dst, category)

    def fence(self, tag: Hashable = None,
              category: str = "comm") -> FenceOp:
        """Epoch boundary: collective barrier that completes every rank's
        outstanding puts.  All live ranks must reach a fence for it to
        complete; afterwards every write issued before any rank's fence is
        visible to every :meth:`read`."""
        return FenceOp(tag, category)

    def read(self, key: Hashable, category: str = "comm") -> ReadOp:
        """Local, zero-cost read of this rank's own window; yields the
        payload most recently applied under ``key``.  Reading a key no
        flush/fence has applied yet raises :class:`RMAError`."""
        hash(key)
        return ReadOp(key, category)

    def gemm(self, m: int, n: int, k: int, category: str = "fp") -> ComputeOp:
        """Convenience: a dense m×k @ k×n on this rank's CPU model."""
        fl = gemm_flops(m, n, k)
        nb = gemm_bytes(m, n, k)
        t = self.machine.cpu.op_time(fl, nb)
        return ComputeOp(t, category, fl, nb)

    # -- bookkeeping ---------------------------------------------------------

    def set_phase(self, phase: str) -> None:
        self.phase = phase

    def set_sync(self, sync: str) -> None:
        """Name the inter-grid synchronization point subsequent messages
        belong to ("" = none); purely an observability label."""
        self.sync = sync

    def phase_scope(self, phase: str) -> _LabelScope:
        """``with ctx.phase_scope("l"): ...`` — scoped :meth:`set_phase`."""
        return _LabelScope(self, "phase", phase)

    def sync_scope(self, sync: str) -> _LabelScope:
        """``with ctx.sync_scope("allreduce"): ...`` — scoped sync label."""
        return _LabelScope(self, "sync", sync)

    def mark(self, name: str) -> None:
        """Record the current clock under ``name`` (phase boundaries)."""
        self.marks[name] = self.clock
        for o in self.observers:
            o.on_mark(self.rank, name)

    def _charge(self, category: str, seconds: float) -> None:
        key = (self.phase, category)
        self.times[key] = self.times.get(key, 0.0) + seconds

    def _charge_msg(self, category: str, nbytes: int) -> None:
        key = (self.phase, category)
        self.sent_msgs[key] = self.sent_msgs.get(key, 0) + 1
        self.sent_bytes[key] = self.sent_bytes.get(key, 0.0) + nbytes


@dataclass
class TraceEvent:
    """One timeline entry (only recorded with ``Simulator(trace=True)``)."""

    rank: int
    t0: float
    t1: float
    kind: str        # "compute" | "send" | "wait" | "fault"
    phase: str
    category: str
    detail: Any = None  # dst rank for sends, src for waits, note for faults


@dataclass(frozen=True)
class UnconsumedMessage:
    """A message still sitting in a mailbox when its rank exited.

    In a fault-free run every send must be received — a leftover message
    means some rank forgot a ``recv`` (a silent protocol leak the
    invariant layer in :mod:`repro.check.invariants` flags).  Under
    injected faults, duplicates and deliveries to crashed ranks leave
    leftovers legitimately.
    """

    dst: int
    src: int
    tag: Hashable
    arrival: float
    nbytes: int


@dataclass(frozen=True)
class UnappliedPut:
    """A one-sided write issued but never completed by a flush/fence.

    Like :class:`UnconsumedMessage` for puts: in a fault-free run every
    put must be applied before its origin exits — a leftover means the
    program forgot a flush/fence (flagged by
    :mod:`repro.check.invariants`).
    """

    origin: int
    dst: int
    key: Hashable
    nbytes: int


@dataclass
class SimResult:
    """Outcome of a simulation: per-rank clocks, times, and return values."""

    clocks: np.ndarray
    times: list[dict[tuple[str, str], float]]
    sent_msgs: list[dict[tuple[str, str], int]]
    sent_bytes: list[dict[tuple[str, str], float]]
    marks: list[dict[str, float]]
    results: list[Any]
    trace: list[TraceEvent] | None = None
    fault_events: list[FaultEvent] | None = None
    crashed: list[int] = field(default_factory=list)
    unconsumed_msgs: list[UnconsumedMessage] = field(default_factory=list)
    # One-sided accounting (all zero/empty when no puts were issued):
    # total put payload bytes, bytes actually applied to windows, per-target
    # peak of issued-but-unapplied bytes (the live window-buffer footprint
    # the static resource certifier bounds), and leftover writes.
    rma_put_bytes: int = 0
    rma_applied_bytes: int = 0
    rma_peak_bytes: list[int] = field(default_factory=list)
    unapplied_puts: list[UnappliedPut] = field(default_factory=list)

    def trace_timeline(self, rank: int | None = None) -> list[TraceEvent]:
        """Chronological trace events (optionally for one rank)."""
        if self.trace is None:
            raise ValueError("run the Simulator with trace=True to record "
                             "a timeline")
        events = (self.trace if rank is None
                  else [e for e in self.trace if e.rank == rank])
        return sorted(events, key=lambda e: (e.t0, e.rank))

    @property
    def nranks(self) -> int:
        return len(self.clocks)

    @property
    def makespan(self) -> float:
        """Wall-clock of the parallel run: the slowest rank's finish time."""
        return float(self.clocks.max())

    def time_by(self, phase: str | None = None,
                category: str | None = None) -> np.ndarray:
        """Per-rank total seconds over labels matching the filters.

        ``phase``/``category`` of ``None`` match everything; otherwise exact
        string match.
        """
        out = np.zeros(self.nranks)
        for r, t in enumerate(self.times):
            for (p, c), v in t.items():
                if (phase is None or p == phase) and (category is None or c == category):
                    out[r] += v
        return out

    def msgs_by(self, phase: str | None = None,
                category: str | None = None) -> int:
        total = 0
        for t in self.sent_msgs:
            for (p, c), v in t.items():
                if (phase is None or p == phase) and (category is None or c == category):
                    total += v
        return total

    def bytes_by(self, phase: str | None = None,
                 category: str | None = None) -> float:
        total = 0.0
        for t in self.sent_bytes:
            for (p, c), v in t.items():
                if (phase is None or p == phase) and (category is None or c == category):
                    total += v
        return total

    def categories(self) -> set[tuple[str, str]]:
        out: set[tuple[str, str]] = set()
        for t in self.times:
            out.update(t)
        return out

    def fault_counts(self) -> dict[str, int]:
        """Injected/handled fault events by kind (empty without a plan)."""
        out: dict[str, int] = {}
        for ev in self.fault_events or ():
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out


class Observer:
    """What an engine run reports, as it happens: the one interface behind
    ``Simulator(metrics=, trace=, recorder=)``.

    Observers are only ever *told* what the scheduler already decided, so
    a run's clocks and results are bit-identical with any set attached.
    Override the events to keep; trailing arguments an override does not
    read may be swallowed with ``*_``.
    """

    def start_run(self, nranks, machine):
        """A run of ``nranks`` ranks on ``machine`` begins."""

    def on_send(self, rank, seq, nbytes, lat, phase, category, sync, dst,
                t0, t1, alpha):
        """``rank`` injected a send or put over ``[t0, t1]``; ``seq`` is the
        queued message's id (``None`` for a put or a lost message), ``lat``
        its α-β flight time and ``alpha`` the α part of that."""

    def on_compute(self, rank, seconds, phase, category, t0, t1, flops):
        """``rank`` computed over ``[t0, t1]`` (zero-second ops included)."""

    def on_recv(self, rank, seq, phase, category, sync, t0, arrival, t1,
                peer):
        """A blocking wait completed over ``[t0, t1]``: message ``seq`` from
        rank ``peer`` was delivered, or (``seq is None``) ``peer`` names the
        wait — ``"timeout"`` (``arrival is None``), ``"flush"``, ``"fence"``."""

    def on_flush(self, rank, dst, phase, category):
        """``rank`` flushed its outstanding puts to ``dst`` (``None``: to
        every target).  A flush that has to wait for them also completes an
        ``on_recv`` wait; one that does not is reported here only."""

    def on_mark(self, rank, name):
        """``ctx.mark(name)`` on ``rank``."""

    def on_fault(self, rank, phase, event):
        """A :class:`~repro.comm.faults.FaultEvent` was logged on ``rank``."""

    def on_retransmit(self, rank, phase, category, nbytes):
        """The reliable envelope re-sent a lost copy."""

    def on_ack(self, rank, phase, category, nbytes):
        """The reliable envelope acknowledged a delivery."""


class _TraceLog(Observer):
    """``Simulator(trace=True)``: the run as :class:`TraceEvent` rows."""

    def __init__(self):
        self.events: list[TraceEvent] = []

    def on_send(self, rank, seq, nbytes, lat, phase, category, sync, dst,
                t0, t1, alpha):
        self.events.append(TraceEvent(rank, t0, t1, "send", phase, category,
                                      dst))

    def on_compute(self, rank, seconds, phase, category, t0, t1, flops):
        if seconds > 0:
            self.events.append(TraceEvent(rank, t0, t1, "compute", phase,
                                          category))

    def on_recv(self, rank, seq, phase, category, sync, t0, arrival, t1,
                peer):
        self.events.append(TraceEvent(rank, t0, t1, "wait", phase, category,
                                      peer))

    def on_fault(self, rank, phase, event):
        self.events.append(TraceEvent(
            rank, event.time, event.time, "fault", phase, event.kind,
            {"src": event.src, "dst": event.dst, "tag": event.tag,
             "note": event.note}))


_READY, _RECV, _DONE, _FENCE = 0, 1, 2, 3

# Sort marker so an expiring timeout loses ties against a real message with
# the same virtual timestamp.
_TIMEOUT = -1

_INF = float("inf")

#: What an ``op_<kind>`` handler returns once it has parked its rank; any
#: other return value is sent back into the rank's generator.
PARKED = object()


def _matching(spec: RecvOp, box: list[_Message]) -> list[int]:
    """Indices of the queued messages a receive's (src, tag) spec accepts."""
    src, tag = spec.src, spec.tag
    by_predicate = tag is not ANY and callable(tag)
    return [i for i, m in enumerate(box)
            if (src is ANY or m.src == src)
            and (tag is ANY
                 or (tag(m.tag) if by_predicate else m.tag == tag))]


def _swap_newest(box: list[_Message], src: int) -> None:
    """Swap arrival times of the two newest pending messages from ``src``
    in ``box`` (models out-of-order delivery on one link)."""
    pair = sorted((m for m in box if m.src == src), key=lambda m: m.seq)[-2:]
    if len(pair) == 2:
        pair[0].arrival, pair[1].arrival = pair[1].arrival, pair[0].arrival


class _Eager:
    """Delivery on the lossless fabric: every send queues one copy, one
    latency after injection; nothing to acknowledge or verify."""

    def send(self, eng: "Engine", ctx: RankCtx, op: SendOp,
             lat: float) -> int | None:
        """Queue ``op``'s message(s); the id of the copy the receiver will
        match, or ``None`` when nothing was delivered."""
        return eng.post(op.dst, ctx.clock + lat, ctx.rank, op.tag,
                        _copy_payload(op.payload), op.nbytes)

    def ack(self, eng: "Engine", ctx: RankCtx, category: str) -> None:
        """Charge whatever a delivery costs its receiver beyond the recv."""

    def verify(self, eng: "Engine", ctx: RankCtx,
               m: _Message) -> Exception | None:
        """The error to raise in the receiver instead of handing it ``m``."""
        return None


class _Lossy(_Eager):
    """Delivery under a fault plan and/or the reliable envelope: drops,
    duplicates, delay spikes, reorderings and corruption on the way in;
    retransmission, per-delivery acks and checksum verification on top."""

    def __init__(self, net, transport: ReliableTransport | None,
                 checksums: bool):
        self.transport = transport
        self.enveloped = transport is not None
        self.checksums = checksums
        self.rto = transport.base_rto(net) if self.enveloped else 0.0

    def send(self, eng, ctx, op, lat):
        payload = _copy_payload(op.payload)
        # Checksum is stamped over the *sent* data, before any in-flight
        # corruption, so mismatches surface.
        csum = payload_checksum(payload) if self.checksums else None
        arrival, duplicate, reorder = self.transmit(eng, ctx, op, payload,
                                                    lat)
        if arrival is None:
            return None
        seq = eng.post(op.dst, arrival, ctx.rank, op.tag, payload, op.nbytes,
                       csum)
        if duplicate:
            eng.post(op.dst, arrival + lat, ctx.rank, op.tag,
                     _copy_payload(payload), op.nbytes, csum)
        if reorder:
            _swap_newest(eng.mailbox[op.dst], ctx.rank)
        return seq

    def transmit(self, eng: "Engine", ctx: RankCtx, op: SendOp, payload: Any,
                 lat: float):
        """Apply fault/transport policy to one send: ``(arrival, duplicate,
        reorder)``, with ``arrival`` ``None`` when the message is lost;
        ``payload`` may be corrupted in place."""
        transport, r, faults = self.transport, ctx.rank, eng.faults
        if faults is None:
            # Reliable transport without faults: nothing to retransmit.
            return ctx.clock + lat, False, False

        def log(kind: str, note: str = "") -> None:
            eng.fault(r, kind, r, op.dst, op.tag, note)

        delay = 0.0
        attempt = 0
        while True:
            d = faults.decide(r, op.dst, op.tag, ctx.clock)
            if d.extra_delay > 0.0:
                delay += d.extra_delay
                log("delay", f"+{d.extra_delay:.3e}s")
            if d.drop:
                log("drop", f"attempt {attempt}")
            # Under the reliable envelope a corrupted copy is detected by
            # its checksum and retransmitted like a drop; without checksums
            # corruption is undetectable even when "reliable".
            if not (d.drop or (d.corrupt and self.enveloped
                               and self.checksums)):
                if d.corrupt and corrupt_payload(payload, faults.rng):
                    log("corrupt", "bit flip")
                # The envelope's sequencing suppresses what the plan drew.
                if d.duplicate:
                    log("dup-suppressed" if self.enveloped else "duplicate")
                if d.reorder:
                    log("reorder-suppressed" if self.enveloped else "reorder")
                return (ctx.clock + delay + lat,
                        d.duplicate and not self.enveloped,
                        d.reorder and not self.enveloped)
            if not self.enveloped:
                return None, False, False
            if attempt >= transport.max_retries:
                log("lost", f"gave up after {attempt} retries")
                return None, False, False
            delay += self.rto * (transport.backoff ** attempt)
            attempt += 1
            # The retransmitted copy is real traffic: count it.
            ctx._charge_msg(op.category, op.nbytes)
            for o in eng.observers:
                o.on_retransmit(r, ctx.phase, op.category, op.nbytes)
            log("retransmit", f"attempt {attempt}, backoff {delay:.3e}s")

    def ack(self, eng, ctx, category):
        if not self.enveloped:
            return
        # The envelope acks every delivery: one control send.
        so, nbytes = eng.net.send_overhead, self.transport.ack_nbytes
        ctx.clock += so
        ctx._charge(category, so)
        ctx._charge_msg("ack", nbytes)
        for o in eng.observers:
            o.on_ack(ctx.rank, ctx.phase, "ack", nbytes)

    def verify(self, eng, ctx, m):
        if m.checksum is None:
            return None
        actual = payload_checksum(m.payload)
        if actual == m.checksum:
            return None
        if eng.faults is not None:
            eng.fault(ctx.rank, "checksum-fail", m.src, ctx.rank, m.tag)
        return ChecksumError(ctx.rank, m.src, m.tag, m.checksum, actual)


class Engine:
    """One run of a rank program: the clocks, the ready structure and the
    op handlers.  Delivery is a policy bound at construction; everything
    that only watches is an :class:`Observer`.

    The scheduler always advances the runnable rank with the smallest key.
    Each rank's key and matched message index (or ``_TIMEOUT``) are cached
    and recomputed only for ranks in ``dirty`` — those whose state, parked
    op or mailbox changed since the last event.
    """

    def __init__(self, sim: "Simulator", rank_fn: Callable):
        n = self.n = sim.nranks
        self.machine = sim.machine
        self.net = sim.machine.net
        self.max_events = sim.max_events
        self.strict_match = sim.strict_match
        self.rma_strict = sim.rma_strict
        self.tracelog = _TraceLog() if sim.trace else None
        self.observers = [o for o in (sim.recorder, sim.metrics,
                                      self.tracelog) if o is not None]
        for o in self.observers:
            o.start_run(n, sim.machine)
        self.faults = (sim.faults.start_run() if sim.faults is not None
                       else None)
        lossless = self.faults is None and sim.transport is None
        self.delivery = (_Eager() if lossless else
                         _Lossy(self.net, sim.transport, sim.checksums))
        # One-sided semantics exist only where nothing is lost.
        self.one_sided = lossless
        self.ctxs = [RankCtx(r, n, sim.machine, self.observers)
                     for r in range(n)]
        gens = (rank_fn(ctx) for ctx in self.ctxs)
        self.gens = [g if hasattr(g, "send") else (_ for _ in ())
                     for g in gens]
        self.handlers = op_handlers(Engine)
        self.state = [_READY] * n
        self.pending: list[RecvOp | FenceOp | None] = [None] * n
        self.deadline = [_INF] * n
        self.results: list[Any] = [None] * n
        self.crashed: list[int] = []
        self.mailbox: list[list[_Message]] = [[] for _ in range(n)]
        self.idle = (_INF, _INF, n)       # sorts after every real key
        self.keys = [self.idle] * n
        self.matched: list[int | None] = [None] * n
        self.dirty = set(range(n))
        self.seq = 0
        self.events = 0
        # Watchdog: the event count at the last clock advance.
        self.wd = (sim.watchdog_events if sim.watchdog_events is not None
                   else _INF)
        self.progress = 0
        # One-sided state: per-rank windows, issued-but-unapplied writes,
        # and the strict-mode same-epoch application map.
        self.windows: list[dict[Hashable, Any]] = [{} for _ in range(n)]
        self.rma_pending: list[_PendingWrite] = []
        self.epoch_applied: dict[tuple[int, Hashable], int] = {}
        self.rma_live = [0] * n
        self.rma_peak = [0] * n
        self.rma_put_bytes = 0
        self.rma_applied_bytes = 0

    # -- scheduling -----------------------------------------------------------

    def run(self) -> None:
        """Advance every rank to completion (or raise what stopped it)."""
        keys, dirty, state, matched = (self.keys, self.dirty, self.state,
                                       self.matched)
        while True:
            if self.events - self.progress > self.wd:
                raise self.stalled()
            for r in dirty:
                self.refresh(r)
            dirty.clear()
            r = min(keys)[2]
            if r == self.n:
                if self.quiesce():
                    continue
                return
            dirty.add(r)    # every branch below resumes rank r
            if state[r] == _READY:
                self.resume(r)
            elif matched[r] == _TIMEOUT:
                self.expire(r)
            else:
                self.deliver(r)

    def refresh(self, r: int) -> None:
        """Recompute rank r's scheduling key; a finished, fenced or
        unmatched rank without a deadline is not a candidate."""
        key = self.idle
        if self.state[r] == _READY:
            key = (self.ctxs[r].clock, 0.0, r)
        elif self.state[r] == _RECV:
            # The earliest-arriving message the parked receive accepts.
            box, best, best_at = self.mailbox[r], None, (_INF, _INF)
            for i in _matching(self.pending[r], box):
                at = (box[i].arrival, box[i].seq)
                if at < best_at:
                    best, best_at = i, at
            self.matched[r] = best
            if best is not None and best_at[0] <= self.deadline[r]:
                key = (max(self.ctxs[r].clock, best_at[0]), best_at[0], r)
            elif self.deadline[r] < _INF:
                # No message can beat the deadline: any rank able to send
                # earlier has a smaller key and runs first.  A queued match
                # arriving after it stays queued.
                key = (self.deadline[r], _INF, r)
                self.matched[r] = _TIMEOUT
        self.keys[r] = key

    def quiesce(self) -> bool:
        """No rank is a candidate.  False when all have finished; True when
        a fence quorum completed and they can run again; else deadlock."""
        blocked = [r for r in range(self.n) if self.state[r] != _DONE]
        if not blocked:
            return False
        if any(self.state[r] != _FENCE for r in blocked):
            crash_note = (f" ({len(self.crashed)} rank(s) crashed: "
                          f"{self.crashed})" if self.crashed else "")
            raise self.diagnosed(DeadlockError(
                f"{len(blocked)} rank(s) blocked with no matching "
                f"messages{crash_note}:\n  {self.report(blocked)}"))
        # Epoch boundary: every live rank reached its fence and nothing
        # else can run.  The fence completes at the latest of the entry
        # clocks and the in-flight write arrivals; every pending write is
        # applied, then each rank pays the barrier round-trip (one control
        # send + recv) on top of its wait.
        t_f = max(max(self.ctxs[r].clock for r in blocked),
                  max((w.arrival for w in self.rma_pending), default=0.0))
        self.apply_writes(self.rma_pending)
        self.rma_pending = []
        self.epoch_applied.clear()
        self.dirty.update(blocked)
        overheads = (self.net.send_overhead, self.net.recv_overhead)
        for r in blocked:
            self.wait(r, self.pending[r].category, t_f, overheads, t_f,
                      "fence")
        return True

    # -- running a rank -------------------------------------------------------

    def resume(self, r: int, value: Any = None,
               exc: BaseException | None = None) -> None:
        """Run rank r's generator until it parks or finishes.

        ``exc`` (RecvTimeout/ChecksumError/AmbiguousRecvError), when given,
        is thrown into the generator at the yield point instead of sending
        ``value``.
        """
        ctx, gen, handlers = self.ctxs[r], self.gens[r], self.handlers
        faults, max_events, wd = self.faults, self.max_events, self.wd
        events = self.events
        while value is not PARKED:
            self.events = events = events + 1
            if events > max_events:
                raise RuntimeError("simulation exceeded max_events")
            if events - self.progress > wd:
                raise self.stalled()
            if faults is not None and faults.crash_due(r, ctx.clock):
                self.state[r] = _DONE
                self.crashed.append(r)
                self.fault(r, "crash", r, r, None, f"rank {r} crashed")
                gen.close()
                return
            try:
                if exc is not None:
                    op, exc = gen.throw(exc), None
                else:
                    op = gen.send(value)
            except StopIteration as stop:
                self.state[r] = _DONE
                self.results[r] = stop.value
                return
            except Exception as e:
                # Anything escaping a rank — uncaught RecvTimeout or
                # ChecksumError, but also kernel sanity errors provoked by
                # injected faults: attach scheduler diagnostics (sim_time,
                # fault_events) on the way out.
                raise self.diagnosed(e)
            try:
                handler = handlers[type(op)]
            except KeyError:
                raise unknown_op(r, op) from None
            value = handler(self, ctx, op)

    def op_send(self, ctx: RankCtx, op: SendOp) -> None:
        self.dirty.add(op.dst)
        self.inject(ctx, op, self.delivery.send)

    def op_put(self, ctx: RankCtx, op: PutOp) -> None:
        self.require_one_sided(ctx.rank, "put")
        if self.rma_strict:
            r = ctx.rank
            other = next((w.origin for w in self.rma_pending
                          if w.dst == op.dst and w.key == op.key
                          and w.origin != r),
                         self.epoch_applied.get((op.dst, op.key), r))
            if other != r:
                raise self.diagnosed(RMAConflictError(r, op.dst, op.key,
                                                      other))
        self.inject(ctx, op, Engine.write)

    def inject(self, ctx: RankCtx, op: SendOp | PutOp,
               deliver: Callable) -> None:
        """A send or put leaves ``ctx.rank``: injection overhead on the
        origin, message accounting, α-β latency in flight;
        ``deliver(engine, ctx, op, lat)`` queues what lands and returns its
        message id."""
        net = self.net
        t0 = ctx.clock
        ctx.clock = t0 + net.send_overhead
        ctx._charge(op.category, net.send_overhead)
        ctx._charge_msg(op.category, op.nbytes)
        self.progress = self.events
        same = self.machine.same_node(ctx.rank, op.dst)
        lat = net.latency(op.nbytes, same)
        seq = deliver(self, ctx, op, lat)
        if self.observers:
            alpha = net.alpha_intra if same else net.alpha_inter
            for o in self.observers:
                o.on_send(ctx.rank, seq, op.nbytes, lat, ctx.phase,
                          op.category, ctx.sync, op.dst, t0, ctx.clock, alpha)

    def post(self, dst: int, arrival: float, src: int, tag: Hashable,
             payload: Any, nbytes: int, checksum: int | None = None) -> int:
        """Queue one message in ``dst``'s mailbox; its id."""
        seq = self.seq
        self.mailbox[dst].append(
            _Message(arrival, seq, src, tag, payload, nbytes, checksum))
        self.seq = seq + 1
        return seq

    def write(self, ctx: RankCtx, op: PutOp, lat: float) -> None:
        """Issue one put: in flight until its origin's next flush/fence."""
        self.rma_pending.append(_PendingWrite(
            ctx.clock + lat, self.seq, ctx.rank, op.dst, op.key,
            _copy_payload(op.payload), op.nbytes))
        self.seq += 1
        self.rma_put_bytes += op.nbytes
        self.rma_live[op.dst] += op.nbytes
        self.rma_peak[op.dst] = max(self.rma_peak[op.dst],
                                    self.rma_live[op.dst])

    def op_compute(self, ctx: RankCtx, op: ComputeOp) -> None:
        t0 = ctx.clock
        seconds = op.seconds
        if self.faults is not None:
            scale = self.faults.compute_scale(ctx.rank, t0)
            if scale != 1.0:
                self.fault(ctx.rank, "slowdown", ctx.rank, ctx.rank, None,
                           f"x{scale:g}")
                seconds *= scale
        ctx.clock = t0 + seconds
        # Zero-second computes still create the (phase, category) label,
        # so observers are told about them too.
        ctx._charge(op.category, seconds)
        if seconds > 0:
            self.progress = self.events
        for o in self.observers:
            o.on_compute(ctx.rank, seconds, ctx.phase, op.category, t0,
                         ctx.clock, op.flops)

    def op_recv(self, ctx: RankCtx, op: RecvOp):
        self.state[ctx.rank] = _RECV
        self.pending[ctx.rank] = op
        if op.timeout is not None:
            self.deadline[ctx.rank] = ctx.clock + op.timeout
        return PARKED

    def op_fence(self, ctx: RankCtx, op: FenceOp):
        self.require_one_sided(ctx.rank, "fence")
        self.state[ctx.rank] = _FENCE
        self.pending[ctx.rank] = op
        return PARKED

    def op_flush(self, ctx: RankCtx, op: FlushOp) -> None:
        r = ctx.rank
        for o in self.observers:
            o.on_flush(r, op.dst, ctx.phase, op.category)
        mine = [w for w in self.rma_pending
                if w.origin == r and (op.dst is None or w.dst == op.dst)]
        if not mine:
            return
        for w in mine:
            self.rma_pending.remove(w)
        self.apply_writes(mine)
        landed = max(w.arrival for w in mine)
        if landed > ctx.clock:
            self.wait(r, op.category, landed, (), landed, "flush")

    def op_read(self, ctx: RankCtx, op: ReadOp) -> Any:
        r = ctx.rank
        if self.rma_strict:
            for w in self.rma_pending:
                if w.dst == r and w.key == op.key:
                    raise self.diagnosed(RMAConflictError(
                        r, r, op.key, w.origin, what="read"))
        if op.key not in self.windows[r]:
            raise self.diagnosed(RMAError(
                f"rank {r} read window key {op.key!r} before any put to it "
                f"was applied (missing flush/fence?)"))
        return self.windows[r][op.key]

    def require_one_sided(self, r: int, what: str) -> None:
        if not self.one_sided:
            raise self.diagnosed(RMAError(
                f"rank {r} issued a one-sided {what} under fault injection "
                f"/ reliable transport; RMA semantics are defined only on "
                f"the lossless path"))

    def apply_writes(self, writes: list[_PendingWrite]) -> None:
        """Land writes on their target windows in (arrival, seq) order —
        the completion order the network model defines."""
        for w in sorted(writes, key=lambda w: (w.arrival, w.seq)):
            self.windows[w.dst][w.key] = w.payload
            self.rma_live[w.dst] -= w.nbytes
            self.rma_applied_bytes += w.nbytes
            self.epoch_applied[(w.dst, w.key)] = w.origin

    # -- completing a wait ----------------------------------------------------

    def wait(self, r: int, category: str, until: float,
             overheads: tuple[float, ...], arrival: float | None, peer: Any,
             seq: int | None = None) -> None:
        """Rank r's blocking wait (recv, timeout, flush, fence) ends at
        ``until``: idle up to it, pay ``overheads`` one by one, charge the
        lot to ``category``, tell the observers and make the rank runnable.
        """
        ctx = self.ctxs[r]
        t0 = ctx.clock
        charged = max(0.0, until - t0)
        clock = max(t0, until)
        for o in overheads:
            clock += o
            charged += o
        ctx.clock = clock
        ctx._charge(category, charged)
        # An expired deadline is progress only if time passed.
        if arrival is not None or charged > 0.0:
            self.progress = self.events
        if seq is not None:
            self.delivery.ack(self, ctx, category)
        for o in self.observers:
            o.on_recv(r, seq, ctx.phase, category, ctx.sync, t0, arrival,
                      ctx.clock, peer)
        self.state[r] = _READY
        self.pending[r] = None
        self.deadline[r] = _INF

    def expire(self, r: int) -> None:
        """Rank r's receive deadline passed with nothing delivered."""
        spec = self.pending[r]
        self.wait(r, spec.category, self.deadline[r], (), None, "timeout")
        self.resume(r, exc=RecvTimeout(r, spec.src, spec.tag, spec.timeout))

    def deliver(self, r: int) -> None:
        """Hand rank r the message its parked receive matched."""
        spec, box = self.pending[r], self.mailbox[r]
        if self.strict_match and spec.src is ANY:
            srcs = {box[i].src for i in _matching(spec, box)}
            if len(srcs) >= 2:
                # The recv is withdrawn without consuming either candidate
                # (mirrors the ChecksumError flow).
                self.state[r] = _READY
                self.pending[r] = None
                self.deadline[r] = _INF
                return self.resume(r, exc=AmbiguousRecvError(
                    r, spec.tag, sorted(srcs)))
        m = box.pop(self.matched[r])
        self.wait(r, spec.category, m.arrival, (self.net.recv_overhead,),
                  m.arrival, m.src, m.seq)
        self.resume(r, (m.src, m.tag, m.payload),
                    self.delivery.verify(self, self.ctxs[r], m))

    # -- faults and diagnostics -----------------------------------------------

    def fault(self, rank: int, kind: str, src: int, dst: int, tag: Any = None,
              note: str = "") -> None:
        """Log one fault event at ``rank``'s clock and tell the observers."""
        ctx = self.ctxs[rank]
        ev = self.faults.record(kind, ctx.clock, src, dst, tag, note)
        for o in self.observers:
            o.on_fault(rank, ctx.phase, ev)

    def diagnosed(self, err: Exception) -> Exception:
        """Attach diagnostics to a typed scheduler error before raising."""
        err.sim_time = float(max(c.clock for c in self.ctxs))
        err.fault_events = (list(self.faults.events)
                            if self.faults is not None else [])
        return err

    def stalled(self) -> Exception:
        live = [r for r in range(self.n) if self.state[r] != _DONE]
        return self.diagnosed(StallError(
            f"no virtual-clock progress across {self.wd} scheduler events "
            f"(livelock, not deadlock: {len(live)} rank(s) still "
            f"live); per-rank state:\n  {self.report(live)}"))

    def report(self, ranks: list[int]) -> str:
        """The first eight of ``ranks``, one wait + mailbox line each."""
        detail = "\n  ".join(self.mailbox_summary(r) for r in ranks[:8])
        more = ("" if len(ranks) <= 8
                else f"\n  ... and {len(ranks) - 8} more")
        return f"{detail}{more}"

    def mailbox_summary(self, r: int) -> str:
        """One rank's wait + pending-mailbox state, for error reports."""
        box, spec, phase = self.mailbox[r], self.pending[r], self.ctxs[r].phase
        if self.state[r] == _FENCE:
            head = (f"rank {r} (phase={phase!r}, at fence tag={spec.tag!r} "
                    f"waiting for the other live ranks)")
        elif spec is not None:
            head = (f"rank {r} (phase={phase!r}, "
                    f"waiting src={spec.src} tag={spec.tag})")
        else:
            head = f"rank {r} (phase={phase!r}, runnable)"
        if not box:
            return head + " [mailbox empty]"
        tags = list(dict.fromkeys(repr(m.tag) for m in sorted(box)))[:3]
        earliest = min(m.arrival for m in box)
        return (head + f" [mailbox: {len(box)} pending, earliest arrival "
                f"{earliest:.3e}s, tags {', '.join(tags)}]")

    def result(self) -> SimResult:
        ctxs = self.ctxs
        # Every rank exited; whatever is still in a mailbox was sent but
        # never received.  Surfaced (never silently discarded) so the
        # invariant layer can flag protocol leaks in fault-free runs.
        unconsumed = [UnconsumedMessage(dst=r, src=m.src, tag=m.tag,
                                        arrival=m.arrival, nbytes=m.nbytes)
                      for r in range(self.n)
                      for m in sorted(self.mailbox[r])]
        unapplied = [UnappliedPut(origin=w.origin, dst=w.dst, key=w.key,
                                  nbytes=w.nbytes)
                     for w in sorted(self.rma_pending, key=lambda w: w.seq)]
        return SimResult(
            clocks=np.array([c.clock for c in ctxs]),
            times=[c.times for c in ctxs],
            sent_msgs=[c.sent_msgs for c in ctxs],
            sent_bytes=[c.sent_bytes for c in ctxs],
            marks=[c.marks for c in ctxs],
            results=self.results,
            trace=self.tracelog.events if self.tracelog is not None else None,
            fault_events=(list(self.faults.events)
                          if self.faults is not None else None),
            crashed=self.crashed,
            unconsumed_msgs=unconsumed,
            rma_put_bytes=self.rma_put_bytes,
            rma_applied_bytes=self.rma_applied_bytes,
            rma_peak_bytes=list(self.rma_peak),
            unapplied_puts=unapplied,
        )


class Simulator:
    """Run a message-passing program over ``nranks`` simulated ranks.

    Resilience knobs (all default off; see ``docs/FAULTS.md``):

    - ``faults``: a :class:`~repro.comm.faults.FaultPlan` injecting seeded,
      deterministic message/rank faults.
    - ``reliable``: ``True`` or a :class:`~repro.comm.faults.ReliableTransport`
      — ack/retransmit envelope around every message.
    - ``checksums``: stamp payload checksums at send, verify on delivery;
      mismatches raise :class:`~repro.comm.faults.ChecksumError` in the
      receiver.
    - ``watchdog_events``: raise :class:`~repro.comm.faults.StallError`
      after this many scheduler events without virtual-clock progress
      (livelock detector; a true deadlock still raises
      :class:`DeadlockError`).

    Observability (see ``docs/OBSERVABILITY.md``): ``metrics`` attaches a
    :class:`~repro.obs.metrics.MetricsRegistry` that records per-rank,
    per-phase counters and the send/recv dependency graph.  Recording is
    purely observational — virtual clocks are bit-identical with and
    without it.

    Checking (see ``docs/CHECKING.md``): ``invariants=True`` runs the
    :mod:`repro.comm.invariants` simulation checks (clock/time
    conservation, no unconsumed mailbox messages in fault-free runs) on
    the result before returning it — also purely observational; a
    violation raises
    :class:`~repro.comm.invariants.InvariantViolation`.
    """

    def __init__(self, nranks: int, machine, max_events: int = 50_000_000,
                 trace: bool = False, faults: FaultPlan | None = None,
                 reliable: bool | ReliableTransport = False,
                 checksums: bool = False,
                 watchdog_events: int | None = None,
                 metrics=None, invariants: bool = False,
                 strict_match: bool = False, rma_strict: bool = False,
                 recorder=None):
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        self.nranks = nranks
        self.machine = machine
        self.max_events = max_events
        self.trace = trace
        self.faults = faults
        self.metrics = metrics
        self.invariants = invariants
        if reliable is True:
            self.transport: ReliableTransport | None = ReliableTransport()
        elif reliable:
            self.transport = reliable
        else:
            self.transport = None
        self.checksums = checksums
        self.watchdog_events = watchdog_events
        self.strict_match = strict_match
        # Dynamic overlapping-write detection for one-sided ops: a put (or
        # local read) that races an unordered write to the same window key
        # raises RMAConflictError instead of silently picking a winner.
        self.rma_strict = rma_strict
        # Flat-op tape recorder (repro.replay.tape.TapeRecorder).  Only
        # meaningful on the fault-free, unreliable path — the replay fast
        # path's precondition; purely observational like ``metrics``.
        self.recorder = recorder

    def run(self, rank_fn: Callable[[RankCtx], Iterable]) -> SimResult:
        """Execute ``rank_fn(ctx)`` as a generator on every rank.

        ``rank_fn`` may also return a non-generator (rank does nothing).
        Returns a :class:`SimResult`; generator return values become
        ``results``.
        """
        engine = Engine(self, rank_fn)
        engine.run()
        result = engine.result()
        if self.invariants:
            check_sim(result, faulted=self.faults is not None)
        return result
