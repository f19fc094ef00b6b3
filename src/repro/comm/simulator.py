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
    transport, tape recording)."""


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


@dataclass
class _SendOp:
    dst: int
    payload: Any
    tag: Hashable
    nbytes: int
    category: str


@dataclass
class _RecvOp:
    src: Any
    tag: Any
    category: str
    timeout: float | None = None


@dataclass
class _ComputeOp:
    seconds: float
    category: str
    flops: float = 0.0   # metrics-only annotation; never affects the clock
    nbytes: float = 0.0  # memory traffic of the op; annotation like flops


@dataclass
class _PutOp:
    dst: int
    key: Hashable
    payload: Any
    nbytes: int
    category: str


@dataclass
class _FlushOp:
    dst: int | None      # None flushes this origin's writes to every target
    category: str


@dataclass
class _FenceOp:
    tag: Hashable
    category: str


@dataclass
class _ReadOp:
    key: Hashable
    category: str


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
    """Per-rank handle: build ops to ``yield`` and accumulate timing."""

    def __init__(self, rank: int, nranks: int, machine):
        self.rank = rank
        self.nranks = nranks
        self.machine = machine
        self.clock = 0.0
        self.phase = ""
        self.sync = ""
        self.times: dict[tuple[str, str], float] = {}
        self.sent_msgs: dict[tuple[str, str], int] = {}
        self.sent_bytes: dict[tuple[str, str], float] = {}
        self.marks: dict[str, float] = {}
        # Tape recorder hook (repro.replay); None outside recording runs.
        self._recorder = None

    # -- op builders (use as `yield ctx.send(...)`) -------------------------

    def send(self, dst: int, payload: Any, tag: Hashable = None,
             nbytes: int | None = None, category: str = "comm") -> _SendOp:
        """Eager buffered send of ``payload`` to rank ``dst``."""
        if not (0 <= dst < self.nranks):
            raise ValueError(f"send to invalid rank {dst}")
        if nbytes is None:
            nbytes = _payload_nbytes(payload)
        return _SendOp(dst, payload, tag, nbytes, category)

    def recv(self, src: Any = ANY, tag: Any = ANY,
             category: str = "comm", timeout: float | None = None) -> _RecvOp:
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
        return _RecvOp(src, tag, category, timeout)

    def compute(self, seconds: float, category: str = "fp",
                flops: float = 0.0, nbytes: float = 0.0) -> _ComputeOp:
        """Advance the local clock by ``seconds`` of work.

        ``flops`` and ``nbytes`` are metrics-only annotations (recorded
        when a :class:`~repro.obs.metrics.MetricsRegistry` is attached,
        and folded into static schedules by :mod:`repro.analyze`); they
        never influence the virtual clock.
        """
        if seconds < 0:
            raise ValueError("compute time must be >= 0")
        return _ComputeOp(seconds, category, flops, nbytes)

    def put(self, dst: int, key: Hashable, payload: Any,
            nbytes: int | None = None, category: str = "comm") -> _PutOp:
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
        return _PutOp(dst, key, payload, nbytes, category)

    def flush(self, dst: int | None = None,
              category: str = "comm") -> _FlushOp:
        """Complete this rank's outstanding puts to ``dst`` (all targets
        when ``None``): blocks until their payloads have landed and applies
        them to the target windows."""
        if dst is not None and not (0 <= dst < self.nranks):
            raise ValueError(f"flush of invalid rank {dst}")
        return _FlushOp(dst, category)

    def fence(self, tag: Hashable = None,
              category: str = "comm") -> _FenceOp:
        """Epoch boundary: collective barrier that completes every rank's
        outstanding puts.  All live ranks must reach a fence for it to
        complete; afterwards every write issued before any rank's fence is
        visible to every :meth:`read`."""
        return _FenceOp(tag, category)

    def read(self, key: Hashable, category: str = "comm") -> _ReadOp:
        """Local, zero-cost read of this rank's own window; yields the
        payload most recently applied under ``key``.  Reading a key no
        flush/fence has applied yet raises :class:`RMAError`."""
        hash(key)
        return _ReadOp(key, category)

    def gemm(self, m: int, n: int, k: int, category: str = "fp") -> _ComputeOp:
        """Convenience: a dense m×k @ k×n on this rank's CPU model."""
        fl = gemm_flops(m, n, k)
        nb = gemm_bytes(m, n, k)
        t = self.machine.cpu.op_time(fl, nb)
        return _ComputeOp(t, category, fl, nb)

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
        if self._recorder is not None:
            self._recorder.on_mark(self.rank, name)

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


_READY, _RECV, _DONE, _FENCE = 0, 1, 2, 3

# Sort marker so an expiring timeout loses ties against a real message with
# the same virtual timestamp.
_TIMEOUT = -1


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
    :mod:`repro.check.invariants` simulation checks (clock/time
    conservation, no unconsumed mailbox messages in fault-free runs) on
    the result before returning it — also purely observational; a
    violation raises
    :class:`~repro.check.invariants.InvariantViolation`.
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
        n = self.nranks
        ctxs = [RankCtx(r, n, self.machine) for r in range(n)]
        gens: list[Any] = []
        for r in range(n):
            g = rank_fn(ctxs[r])
            gens.append(g if hasattr(g, "send") else iter(()))
        state = [_READY] * n
        pending_recv: list[_RecvOp | None] = [None] * n
        deadline: list[float | None] = [None] * n
        results: list[Any] = [None] * n
        mailbox: list[list[_Message]] = [[] for _ in range(n)]
        # Scheduling cache: each rank's key and matched message index (or
        # _TIMEOUT), recomputed only for ranks in ``dirty`` — those whose
        # state, pending receive or mailbox changed since the last event.
        inf = float("inf")
        idle = (inf, inf, n)            # sorts after every real key
        keys = [idle] * n
        matched: list[int | None] = [None] * n
        dirty = set(range(n))
        seq = 0
        events = 0
        started = [False] * n
        trace: list[TraceEvent] | None = [] if self.trace else None
        mreg = self.metrics
        if mreg is not None:
            mreg.start_run(n, self.machine)
        rec = self.recorder
        if rec is not None:
            for c in ctxs:
                c._recorder = rec
        fstate = self.faults.start_run() if self.faults is not None else None
        transport = self.transport
        net = self.machine.net
        rto = transport.base_rto(net) if transport is not None else 0.0
        crashed: list[int] = []
        # Watchdog bookkeeping: the event count at the last clock advance.
        wd = self.watchdog_events
        wd_progress = 0
        # One-sided state: per-rank windows, issued-but-unapplied writes,
        # fence parking, and the strict-mode same-epoch application map.
        windows: list[dict[Hashable, Any]] = [{} for _ in range(n)]
        rma_pending: list[_PendingWrite] = []
        pending_fence: list[_FenceOp | None] = [None] * n
        fence_t0 = [0.0] * n
        epoch_applied: dict[tuple[int, Hashable], int] = {}
        rma_live = [0] * n
        rma_peak = [0] * n
        rma_put_bytes = 0
        rma_applied_bytes = 0

        def apply_writes(writes: list[_PendingWrite]) -> None:
            """Land writes on their target windows in (arrival, seq) order —
            the completion order the network model defines."""
            nonlocal rma_applied_bytes
            for w in sorted(writes, key=lambda w: (w.arrival, w.seq)):
                windows[w.dst][w.key] = w.payload
                rma_live[w.dst] -= w.nbytes
                rma_applied_bytes += w.nbytes
                epoch_applied[(w.dst, w.key)] = w.origin

        def fault_trace(ev: FaultEvent, rank: int) -> None:
            if trace is not None:
                trace.append(TraceEvent(rank, ev.time, ev.time, "fault",
                                        ctxs[rank].phase, ev.kind,
                                        {"src": ev.src, "dst": ev.dst,
                                         "tag": ev.tag, "note": ev.note}))

        def match(r: int) -> int | None:
            """Index of the earliest-arriving matching message for rank r."""
            spec = pending_recv[r]
            best = None
            best_key = None
            for i, m in enumerate(mailbox[r]):
                if spec.src is not ANY and m.src != spec.src:
                    continue
                if spec.tag is not ANY:
                    if callable(spec.tag):
                        if not spec.tag(m.tag):
                            continue
                    elif m.tag != spec.tag:
                        continue
                key = (m.arrival, m.seq)
                if best_key is None or key < best_key:
                    best, best_key = i, key
            return best

        def refresh(r: int) -> None:
            """Recompute rank r's scheduling key; a finished, fenced or
            unmatched rank without a deadline is not a candidate."""
            keys[r] = idle
            if state[r] == _READY:
                keys[r] = (ctxs[r].clock, 0.0, r)
            elif state[r] == _RECV:
                matched[r] = midx = match(r)
                if midx is not None:
                    m = mailbox[r][midx]
                    keys[r] = (max(ctxs[r].clock, m.arrival), m.arrival, r)
                elif deadline[r] is not None:
                    # No message can beat the deadline: any rank able to
                    # send earlier has a smaller key and runs first.
                    keys[r] = (deadline[r], inf, r)
                    matched[r] = _TIMEOUT

        def mailbox_summary(r: int) -> str:
            """One rank's wait + pending-mailbox state, for error reports."""
            box = mailbox[r]
            spec = pending_recv[r]
            if state[r] == _FENCE:
                head = (f"rank {r} (phase={ctxs[r].phase!r}, at fence "
                        f"tag={pending_fence[r].tag!r} waiting for the "
                        f"other live ranks)")
            elif spec is not None:
                head = (f"rank {r} (phase={ctxs[r].phase!r}, "
                        f"waiting src={spec.src} tag={spec.tag})")
            else:
                head = f"rank {r} (phase={ctxs[r].phase!r}, runnable)"
            if not box:
                return head + " [mailbox empty]"
            tags = []
            for m in sorted(box):
                t = repr(m.tag)
                if t not in tags:
                    tags.append(t)
                if len(tags) == 3:
                    break
            earliest = min(m.arrival for m in box)
            return (head + f" [mailbox: {len(box)} pending, earliest arrival "
                    f"{earliest:.3e}s, tags {', '.join(tags)}]")

        def transmit(r: int, op: _SendOp, payload: Any, lat: float,
                     ctx: RankCtx):
            """Apply fault/transport policy to one send.

            Returns ``(deliver, arrival, decision)``; ``payload`` may be
            corrupted in place.  Only called when a fault plan or reliable
            transport is active.
            """
            if fstate is None:
                # Reliable transport without faults: nothing to retransmit.
                return True, ctx.clock + lat, None
            delay = 0.0
            attempt = 0
            while True:
                d = fstate.decide(r, op.dst, op.tag, ctx.clock)
                if d.extra_delay > 0.0:
                    delay += d.extra_delay
                    fault_trace(fstate.record(
                        "delay", ctx.clock, r, op.dst, op.tag,
                        f"+{d.extra_delay:.3e}s"), r)
                # Under the reliable envelope a corrupted copy is detected
                # by its checksum and retransmitted like a drop; without
                # checksums corruption is undetectable even when "reliable".
                failed = d.drop or (d.corrupt and transport is not None
                                    and self.checksums)
                if d.drop:
                    fault_trace(fstate.record(
                        "drop", ctx.clock, r, op.dst, op.tag,
                        f"attempt {attempt}"), r)
                if not failed:
                    if d.corrupt:
                        if corrupt_payload(payload, fstate.rng):
                            fault_trace(fstate.record(
                                "corrupt", ctx.clock, r, op.dst, op.tag,
                                "bit flip"), r)
                    if d.duplicate:
                        kind = ("dup-suppressed" if transport is not None
                                else "duplicate")
                        fault_trace(fstate.record(
                            kind, ctx.clock, r, op.dst, op.tag), r)
                        d.duplicate = transport is None
                    if d.reorder:
                        kind = ("reorder-suppressed" if transport is not None
                                else "reorder")
                        fault_trace(fstate.record(
                            kind, ctx.clock, r, op.dst, op.tag), r)
                        d.reorder = transport is None
                    return True, ctx.clock + delay + lat, d
                if transport is None:
                    return False, 0.0, None
                if attempt >= transport.max_retries:
                    fault_trace(fstate.record(
                        "lost", ctx.clock, r, op.dst, op.tag,
                        f"gave up after {attempt} retries"), r)
                    return False, 0.0, None
                delay += rto * (transport.backoff ** attempt)
                attempt += 1
                # The retransmitted copy is real traffic: count it.
                ctx._charge_msg(op.category, op.nbytes)
                if mreg is not None:
                    mreg.on_retransmit(r, ctx.phase, op.category, op.nbytes)
                fault_trace(fstate.record(
                    "retransmit", ctx.clock, r, op.dst, op.tag,
                    f"attempt {attempt}, backoff {delay:.3e}s"), r)

        def advance(r: int, value: Any, exc: BaseException | None = None) -> None:
            """Run rank r's generator until it blocks on a recv or finishes.

            ``exc`` (RecvTimeout/ChecksumError) is thrown into the
            generator at the yield point instead of sending a value.
            """
            nonlocal seq, events, wd_progress, rma_put_bytes
            ctx = ctxs[r]
            gen = gens[r]
            while True:
                events += 1
                if events > self.max_events:
                    raise RuntimeError("simulation exceeded max_events")
                if wd is not None and events - wd_progress > wd:
                    raise stall_error()
                if fstate is not None and fstate.crash_due(r, ctx.clock):
                    state[r] = _DONE
                    results[r] = None
                    crashed.append(r)
                    fault_trace(fstate.record("crash", ctx.clock, r, r, None,
                                              f"rank {r} crashed"), r)
                    gen.close()
                    return
                try:
                    if not started[r]:
                        started[r] = True
                        op = next(gen)
                    elif exc is not None:
                        op = gen.throw(exc)
                        exc = None
                    else:
                        op = gen.send(value)
                except StopIteration as stop:
                    state[r] = _DONE
                    results[r] = stop.value
                    return
                except Exception as e:
                    # Anything escaping a rank — uncaught RecvTimeout or
                    # ChecksumError, but also kernel sanity errors provoked
                    # by injected faults: attach scheduler diagnostics
                    # (sim_time, fault_events) on the way out.
                    raise finalize_error(e)
                value = None
                if isinstance(op, _SendOp):
                    dirty.add(op.dst)
                    t0 = ctx.clock
                    ctx.clock += net.send_overhead
                    ctx._charge(op.category, net.send_overhead)
                    ctx._charge_msg(op.category, op.nbytes)
                    if wd is not None:
                        wd_progress = events
                    same = self.machine.same_node(r, op.dst)
                    lat = net.latency(op.nbytes, same)
                    msg_seq = None
                    if fstate is None and transport is None:
                        mailbox[op.dst].append(
                            _Message(ctx.clock + lat, seq, r, op.tag,
                                     _copy_payload(op.payload), op.nbytes))
                        msg_seq = seq
                        seq += 1
                        if rec is not None:
                            rec.on_send(r, msg_seq, op.nbytes, lat,
                                        ctx.phase, op.category)
                    else:
                        payload = _copy_payload(op.payload)
                        # Checksum is stamped over the *sent* data, before
                        # any in-flight corruption, so mismatches surface.
                        csum = (payload_checksum(payload)
                                if self.checksums else None)
                        deliver, arrival, d = transmit(r, op, payload, lat,
                                                       ctx)
                        if deliver:
                            mailbox[op.dst].append(
                                _Message(arrival, seq, r, op.tag, payload,
                                         op.nbytes, csum))
                            msg_seq = seq
                            seq += 1
                            if d is not None and d.duplicate:
                                mailbox[op.dst].append(
                                    _Message(arrival + lat, seq, r, op.tag,
                                             _copy_payload(payload),
                                             op.nbytes, csum))
                                seq += 1
                            if d is not None and d.reorder:
                                self._apply_reorder(mailbox[op.dst], r)
                    if mreg is not None:
                        alpha = (net.alpha_intra if same
                                 else net.alpha_inter)
                        mreg.on_send(r, ctx.phase, ctx.sync, op.category,
                                     msg_seq, op.dst, op.nbytes, t0,
                                     ctx.clock, alpha, lat - alpha)
                    if trace is not None:
                        trace.append(TraceEvent(r, t0, ctx.clock, "send",
                                                ctx.phase, op.category,
                                                op.dst))
                elif isinstance(op, _ComputeOp):
                    t0 = ctx.clock
                    seconds = op.seconds
                    if fstate is not None:
                        scale = fstate.compute_scale(r, ctx.clock)
                        if scale != 1.0:
                            fault_trace(fstate.record(
                                "slowdown", ctx.clock, r, r, None,
                                f"x{scale:g}"), r)
                            seconds *= scale
                    ctx.clock += seconds
                    ctx._charge(op.category, seconds)
                    # Zero-second computes still create the (phase,
                    # category) label above, so the tape keeps them too.
                    if rec is not None:
                        rec.on_compute(r, seconds, ctx.phase, op.category)
                    if mreg is not None and seconds > 0:
                        mreg.on_compute(r, ctx.phase, op.category, t0,
                                        ctx.clock, op.flops)
                    if wd is not None and seconds > 0:
                        wd_progress = events
                    if trace is not None and seconds > 0:
                        trace.append(TraceEvent(r, t0, ctx.clock, "compute",
                                                ctx.phase, op.category))
                elif isinstance(op, _RecvOp):
                    state[r] = _RECV
                    pending_recv[r] = op
                    deadline[r] = (ctx.clock + op.timeout
                                   if op.timeout is not None else None)
                    return
                elif isinstance(op, _PutOp):
                    if (fstate is not None or transport is not None
                            or rec is not None):
                        raise finalize_error(RMAError(
                            f"rank {r} issued a one-sided put under fault "
                            f"injection / reliable transport / tape "
                            f"recording; RMA semantics are defined only on "
                            f"the lossless, unrecorded path"))
                    if self.rma_strict:
                        clash = next(
                            (w for w in rma_pending
                             if w.dst == op.dst and w.key == op.key
                             and w.origin != r), None)
                        prev = epoch_applied.get((op.dst, op.key))
                        if clash is not None:
                            raise finalize_error(RMAConflictError(
                                r, op.dst, op.key, clash.origin))
                        if prev is not None and prev != r:
                            raise finalize_error(RMAConflictError(
                                r, op.dst, op.key, prev))
                    t0 = ctx.clock
                    ctx.clock += net.send_overhead
                    ctx._charge(op.category, net.send_overhead)
                    ctx._charge_msg(op.category, op.nbytes)
                    if wd is not None:
                        wd_progress = events
                    same = self.machine.same_node(r, op.dst)
                    lat = net.latency(op.nbytes, same)
                    rma_pending.append(_PendingWrite(
                        ctx.clock + lat, seq, r, op.dst, op.key,
                        _copy_payload(op.payload), op.nbytes))
                    seq += 1
                    rma_put_bytes += op.nbytes
                    rma_live[op.dst] += op.nbytes
                    rma_peak[op.dst] = max(rma_peak[op.dst],
                                           rma_live[op.dst])
                    if mreg is not None:
                        alpha = (net.alpha_intra if same
                                 else net.alpha_inter)
                        mreg.on_send(r, ctx.phase, ctx.sync, op.category,
                                     None, op.dst, op.nbytes, t0,
                                     ctx.clock, alpha, lat - alpha)
                    if trace is not None:
                        trace.append(TraceEvent(r, t0, ctx.clock, "send",
                                                ctx.phase, op.category,
                                                op.dst))
                elif isinstance(op, _FlushOp):
                    t0 = ctx.clock
                    mine = [w for w in rma_pending
                            if w.origin == r
                            and (op.dst is None or w.dst == op.dst)]
                    if mine:
                        t_done = max(ctx.clock,
                                     max(w.arrival for w in mine))
                        wait = t_done - ctx.clock
                        ctx.clock = t_done
                        for w in mine:
                            rma_pending.remove(w)
                        apply_writes(mine)
                        if wait > 0:
                            ctx._charge(op.category, wait)
                            if wd is not None:
                                wd_progress = events
                            if mreg is not None:
                                mreg.on_wait(r, ctx.phase, ctx.sync,
                                             op.category, t0, t_done,
                                             ctx.clock, None, None)
                            if trace is not None:
                                trace.append(TraceEvent(
                                    r, t0, ctx.clock, "wait", ctx.phase,
                                    op.category, "flush"))
                elif isinstance(op, _FenceOp):
                    if (fstate is not None or transport is not None
                            or rec is not None):
                        raise finalize_error(RMAError(
                            f"rank {r} issued a one-sided fence under fault "
                            f"injection / reliable transport / tape "
                            f"recording; RMA semantics are defined only on "
                            f"the lossless, unrecorded path"))
                    state[r] = _FENCE
                    pending_fence[r] = op
                    fence_t0[r] = ctx.clock
                    return
                elif isinstance(op, _ReadOp):
                    if self.rma_strict:
                        clash = next(
                            (w for w in rma_pending
                             if w.dst == r and w.key == op.key), None)
                        if clash is not None:
                            raise finalize_error(RMAConflictError(
                                r, r, op.key, clash.origin, what="read"))
                    if op.key not in windows[r]:
                        raise finalize_error(RMAError(
                            f"rank {r} read window key {op.key!r} before "
                            f"any put to it was applied (missing "
                            f"flush/fence?)"))
                    value = windows[r][op.key]
                else:
                    raise TypeError(
                        f"rank {r} yielded {op!r}; yield "
                        f"ctx.send/recv/compute/put/flush/fence/read")

        def finalize_error(err: Exception) -> Exception:
            """Attach diagnostics to a typed scheduler error before raising."""
            err.sim_time = float(max(c.clock for c in ctxs))
            err.fault_events = list(fstate.events) if fstate is not None else []
            return err

        def stall_error() -> Exception:
            running = [r for r in range(n) if state[r] != _DONE]
            detail = "\n  ".join(mailbox_summary(r) for r in running[:8])
            more = ("" if len(running) <= 8
                    else f"\n  ... and {len(running) - 8} more")
            return finalize_error(StallError(
                f"no virtual-clock progress across {wd} scheduler events "
                f"(livelock, not deadlock: {len(running)} rank(s) still "
                f"live); per-rank state:\n  {detail}{more}"))

        while True:
            if wd is not None and events - wd_progress > wd:
                raise stall_error()
            for r in dirty:
                refresh(r)
            dirty.clear()
            r = min(keys)[2]
            if r == n:
                blocked = [r for r in range(n) if state[r] != _DONE]
                if not blocked:
                    break
                fencing = [r for r in blocked if state[r] == _FENCE]
                if fencing and len(fencing) == len(blocked):
                    # Epoch boundary: every live rank reached its fence and
                    # nothing else can run.  The fence completes at the
                    # latest of the entry clocks and the in-flight write
                    # arrivals; every pending write is applied, then each
                    # rank pays the barrier round-trip (one control send +
                    # recv) on top of its wait.
                    t_f = max(max(fence_t0[r] for r in fencing),
                              max((w.arrival for w in rma_pending),
                                  default=0.0))
                    writes = list(rma_pending)
                    rma_pending.clear()
                    apply_writes(writes)
                    epoch_applied.clear()
                    so, ro = net.send_overhead, net.recv_overhead
                    dirty.update(fencing)
                    for r in fencing:
                        ctx = ctxs[r]
                        fop = pending_fence[r]
                        t0 = fence_t0[r]
                        ctx.clock = t_f + so + ro
                        ctx._charge(fop.category, (t_f - t0) + so + ro)
                        if mreg is not None:
                            mreg.on_wait(r, ctx.phase, ctx.sync,
                                         fop.category, t0, t_f, ctx.clock,
                                         None, None)
                        if trace is not None:
                            trace.append(TraceEvent(r, t0, ctx.clock,
                                                    "wait", ctx.phase,
                                                    fop.category, "fence"))
                        state[r] = _READY
                        pending_fence[r] = None
                    if wd is not None:
                        wd_progress = events
                    continue
                detail = "\n  ".join(mailbox_summary(r) for r in blocked[:8])
                more = ("" if len(blocked) <= 8
                        else f"\n  ... and {len(blocked) - 8} more")
                crash_note = (f" ({len(crashed)} rank(s) crashed: "
                              f"{crashed})" if crashed else "")
                raise finalize_error(DeadlockError(
                    f"{len(blocked)} rank(s) blocked with no matching "
                    f"messages{crash_note}:\n  {detail}{more}"))

            dirty.add(r)    # every branch below resumes rank r
            if state[r] == _READY:
                advance(r, None)
            elif matched[r] == _TIMEOUT:
                spec = pending_recv[r]
                ctx = ctxs[r]
                t0 = ctx.clock
                wait = max(0.0, deadline[r] - ctx.clock)
                ctx.clock = max(ctx.clock, deadline[r])
                ctx._charge(spec.category, wait)
                if mreg is not None:
                    mreg.on_wait(r, ctx.phase, ctx.sync, spec.category,
                                 t0, None, ctx.clock, None, None)
                if wd is not None and wait > 0:
                    wd_progress = events
                if trace is not None:
                    trace.append(TraceEvent(r, t0, ctx.clock, "wait",
                                            ctx.phase, spec.category,
                                            "timeout"))
                state[r] = _READY
                pending_recv[r] = None
                deadline[r] = None
                advance(r, None,
                        exc=RecvTimeout(r, spec.src, spec.tag, spec.timeout))
            else:
                spec = pending_recv[r]
                if self.strict_match and spec.src is ANY:
                    srcs: set[int] = set()
                    for m in mailbox[r]:
                        if spec.tag is not ANY:
                            if callable(spec.tag):
                                if not spec.tag(m.tag):
                                    continue
                            elif m.tag != spec.tag:
                                continue
                        srcs.add(m.src)
                    if len(srcs) >= 2:
                        # The recv is withdrawn without consuming either
                        # candidate (mirrors the ChecksumError flow).
                        state[r] = _READY
                        pending_recv[r] = None
                        deadline[r] = None
                        advance(r, None, exc=AmbiguousRecvError(
                            r, spec.tag, sorted(srcs)))
                        continue
                m = mailbox[r].pop(matched[r])
                ctx = ctxs[r]
                ro = net.recv_overhead
                t0 = ctx.clock
                wait = max(0.0, m.arrival - ctx.clock)
                ctx.clock = max(ctx.clock, m.arrival) + ro
                ctx._charge(spec.category, wait + ro)
                if rec is not None:
                    rec.on_recv(r, m.seq, ctx.phase, spec.category)
                if wd is not None:
                    wd_progress = events
                if transport is not None:
                    # The envelope acks every delivery: one control send.
                    ctx.clock += net.send_overhead
                    ctx._charge(spec.category, net.send_overhead)
                    ctx._charge_msg("ack", transport.ack_nbytes)
                    if mreg is not None:
                        mreg.on_ack(r, ctx.phase, "ack",
                                    transport.ack_nbytes)
                if mreg is not None:
                    mreg.on_wait(r, ctx.phase, ctx.sync, spec.category,
                                 t0, m.arrival, ctx.clock, m.seq, m.src)
                if trace is not None:
                    trace.append(TraceEvent(r, t0, ctx.clock, "wait",
                                            ctx.phase, spec.category, m.src))
                state[r] = _READY
                pending_recv[r] = None
                deadline[r] = None
                if m.checksum is not None and self.checksums:
                    actual = payload_checksum(m.payload)
                    if actual != m.checksum:
                        if fstate is not None:
                            fault_trace(fstate.record(
                                "checksum-fail", ctx.clock, m.src, r, m.tag),
                                r)
                        advance(r, None, exc=ChecksumError(
                            r, m.src, m.tag, m.checksum, actual))
                        continue
                advance(r, (m.src, m.tag, m.payload))

        # Every rank exited; whatever is still in a mailbox was sent but
        # never received.  Surfaced (never silently discarded) so the
        # invariant layer can flag protocol leaks in fault-free runs.
        unconsumed = [UnconsumedMessage(dst=r, src=m.src, tag=m.tag,
                                        arrival=m.arrival, nbytes=m.nbytes)
                      for r in range(n)
                      for m in sorted(mailbox[r])]
        unapplied = [UnappliedPut(origin=w.origin, dst=w.dst, key=w.key,
                                  nbytes=w.nbytes)
                     for w in sorted(rma_pending, key=lambda w: w.seq)]
        result = SimResult(
            clocks=np.array([c.clock for c in ctxs]),
            times=[c.times for c in ctxs],
            sent_msgs=[c.sent_msgs for c in ctxs],
            sent_bytes=[c.sent_bytes for c in ctxs],
            marks=[c.marks for c in ctxs],
            results=results,
            trace=trace,
            fault_events=list(fstate.events) if fstate is not None else None,
            crashed=crashed,
            unconsumed_msgs=unconsumed,
            rma_put_bytes=rma_put_bytes,
            rma_applied_bytes=rma_applied_bytes,
            rma_peak_bytes=list(rma_peak),
            unapplied_puts=unapplied,
        )
        if self.invariants:
            from repro.check.invariants import check_sim

            check_sim(result, faulted=self.faults is not None)
        return result

    @staticmethod
    def _apply_reorder(box: list[_Message], src: int) -> None:
        """Swap arrival times of the two newest pending messages from
        ``src`` in ``box`` (models out-of-order delivery on one link)."""
        newest = second = None
        for i, m in enumerate(box):
            if m.src != src:
                continue
            if newest is None or m.seq > box[newest].seq:
                newest, second = i, newest
            elif second is None or m.seq > box[second].seq:
                second = i
        if newest is not None and second is not None:
            box[newest].arrival, box[second].arrival = \
                box[second].arrival, box[newest].arrival
