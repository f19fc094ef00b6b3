"""Deterministic fault injection and resilience primitives for the runtime.

The paper's algorithms (Algs. 1-5) assume a lossless in-order fabric; this
module supplies the machinery to *break* that assumption on purpose and to
survive it.  A :class:`FaultPlan` is a seeded, deterministic policy attached
via ``Simulator(faults=...)``: it can drop, duplicate, delay-spike, reorder
or bit-corrupt messages matched by (src, dst, tag, virtual-time window), and
crash or slow down a rank at a virtual time.  Every injected event is
recorded as a :class:`FaultEvent` (surfaced on ``SimResult.fault_events``
and, with ``trace=True``, in the Chrome-trace export).

Detection/recovery primitives defined here and honored by the simulator:

- :class:`RecvTimeout` — raised *inside* the receiving rank when
  ``ctx.recv(..., timeout=...)`` expires, so protocols can react instead of
  hanging.
- :class:`ChecksumError` — raised on delivery when payload checksums are
  enabled (``Simulator(checksums=True)``) and the data was corrupted in
  flight.
- :class:`StallError` — the scheduler watchdog's report when the virtual
  clock stops advancing even though ranks keep executing (livelock), which
  is distinct from a true :class:`~repro.comm.simulator.DeadlockError`.
- :class:`ReliableTransport` — configuration of the opt-in ack/retransmit
  envelope (``Simulator(reliable=True)``): bounded retries with exponential
  virtual-time backoff, duplicate suppression, and per-message ack cost
  charged to the α-β model.

Determinism: all randomness flows through one ``numpy`` generator seeded
from the plan, and the simulator itself is deterministic, so identical
seeds reproduce identical fault schedules and virtual clocks.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np


# ---------------------------------------------------------------------------
# Typed errors (the "fail loudly and diagnosably" contract).
# ---------------------------------------------------------------------------


class CommFaultError(RuntimeError):
    """Base class for detected communication failures in the runtime."""


class RecvTimeout(CommFaultError):
    """A ``ctx.recv(..., timeout=...)`` expired with no matching message.

    Thrown *into* the waiting rank's generator (catchable at the yield
    point); if uncaught it propagates out of ``Simulator.run``.
    """

    def __init__(self, rank: int, src: Any, tag: Any, waited: float):
        self.rank = rank
        self.src = src
        self.tag = tag
        self.waited = waited
        super().__init__(
            f"rank {rank} recv(src={src}, tag={tag!r}) timed out after "
            f"{waited:.3e}s of virtual time")


class ChecksumError(CommFaultError):
    """A delivered payload failed checksum verification (bit corruption)."""

    def __init__(self, rank: int, src: int, tag: Any,
                 expected: int, actual: int):
        self.rank = rank
        self.src = src
        self.tag = tag
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"rank {rank} received corrupted payload from rank {src} "
            f"(tag={tag!r}): checksum {actual:#010x} != expected "
            f"{expected:#010x}")


class StallError(CommFaultError):
    """The watchdog saw no virtual-clock progress across many events.

    Unlike a deadlock (nothing runnable), a stall means ranks *are*
    executing — e.g. a zero-cost spin loop or a retransmit storm — without
    advancing virtual time.  The message reports per-rank scheduler state.
    """


# ---------------------------------------------------------------------------
# Payload checksums and corruption.
# ---------------------------------------------------------------------------


def payload_checksum(payload: Any) -> int:
    """CRC32 over a payload's bytes, recursing into containers.

    Type tags are mixed in so e.g. ``[a]`` and ``(a,)`` differ; non-array
    leaves hash their ``repr``.
    """
    def crc(acc: int, data: bytes) -> int:
        return zlib.crc32(data, acc)

    def walk(acc: int, p: Any) -> int:
        if isinstance(p, np.ndarray):
            acc = crc(acc, b"A")
            return crc(acc, np.ascontiguousarray(p).tobytes())
        if isinstance(p, np.generic):
            return crc(crc(acc, b"S"), p.tobytes())
        if isinstance(p, tuple):
            acc = crc(acc, b"T")
        elif isinstance(p, list):
            acc = crc(acc, b"L")
        elif isinstance(p, dict):
            acc = crc(acc, b"D")
            for k in sorted(p, key=repr):
                acc = walk(crc(acc, repr(k).encode()), p[k])
            return acc
        else:
            return crc(crc(acc, b"O"), repr(p).encode())
        for item in p:
            acc = walk(acc, item)
        return acc

    return walk(0, payload)


def _collect_arrays(payload: Any, out: list) -> None:
    if isinstance(payload, np.ndarray) and payload.nbytes:
        out.append(payload)
    elif isinstance(payload, (list, tuple)):
        for p in payload:
            _collect_arrays(p, out)
    elif isinstance(payload, dict):
        for v in payload.values():
            _collect_arrays(v, out)


def corrupt_payload(payload: Any, rng: np.random.Generator) -> bool:
    """Flip one random bit of one random array in ``payload`` (in place).

    Returns whether anything was corrupted (payloads with no array data are
    left untouched).  The payload must already be the simulator's private
    copy.
    """
    arrays: list[np.ndarray] = []
    _collect_arrays(payload, arrays)
    if not arrays:
        return False
    a = arrays[int(rng.integers(len(arrays)))]
    raw = a.view(np.uint8).reshape(-1)
    byte = int(rng.integers(raw.size))
    bit = int(rng.integers(8))
    raw[byte] ^= np.uint8(1 << bit)
    return True


# ---------------------------------------------------------------------------
# Fault events, rules, plans.
# ---------------------------------------------------------------------------


@dataclass
class FaultEvent:
    """One injected (or transport-handled) fault, for trace and reports."""

    kind: str          # drop | duplicate | corrupt | delay | reorder |
                       # retransmit | lost | crash | slowdown | dup-suppressed
    time: float
    src: int = -1
    dst: int = -1
    tag: Any = None
    note: str = ""


@dataclass(frozen=True)
class FaultRule:
    """Per-message fault probabilities over a match window.

    ``src``/``dst`` of ``None`` match any rank; ``tag`` may be ``None``
    (any), an exact value, or a predicate ``callable(tag) -> bool``.  The
    rule applies to sends initiated in virtual-time ``[t0, t1)``.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    corrupt: float = 0.0
    delay: float = 0.0
    delay_seconds: float = 1e-4
    reorder: float = 0.0
    src: int | None = None
    dst: int | None = None
    tag: Any = None
    t0: float = 0.0
    t1: float = math.inf

    def matches(self, src: int, dst: int, tag: Any, t: float) -> bool:
        if self.src is not None and src != self.src:
            return False
        if self.dst is not None and dst != self.dst:
            return False
        if not (self.t0 <= t < self.t1):
            return False
        if self.tag is not None:
            if callable(self.tag):
                if not self.tag(tag):
                    return False
            elif tag != self.tag:
                return False
        return True


@dataclass
class _Decision:
    """Combined outcome of all matching rules for one transmission attempt."""

    drop: bool = False
    duplicate: bool = False
    corrupt: bool = False
    reorder: bool = False
    extra_delay: float = 0.0

    def any(self) -> bool:
        return (self.drop or self.duplicate or self.corrupt or self.reorder
                or self.extra_delay > 0.0)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic fault-injection policy.

    Attach with ``Simulator(..., faults=plan)``.  ``rules`` are evaluated
    per transmission attempt in order; ``crash`` maps rank -> virtual crash
    time (the rank stops executing at its next scheduling point at or after
    that clock); ``slowdown`` maps rank -> ``(from_time, factor)`` scaling
    all later compute on that rank.

    Use :meth:`uniform` for the common "same rates everywhere" policy and
    :meth:`fork` to derive an independent-but-deterministic child plan
    (retry attempts, sweep points).
    """

    seed: Any = 0
    rules: tuple[FaultRule, ...] = ()
    crash: dict[int, float] = field(default_factory=dict)
    slowdown: dict[int, tuple[float, float]] = field(default_factory=dict)

    @classmethod
    def uniform(cls, seed: Any = 0, drop: float = 0.0, duplicate: float = 0.0,
                corrupt: float = 0.0, delay: float = 0.0,
                delay_seconds: float = 1e-4, reorder: float = 0.0,
                crash: dict[int, float] | None = None,
                slowdown: dict[int, tuple[float, float]] | None = None,
                ) -> "FaultPlan":
        """One rule matching every message, plus optional rank faults."""
        rule = FaultRule(drop=drop, duplicate=duplicate, corrupt=corrupt,
                         delay=delay, delay_seconds=delay_seconds,
                         reorder=reorder)
        return cls(seed=seed, rules=(rule,) if rule != FaultRule() else (),
                   crash=dict(crash or {}), slowdown=dict(slowdown or {}))

    def fork(self, k: int) -> "FaultPlan":
        """Derived plan with an independent RNG stream (same rules)."""
        base = self.seed if isinstance(self.seed, (list, tuple)) else [self.seed]
        return FaultPlan(seed=[*base, k], rules=self.rules,
                         crash=dict(self.crash), slowdown=dict(self.slowdown))

    def start_run(self) -> "FaultState":
        return FaultState(self)


@dataclass(frozen=True)
class FaultSchedule:
    """A virtual-time sequence of fault plans — escalation mid-run.

    ``phases`` is a tuple of ``(t0, t1, plan)`` windows in virtual time;
    :meth:`plan_at` returns the plan of the first window containing ``t``
    (``None`` outside every window = lossless fabric).  The serving tier
    (``SolveService(fault_schedule=...)``) consults this at each batch's
    dispatch instant, so a schedule models a fabric that degrades, gets
    byzantine, and heals while the service keeps running — the
    degraded-mode axis the adversarial scenarios sweep.

    Determinism: each phase holds an ordinary seeded :class:`FaultPlan`;
    the consumer forks it per batch exactly as it would a static plan.
    """

    phases: tuple = ()     # ((t0, t1, FaultPlan | None), ...)

    def __post_init__(self):
        for t0, t1, _plan in self.phases:
            if not t0 < t1:
                raise ValueError(f"fault phase window [{t0}, {t1}) is empty")

    def plan_at(self, t: float) -> "FaultPlan | None":
        for t0, t1, plan in self.phases:
            if t0 <= t < t1:
                return plan
        return None

    @property
    def end(self) -> float:
        """Virtual end of the last disturbance window (0.0 when empty)."""
        return max((t1 for _t0, t1, _p in self.phases), default=0.0)


def plan_for(kind: str, rate: float, seed: int, nranks: int,
             makespan: float) -> FaultPlan | None:
    """Deterministic fault plan for one ``(kind, rate, seed)`` chaos cell
    (``None`` when lossless), shared by the chaos cases of
    :mod:`repro.check.fuzz` and the fault phases of ``repro.scenarios``.
    ``makespan`` scales the time-valued faults: crash instants are placed
    inside it, delay spikes are ~10% of it.
    """
    if rate <= 0.0:
        return None
    if kind == "crash":
        # Interpret the rate as the fraction of ranks to crash, at
        # staggered points inside the expected run.
        ncrash = max(1, int(round(rate * nranks)))
        ranks = [1 + (seed + i * 7) % max(1, nranks - 1)
                 for i in range(ncrash)]
        crash = {r: makespan * (0.2 + 0.5 * i / max(1, ncrash))
                 for i, r in enumerate(dict.fromkeys(ranks))}
        return FaultPlan(seed=seed, crash=crash)
    if kind == "delay":
        # Delay spikes of ~10x the run's own scale stress reordering and
        # timeout logic without changing correctness by themselves.
        return FaultPlan.uniform(seed=seed, delay=rate,
                                 delay_seconds=makespan * 0.1)
    if kind in ("drop", "duplicate", "corrupt", "reorder"):
        return FaultPlan.uniform(seed=seed, **{kind: rate})
    raise ValueError(f"unknown fault kind {kind!r}")


class FaultState:
    """Mutable per-run state: the RNG stream, fired crashes, event log."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.rng = np.random.default_rng(plan.seed)
        self.events: list[FaultEvent] = []
        self._crashed: set[int] = set()

    def record(self, kind: str, time: float, src: int = -1, dst: int = -1,
               tag: Any = None, note: str = "") -> FaultEvent:
        ev = FaultEvent(kind, time, src, dst, tag, note)
        self.events.append(ev)
        return ev

    def decide(self, src: int, dst: int, tag: Any, t: float) -> _Decision:
        """Draw one transmission attempt's fate from the matching rules."""
        d = _Decision()
        for rule in self.plan.rules:
            if not rule.matches(src, dst, tag, t):
                continue
            if rule.drop and self.rng.random() < rule.drop:
                d.drop = True
            if rule.duplicate and self.rng.random() < rule.duplicate:
                d.duplicate = True
            if rule.corrupt and self.rng.random() < rule.corrupt:
                d.corrupt = True
            if rule.reorder and self.rng.random() < rule.reorder:
                d.reorder = True
            if rule.delay and self.rng.random() < rule.delay:
                d.extra_delay += rule.delay_seconds * (0.5 + self.rng.random())
        return d

    def crash_due(self, rank: int, t: float) -> bool:
        """True exactly once, when ``rank``'s clock reaches its crash time."""
        at = self.plan.crash.get(rank)
        if at is None or rank in self._crashed or t < at:
            return False
        self._crashed.add(rank)
        return True

    def compute_scale(self, rank: int, t: float) -> float:
        sl = self.plan.slowdown.get(rank)
        if sl is None or t < sl[0]:
            return 1.0
        return sl[1]


# ---------------------------------------------------------------------------
# Reliable transport (ack/retransmit envelope).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReliableTransport:
    """Configuration of the opt-in ack/retransmit message envelope.

    With ``Simulator(reliable=True)`` (or an explicit instance) every
    message travels under a sequence-numbered envelope: dropped — and, with
    checksums enabled, corrupted — copies are retransmitted after an RTO
    that backs off exponentially (``rto * backoff**attempt``), up to
    ``max_retries`` retries; after that the message is recorded as ``lost``.
    Duplicates and reorderings injected by a fault plan are suppressed by
    the envelope's sequencing.  Costs charged to the α-β model: each
    retransmitted copy counts against the sender's message/byte counters,
    the accumulated backoff delays the arrival, and each delivery charges
    the receiver one ``ack_nbytes`` control send (``send_overhead``
    seconds, category ``"ack"``).

    ``rto=None`` derives the base timeout from the machine's network model
    (four inter-node latencies).
    """

    max_retries: int = 5
    rto: float | None = None
    backoff: float = 2.0
    ack_nbytes: int = 32

    def base_rto(self, net) -> float:
        if self.rto is not None:
            return self.rto
        return 4.0 * (net.alpha_inter + net.send_overhead + net.recv_overhead)
