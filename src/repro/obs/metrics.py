"""Structured metrics collection for simulated solves.

A :class:`MetricsRegistry` attached via ``Simulator(metrics=...)`` (or, one
level up, ``SpTRSVSolver.solve(profile=True)``) records every operation the
scheduler processes — sends, receive waits, compute — into per-rank,
per-``(phase, category)`` counters *plus* a full per-message record stream.
The counters power the ``repro profile`` tables (messages, bytes, flops,
α/β time, overheads, idle time, retransmits); the message records carry the
send→recv dependency graph consumed by
:mod:`repro.obs.critpath` and the Chrome-trace flow annotations of
:func:`repro.comm.trace_export.to_chrome_trace`.

Collection is strictly observational: the registry is only ever *told*
what the scheduler already decided, so virtual clocks with metrics enabled
are bit-identical to a metrics-off run (asserted by the test suite).

Two labels scope every record:

- ``phase`` — the coarse solver phase set with ``ctx.set_phase`` /
  ``ctx.phase_scope`` (``"l"``, ``"z"``, ``"u"``; display names in
  :data:`PHASE_NAMES`).
- ``sync`` — the *inter-grid synchronization point* set with
  ``ctx.set_sync``.  The solvers name each rendezvous structure once
  (the proposed algorithm's single ``"allreduce"``; the baseline's
  ``"level-k"`` per elimination-tree level, whose L-reduce and mirrored
  U-broadcast halves share the name exactly as the allreduce's reduce and
  broadcast halves do).  ``MetricsRegistry.sync_points()`` therefore counts
  the paper's "one sync vs O(log Pz)" claim mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comm.simulator import Observer

# Display names for the solvers' phase labels (tables stay keyed by the raw
# labels so they line up with ``SimResult.time_by(phase=...)``).
PHASE_NAMES = {
    "l": "L-solve",
    "z": "inter-grid",
    "u": "U-solve",
    "": "(setup)",
    "reference": "reference",
}


def phase_name(phase: str) -> str:
    """Human-readable name of a solver phase label."""
    return PHASE_NAMES.get(phase, phase)


@dataclass
class PhaseStats:
    """Accumulated counters for one ``(phase, category)`` label on one rank.

    Times are virtual seconds.  ``overhead_time`` is CPU time spent on
    message handling (send injection + receive matching/ack); ``wait_time``
    is idle time blocked on arrivals; ``alpha_time``/``beta_time`` split
    each sent message's in-flight latency into its α (per-message) and β
    (per-byte) components of the machine's network model.
    """

    msgs: int = 0
    bytes: float = 0.0
    flops: float = 0.0
    compute_time: float = 0.0
    overhead_time: float = 0.0
    wait_time: float = 0.0
    alpha_time: float = 0.0
    beta_time: float = 0.0
    retransmits: int = 0
    acks: int = 0

    def add(self, other: "PhaseStats") -> None:
        self.msgs += other.msgs
        self.bytes += other.bytes
        self.flops += other.flops
        self.compute_time += other.compute_time
        self.overhead_time += other.overhead_time
        self.wait_time += other.wait_time
        self.alpha_time += other.alpha_time
        self.beta_time += other.beta_time
        self.retransmits += other.retransmits
        self.acks += other.acks

    @property
    def comm_time(self) -> float:
        """Total communication-attributed time (overhead + idle wait)."""
        return self.overhead_time + self.wait_time


@dataclass
class MessageRecord:
    """One point-to-point message: the send side, joined with its delivery.

    ``seq`` is the simulator's global message sequence number (the join
    key).  ``t_send0``/``t_send1`` bracket the sender's injection overhead;
    ``arrival`` is when the payload reached the receiver's mailbox and
    ``t_deliver`` when the receiver finished consuming it (``None`` until
    delivered — messages dropped by an unreliable fabric never are).
    """

    seq: int
    src: int
    dst: int
    nbytes: int
    phase: str
    category: str
    sync: str
    t_send0: float
    t_send1: float
    alpha: float
    beta_time: float
    arrival: float | None = None
    t_deliver: float | None = None
    recv_wait: float = 0.0

    @property
    def delivered(self) -> bool:
        return self.t_deliver is not None


@dataclass
class OpRecord:
    """One scheduled operation on one rank's timeline.

    ``kind`` is ``"compute"``, ``"send"`` or ``"wait"`` (a receive,
    including its matching overhead; ``seq`` is the consumed message for
    waits and the emitted message for sends, ``None`` for timeout waits and
    dropped sends).
    """

    t0: float
    t1: float
    kind: str
    phase: str
    category: str
    seq: int | None = None
    peer: int | None = None


@dataclass
class SyncStats:
    """Aggregate over one named inter-grid synchronization point."""

    name: str
    msgs: int = 0
    bytes: float = 0.0
    ranks: set = field(default_factory=set)
    t_first: float = float("inf")
    t_last: float = 0.0


class MetricsRegistry(Observer):
    """Per-rank, per-phase observability store for one simulation run.

    Create one, pass it to ``Simulator(metrics=reg)`` (or let
    ``SpTRSVSolver.solve(profile=True)`` do both), then query it after the
    run.  The registry records:

    - ``counters[rank][(phase, category)]`` → :class:`PhaseStats`
    - ``ops[rank]`` → chronological :class:`OpRecord` timeline
    - ``messages[seq]`` → :class:`MessageRecord` dependency edges
    - ``sync_points()`` → named inter-grid rendezvous aggregates

    A registry is reset by ``start_run`` and therefore describes exactly
    one simulation; reusing it on a second run discards the first run's
    data.
    """

    def __init__(self):
        self.nranks = 0
        self.machine = None
        self.counters: list[dict[tuple[str, str], PhaseStats]] = []
        self.ops: list[list[OpRecord]] = []
        self.messages: dict[int, MessageRecord] = {}
        self._syncs: dict[str, SyncStats] = {}
        self._phase_order: list[str] = []
        # True while every recorded interval came from the event-level
        # hooks; merged summaries (the GPU dataflow phases) clear it, which
        # disables the critical-path walk but keeps all counters valid.
        self.complete_timeline = True

    # -- lifecycle (called by the simulator) --------------------------------

    def start_run(self, nranks: int, machine) -> None:
        """Reset and bind to a run of ``nranks`` ranks on ``machine``."""
        self.nranks = nranks
        self.machine = machine
        self.counters = [{} for _ in range(nranks)]
        self.ops = [[] for _ in range(nranks)]
        self.messages = {}
        self._syncs = {}
        self._phase_order = []
        self.complete_timeline = True

    def _stats(self, rank: int, phase: str, category: str) -> PhaseStats:
        key = (phase, category)
        st = self.counters[rank].get(key)
        if st is None:
            st = self.counters[rank][key] = PhaseStats()
            if phase not in self._phase_order:
                self._phase_order.append(phase)
        return st

    def _sync(self, name: str) -> SyncStats:
        st = self._syncs.get(name)
        if st is None:
            st = self._syncs[name] = SyncStats(name)
        return st

    # -- the Observer events it keeps (observational only) -------------------

    def on_send(self, rank, seq, nbytes, lat, phase, category, sync, dst,
                t0, t1, alpha):
        beta_time = lat - alpha
        st = self._stats(rank, phase, category)
        st.msgs += 1
        st.bytes += nbytes
        st.overhead_time += t1 - t0
        st.alpha_time += alpha
        st.beta_time += beta_time
        self.ops[rank].append(OpRecord(t0, t1, "send", phase, category,
                                       seq=seq, peer=dst))
        if seq is not None:
            self.messages[seq] = MessageRecord(
                seq, rank, dst, nbytes, phase, category, sync, t0, t1,
                alpha, beta_time)
        if sync:
            ss = self._sync(sync)
            ss.msgs += 1
            ss.bytes += nbytes
            ss.ranks.add(rank)
            ss.ranks.add(dst)
            ss.t_first = min(ss.t_first, t0)
            ss.t_last = max(ss.t_last, t1)

    def on_compute(self, rank, seconds, phase, category, t0, t1, flops):
        if seconds <= 0:
            return
        st = self._stats(rank, phase, category)
        st.compute_time += t1 - t0
        st.flops += flops
        self.ops[rank].append(OpRecord(t0, t1, "compute", phase, category))

    def on_recv(self, rank, seq, phase, category, sync, t0, arrival, t1,
                peer):
        """A wait completed at ``t1``: a delivery, or (``seq is None``) a
        timeout, flush or fence.

        ``arrival`` is when what was waited for landed; the idle portion of
        the interval is ``min(max(arrival, t0), t1) - t0`` and the rest is
        matching/ack overhead.
        """
        src = peer if seq is not None else None
        st = self._stats(rank, phase, category)
        if arrival is None:
            idle = t1 - t0
        else:
            idle = min(max(arrival, t0), t1) - t0
        st.wait_time += idle
        st.overhead_time += (t1 - t0) - idle
        self.ops[rank].append(OpRecord(t0, t1, "wait", phase, category,
                                       seq=seq, peer=src))
        if seq is not None:
            m = self.messages.get(seq)
            if m is not None:
                m.arrival = arrival
                m.t_deliver = t1
                m.recv_wait = idle
        if sync:
            ss = self._sync(sync)
            ss.t_last = max(ss.t_last, t1)

    def on_retransmit(self, rank, phase, category, nbytes):
        st = self._stats(rank, phase, category)
        st.retransmits += 1
        st.msgs += 1
        st.bytes += nbytes

    def on_ack(self, rank, phase, category, nbytes):
        st = self._stats(rank, phase, category)
        st.acks += 1
        st.bytes += nbytes

    def add_external(self, rank: int, phase: str, category: str,
                     compute_time: float = 0.0, wait_time: float = 0.0,
                     flops: float = 0.0, msgs: int = 0,
                     nbytes: float = 0.0) -> None:
        """Merge an externally-simulated interval (the GPU dataflow phases).

        Externally merged time has no event-level timeline, so the
        critical-path walk is disabled for this registry
        (``complete_timeline`` becomes ``False``); all counter-based
        queries remain exact.
        """
        st = self._stats(rank, phase, category)
        st.compute_time += compute_time
        st.wait_time += wait_time
        st.flops += flops
        st.msgs += msgs
        st.bytes += nbytes
        self.complete_timeline = False

    # -- queries -------------------------------------------------------------

    def phases(self) -> list[str]:
        """Phase labels in first-recorded order."""
        return list(self._phase_order)

    def labels(self) -> list[tuple[str, str]]:
        """All ``(phase, category)`` labels, phase-major, first-seen order."""
        cats: dict[str, list[str]] = {p: [] for p in self._phase_order}
        for rank_counters in self.counters:
            for (p, c) in rank_counters:
                if c not in cats[p]:
                    cats[p].append(c)
        return [(p, c) for p in self._phase_order for c in sorted(cats[p])]

    def stats(self, phase: str | None = None, category: str | None = None,
              rank: int | None = None) -> PhaseStats:
        """Aggregate :class:`PhaseStats` over the matching labels/ranks."""
        out = PhaseStats()
        ranks = range(self.nranks) if rank is None else (rank,)
        for r in ranks:
            for (p, c), st in self.counters[r].items():
                if (phase is None or p == phase) and \
                        (category is None or c == category):
                    out.add(st)
        return out

    def per_rank_stats(self, phase: str | None = None,
                       category: str | None = None) -> list[PhaseStats]:
        return [self.stats(phase, category, rank=r)
                for r in range(self.nranks)]

    def finish_times(self) -> np.ndarray:
        """Per-rank completion clock (last recorded interval end)."""
        out = np.zeros(self.nranks)
        for r in range(self.nranks):
            ends = [op.t1 for op in self.ops[r]]
            total = 0.0
            st = self.stats(rank=r)
            # Externally merged phases have no ops; fall back to summed time.
            total = (st.compute_time + st.overhead_time + st.wait_time)
            out[r] = max(ends) if ends and self.complete_timeline else max(
                max(ends, default=0.0), total)
        return out

    @property
    def makespan(self) -> float:
        return float(self.finish_times().max()) if self.nranks else 0.0

    def sync_points(self) -> dict[str, SyncStats]:
        """Named inter-grid synchronization points that carried traffic,
        in order of first activity."""
        active = [s for s in self._syncs.values() if s.msgs > 0]
        return {s.name: s for s in sorted(active, key=lambda s: s.t_first)}

    @property
    def nsyncs(self) -> int:
        """Number of distinct inter-grid synchronization points.

        This is the quantity the paper's headline claim is about: 1 for
        the proposed algorithm's single sparse allreduce,
        ``ceil(log2(Pz))`` for the baseline's per-level rendezvous.
        """
        return len(self.sync_points())

    def utilization(self) -> np.ndarray:
        """Per-rank busy fraction: compute time / own finish clock."""
        finish = self.finish_times()
        out = np.zeros(self.nranks)
        for r in range(self.nranks):
            if finish[r] > 0:
                out[r] = self.stats(rank=r).compute_time / finish[r]
        return out

    def slack(self) -> np.ndarray:
        """Per-rank schedule slack: idle wait plus time to the makespan.

        A rank on the critical path has (near-)zero slack; large slack
        marks ranks that could absorb more work.
        """
        finish = self.finish_times()
        mk = finish.max() if self.nranks else 0.0
        return np.array([mk - finish[r] + self.stats(rank=r).wait_time
                         for r in range(self.nranks)])
