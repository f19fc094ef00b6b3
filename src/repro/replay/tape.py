"""Timing tapes: the virtual-clock half of a compiled solve.

A :class:`Tape` is the flat per-rank op stream (send/put/compute/recv/
flush/fence/mark) of one instrumented, fault-free simulation run, captured
by a :class:`TapeRecorder` hooked into
:class:`~repro.comm.simulator.Simulator` (``recorder=``).
:func:`replay_tape` re-executes the streams through a min-heap event engine
(the idiom of sparse-blobpool's discrete-event ``core/simulator.py``)
applying the simulator's exact clock arithmetic — send overhead,
latency-delayed arrivals, ``max(clock, arrival) + recv overhead`` waits,
put/flush/fence epochs — in the exact per-rank charge order of the
recording, so the produced clocks, per-label time/message/byte accounting
and phase marks are byte-for-byte identical to the recording run's.

The engine runs **once per compiled tape**, as validation; subsequent
solves copy the validated result (see :mod:`repro.replay.api`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.comm.simulator import Observer

# Per-rank tape entries (plain tuples):
#   ("s", seq, nbytes, lat, phase, category)   eager send; posts arrival
#   ("p", dst, nbytes, lat, phase, category)   one-sided put; in flight until
#                                              its origin's next flush/fence
#   ("c", seconds, phase, category)            local compute (incl. 0-second
#                                              ops — they still create the
#                                              (phase, category) time label)
#   ("r", seq, phase, category)                delivery of message ``seq``
#   ("f", dst, phase, category)                flush of this rank's puts to
#                                              ``dst`` (None: every target)
#   ("F", phase, category)                     fence: epoch boundary over all
#                                              unfinished ranks
#   ("m", name)                                clock mark (phase boundary)
# A window ``read`` is timing-free and leaves no entry.


class TapeError(RuntimeError):
    """A tape could not be recorded or replayed consistently."""


class TapeRecorder(Observer):
    """Collects per-rank op streams during one simulated run.

    Attach via ``Simulator(..., recorder=rec)``.  Recording is only
    defined for the fault-free, unreliable-transport path (the replay
    fast path's precondition; faulted solves stay on the simulator): it
    keeps the tape-relevant prefix of each event and no timeout wait.
    """

    def __init__(self, nranks: int):
        self.ops: list[list[tuple]] = [[] for _ in range(nranks)]

    def on_send(self, rank: int, seq: int | None, nbytes: int, lat: float,
                phase: str, category: str, sync: str = "",
                dst: int | None = None, *_) -> None:
        # On the fault-free path only a put has no message id.
        self.ops[rank].append(
            ("p", dst, nbytes, lat, phase, category) if seq is None
            else ("s", seq, nbytes, lat, phase, category))

    def on_compute(self, rank: int, seconds: float, phase: str,
                   category: str, *_) -> None:
        self.ops[rank].append(("c", seconds, phase, category))

    def on_recv(self, rank: int, seq: int | None, phase: str,
                category: str, sync: str = "", t0=None, arrival=None,
                t1=None, peer=None) -> None:
        if seq is not None:
            self.ops[rank].append(("r", seq, phase, category))
        elif peer == "fence":
            self.ops[rank].append(("F", phase, category))
        # A flush's wait is implied by its "f" entry.

    def on_flush(self, rank: int, dst: int | None, phase: str,
                 category: str) -> None:
        self.ops[rank].append(("f", dst, phase, category))

    def on_mark(self, rank: int, name: str) -> None:
        self.ops[rank].append(("m", name))


@dataclass
class Tape:
    """Flat per-rank op streams plus the machine constants they priced."""

    nranks: int
    ops: list[list[tuple]]
    send_overhead: float
    recv_overhead: float

    @property
    def n_messages(self) -> int:
        return sum(1 for stream in self.ops for op in stream
                   if op[0] in ("s", "p"))

    @property
    def n_ops(self) -> int:
        return sum(len(stream) for stream in self.ops)

    def total_bytes(self) -> float:
        return float(sum(op[2] for stream in self.ops for op in stream
                         if op[0] in ("s", "p")))


@dataclass
class TapeResult:
    """Engine output, shaped like the timing fields of a ``SimResult``."""

    clocks: np.ndarray
    times: list[dict]
    sent_msgs: list[dict]
    sent_bytes: list[dict]
    marks: list[dict]


def from_recorder(rec: TapeRecorder, machine) -> Tape:
    return Tape(nranks=len(rec.ops), ops=rec.ops,
                send_overhead=machine.net.send_overhead,
                recv_overhead=machine.net.recv_overhead)


def replay_tape(tape: Tape) -> TapeResult:
    """Advance all rank streams to completion with the min-heap engine.

    The heap orders runnable ranks by their virtual clock (smallest
    first); a rank blocks when it reaches a recv whose message has not
    been posted yet and is woken by the posting send, or when it reaches a
    fence, which completes once every unfinished rank is parked at one and
    nothing else can run (the simulator's quorum).  Because each rank's
    charges are applied in its recorded stream order, every float
    accumulation repeats the original addition order exactly.
    """
    n = tape.nranks
    so, ro = tape.send_overhead, tape.recv_overhead
    clocks = [0.0] * n
    cursor = [0] * n
    times: list[dict] = [{} for _ in range(n)]
    sent_msgs: list[dict] = [{} for _ in range(n)]
    sent_bytes: list[dict] = [{} for _ in range(n)]
    marks: list[dict] = [{} for _ in range(n)]
    arrivals: dict[int, float] = {}
    waiter: dict[int, int] = {}          # seq -> rank parked on it
    # origin -> [(dst, arrival)] of its issued-but-unapplied puts
    in_flight: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    fenced: list[int] = []               # ranks parked at a fence
    heap: list[tuple[float, int]] = [(0.0, r) for r in range(n)]
    heapq.heapify(heap)

    def charge(r: int, phase: str, category: str, seconds: float) -> None:
        key = (phase, category)
        times[r][key] = times[r].get(key, 0.0) + seconds

    def inject(r: int, clock: float, nbytes: int, phase: str,
               category: str) -> float:
        """A send or put leaves rank r: overhead + message accounting."""
        clock += so
        charge(r, phase, category, so)
        key = (phase, category)
        sent_msgs[r][key] = sent_msgs[r].get(key, 0) + 1
        sent_bytes[r][key] = sent_bytes[r].get(key, 0.0) + nbytes
        return clock

    def run(r: int) -> None:
        """Advance rank r until it blocks or its stream ends."""
        stream = tape.ops[r]
        i = cursor[r]
        clock = clocks[r]
        while i < len(stream):
            op = stream[i]
            kind = op[0]
            if kind == "c":
                _, seconds, phase, category = op
                clock += seconds
                charge(r, phase, category, seconds)
            elif kind == "s":
                _, seq, nbytes, lat, phase, category = op
                clock = inject(r, clock, nbytes, phase, category)
                arrivals[seq] = clock + lat
                w = waiter.pop(seq, None)
                if w is not None:
                    heapq.heappush(heap, (clocks[w], w))
            elif kind == "r":
                _, seq, phase, category = op
                if seq not in arrivals:
                    waiter[seq] = r
                    break
                arrival = arrivals.pop(seq)
                wait = max(0.0, arrival - clock)
                clock = max(clock, arrival) + ro
                charge(r, phase, category, wait + ro)
            elif kind == "p":
                _, dst, nbytes, lat, phase, category = op
                clock = inject(r, clock, nbytes, phase, category)
                in_flight[r].append((dst, clock + lat))
            elif kind == "f":
                _, dst, phase, category = op
                mine, rest = [], []
                for put in in_flight[r]:
                    (mine if dst in (None, put[0]) else rest).append(put)
                in_flight[r] = rest
                landed = max((a for _, a in mine), default=clock)
                if landed > clock:
                    charge(r, phase, category, landed - clock)
                    clock = landed
            elif kind == "F":
                fenced.append(r)
                break
            else:  # "m"
                marks[r][op[1]] = clock
            i += 1
        cursor[r] = i
        clocks[r] = clock

    while True:
        while heap:
            run(heapq.heappop(heap)[1])
        unfinished = [r for r in range(n) if cursor[r] < len(tape.ops[r])]
        if not fenced or len(fenced) < len(unfinished):
            break
        # Epoch boundary: the fence completes at the latest of the entry
        # clocks and the in-flight put arrivals (so no rank's wait is
        # negative), then every rank pays the barrier round-trip, overhead
        # by overhead as the simulator adds it.
        t_f = max(max(clocks[r] for r in fenced),
                  max((a for puts in in_flight for _, a in puts),
                      default=0.0))
        for puts in in_flight:
            puts.clear()
        for r in fenced:
            _, phase, category = tape.ops[r][cursor[r]]
            clock, charged = t_f, t_f - clocks[r]
            for o in (so, ro):
                clock += o
                charged += o
            charge(r, phase, category, charged)
            clocks[r] = clock
            cursor[r] += 1
            heapq.heappush(heap, (clock, r))
        fenced.clear()

    if unfinished:
        stuck = [r for r in unfinished if r not in fenced]
        at_fence = (f" while rank(s) {fenced[:8]} wait at a fence"
                    if fenced else "")
        raise TapeError(
            f"tape replay deadlocked: rank(s) {stuck[:8]} blocked on "
            f"messages never posted{at_fence} — the tape is inconsistent")
    return TapeResult(clocks=np.array(clocks), times=times,
                      sent_msgs=sent_msgs, sent_bytes=sent_bytes,
                      marks=marks)


def validate_tape(tape: Tape, sim_result) -> TapeResult:
    """Replay ``tape`` and require byte-for-byte agreement with the
    recording run's :class:`~repro.comm.simulator.SimResult`.

    Exact (not approximate) equality: the engine repeats the simulator's
    float operations in the same order, so any difference at all means
    the tape or engine is wrong.  Returns the validated result.
    """
    out = replay_tape(tape)
    if not np.array_equal(out.clocks, sim_result.clocks):
        raise TapeError("tape replay clocks differ from the recording run")
    for name, got, want in (("times", out.times, sim_result.times),
                            ("sent_msgs", out.sent_msgs,
                             sim_result.sent_msgs),
                            ("sent_bytes", out.sent_bytes,
                             sim_result.sent_bytes),
                            ("marks", out.marks, sim_result.marks)):
        if got != want:
            raise TapeError(
                f"tape replay per-rank {name} differ from the recording run")
    return out
