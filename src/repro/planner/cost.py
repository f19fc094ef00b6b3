"""Static α-β pricing of an extracted communication schedule.

:func:`schedule_time` replays a :class:`~repro.analyze.schedule.Schedule`
causally — per-rank clocks, receives gated on their matched send's
arrival — and prices every element with the same machine model the
simulator charges:

- a send costs ``net.send_overhead`` locally and lands at the receiver
  ``net.latency(nbytes, same_node)`` later (eager buffering, exactly the
  simulator's ``MPI_Isend`` model);
- a receive costs ``net.recv_overhead`` after the later of its local
  clock and the matched arrival;
- one-sided operations are priced exactly like the runtime charges them:
  a put costs ``send_overhead`` with its write landing ``latency`` later,
  a flush waits for the origin's matching in-flight writes, a fence is a
  collective barrier at the max of every entry clock and every in-flight
  arrival plus one ``send_overhead + recv_overhead``, and a window read
  is free;
- the compute segment preceding each event (the ``pre_flops`` /
  ``pre_bytes`` / ``pre_ops`` annotations the extractor accumulates from
  ``ctx.gemm``/``ctx.compute``) is priced as one roofline pass over the
  aggregate plus the per-op dispatch overheads.

The aggregation makes this a *model* of the simulated time, not a replay
of it: the simulator maxes flops against bytes per op, the planner per
segment, so predictions are a lower bound on compute-bound stretches.
That error is shared by every candidate backend, which is what a planner
needs — the benchmark gate (``BENCH_planner.json``) holds the *choices*
to the measured ranking, not the absolute times.
"""

from __future__ import annotations

from repro.analyze.schedule import Schedule
from repro.comm.costmodel import Machine


def _segment_time(cpu, flops: float, nbytes: float, nops: int) -> float:
    """Roofline time of an aggregated compute segment."""
    if nops == 0:
        return 0.0
    return (max(flops / cpu.flop_rate, nbytes / cpu.mem_bw)
            + nops * cpu.op_overhead)


def schedule_time(sched: Schedule, machine: Machine) -> float:
    """Predicted makespan (virtual seconds) of ``sched`` on ``machine``.

    Requires a complete schedule (every receive matched); an incomplete
    one describes a deadlocked program whose makespan is meaningless.
    """
    if not sched.complete:
        raise ValueError(
            f"cannot price an incomplete schedule ({sched.summary()})")
    net, cpu = machine.net, machine.cpu
    n = sched.nranks
    pos = [0] * n
    clock = [0.0] * n
    arrival: dict[tuple[int, int], float] = {}
    # Outstanding one-sided writes per origin as (dst, arrival) pairs, and
    # the entry clock of a rank parked at a fence (None when running).
    rma_pending: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    fence_parked: list[float | None] = [None] * n
    # Round-robin causal sweep: a rank parks when its next receive's
    # matched send has not been priced yet (or at a fence, until every
    # rank reaches the epoch boundary); completeness of the schedule
    # guarantees the sweep drains (the match relation is an executed
    # order, hence acyclic, and the runtime's fence quorum held).
    progressed = True
    while progressed:
        progressed = False
        for r in range(n):
            if fence_parked[r] is not None:
                continue
            evs = sched.events[r]
            while pos[r] < len(evs):
                ev = evs[pos[r]]
                seg = _segment_time(cpu, ev.pre_flops, ev.pre_bytes,
                                    ev.pre_ops)
                if ev.kind == "send":
                    clock[r] += seg + net.send_overhead
                    arrival[(r, ev.pos)] = clock[r] + net.latency(
                        ev.nbytes, machine.same_node(r, ev.dst))
                elif ev.kind == "put":
                    clock[r] += seg + net.send_overhead
                    rma_pending[r].append((ev.dst, clock[r] + net.latency(
                        ev.nbytes, machine.same_node(r, ev.dst))))
                elif ev.kind == "flush":
                    t = clock[r] + seg
                    keep = []
                    for dst, arr in rma_pending[r]:
                        if ev.dst is None or dst == ev.dst:
                            t = max(t, arr)
                        else:
                            keep.append((dst, arr))
                    rma_pending[r] = keep
                    clock[r] = t
                elif ev.kind == "fence":
                    fence_parked[r] = clock[r] + seg
                    pos[r] += 1
                    progressed = True
                    break
                elif ev.kind == "read":
                    clock[r] += seg
                else:
                    if ev.match is not None and ev.match not in arrival:
                        break       # park until the sender is priced
                    t_in = arrival.get(ev.match, 0.0)
                    clock[r] = max(clock[r] + seg, t_in) + net.recv_overhead
                pos[r] += 1
                progressed = True
        parked = [r for r in range(n) if fence_parked[r] is not None]
        if parked and all(fence_parked[r] is not None
                          or pos[r] >= len(sched.events[r])
                          for r in range(n)):
            # Epoch boundary: exactly the runtime's fence — everything
            # in flight (from every origin) lands before anyone leaves.
            t_f = max(max(fence_parked[r] for r in parked),
                      max((arr for pend in rma_pending for _, arr in pend),
                          default=0.0))
            for r in range(n):
                rma_pending[r] = []
            for r in parked:
                clock[r] = t_f + net.send_overhead + net.recv_overhead
                fence_parked[r] = None
            progressed = True
    if any(pos[r] < len(sched.events[r]) for r in range(n)):
        raise AssertionError(
            f"causal pricing sweep stalled on {sched.summary()}")
    for r, (flops, nbytes, nops) in enumerate(sched.compute_tails or ()):
        clock[r] += _segment_time(cpu, flops, nbytes, nops)
    return max(clock, default=0.0)


def predict_time(solver, algorithm: str, nrhs: int = 1,
                 machine: Machine | None = None) -> float:
    """Predicted virtual solve time of ``algorithm`` on ``solver``.

    The schedule comes from the solver's own store
    (:func:`repro.analyze.extract.solver_schedule`): per backend the rank
    programs are driven for the first two widths asked for and every
    other width is derived from those exactly, so re-pricing on another
    machine or at another ``nrhs`` extracts nothing.
    """
    from repro.analyze.extract import solver_schedule

    machine = machine or solver.machine
    sched = solver_schedule(solver, algorithm=algorithm, nrhs=nrhs)
    return schedule_time(sched, machine)
