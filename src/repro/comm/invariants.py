"""The conservation laws of one ``SimResult``, beside the simulator that
runs them (``Simulator(invariants=True)``); :mod:`repro.check.invariants`
re-exports :func:`check_sim` and builds its other checks on these."""

from __future__ import annotations

import math

import numpy as np

#: Relative tolerance for conservation sums: the simulator accumulates the
#: same increments into the clock (one float) and the per-label time dict
#: (many floats), so the two disagree only by addition-order rounding.
REL_TOL = 1e-9


class InvariantViolation(AssertionError):
    """A runtime invariant does not hold; ``invariant`` names which one."""

    def __init__(self, invariant: str, detail: str):
        self.invariant = invariant
        self.detail = detail
        super().__init__(f"[{invariant}] {detail}")


def _ensure(cond: bool, invariant: str, detail: str) -> None:
    if not cond:
        raise InvariantViolation(invariant, detail)


def _close(a: float, b: float, scale: float = 0.0) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), scale, 1e-300) \
        or a == b


def check_sim(result, *, faulted: bool = False,
              conservation: bool = True) -> int:
    """Invariants over one :class:`~repro.comm.simulator.SimResult`.

    ``faulted`` relaxes message conservation (drops, duplicates and
    crashes legitimately leave mailbox leftovers).  ``conservation``
    gates the per-rank time-conservation sum — exact for the CPU
    message-passing runtime, not for merged GPU phase summaries.
    Returns the number of checks evaluated.
    """
    checks = 0
    clocks = np.asarray(result.clocks, dtype=np.float64)
    checks += 1
    _ensure(bool(np.all(np.isfinite(clocks)) and np.all(clocks >= 0.0)),
            "sim.clock-sane",
            f"per-rank clocks must be finite and >= 0, got {clocks}")
    for r, times in enumerate(result.times):
        checks += 1
        _ensure(all(v >= 0.0 and math.isfinite(v) for v in times.values()),
                "sim.time-nonnegative",
                f"rank {r} charged a negative/non-finite label time: {times}")
        if conservation:
            total = sum(times.values())
            checks += 1
            _ensure(_close(total, float(clocks[r])),
                    "sim.time-conservation",
                    f"rank {r}: sum of per-label times {total!r} != clock "
                    f"{float(clocks[r])!r} — some clock advance was not "
                    f"charged to a (phase, category) label")
    if result.trace is not None:
        for r in range(result.nranks):
            evs = [e for e in result.trace
                   if e.rank == r and e.kind != "fault"]
            checks += 1
            _ensure(all(e.t0 <= e.t1 for e in evs),
                    "sim.trace-interval", f"rank {r} has an event ending "
                    f"before it starts")
            checks += 1
            _ensure(all(a.t1 <= b.t1 for a, b in zip(evs, evs[1:])),
                    "sim.clock-monotone",
                    f"rank {r} trace is not monotone in virtual time")
    checks += 1
    if not faulted and not result.crashed:
        leftover = result.unconsumed_msgs
        _ensure(not leftover, "sim.message-conservation",
                f"fault-free run left {len(leftover)} unconsumed mailbox "
                f"message(s): "
                + "; ".join(f"dst={m.dst} src={m.src} tag={m.tag!r}"
                            for m in leftover[:5])
                + ("..." if len(leftover) > 5 else ""))
        pend = getattr(result, "unapplied_puts", [])
        checks += 1
        _ensure(not pend, "sim.rma-conservation",
                f"fault-free run left {len(pend)} one-sided write(s) "
                f"unapplied (missing flush/fence): "
                + "; ".join(f"origin={p.origin} dst={p.dst} key={p.key!r}"
                            for p in pend[:5])
                + ("..." if len(pend) > 5 else ""))
    put_b = getattr(result, "rma_put_bytes", 0)
    if put_b:
        applied = result.rma_applied_bytes
        pending_b = sum(p.nbytes for p in result.unapplied_puts)
        checks += 1
        _ensure(applied + pending_b == put_b, "sim.rma-byte-conservation",
                f"put bytes {put_b} != applied {applied} + pending "
                f"{pending_b} — some one-sided write was lost or double-"
                f"applied")
    return checks
