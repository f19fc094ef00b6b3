"""Backend choice, decision caching, and measured-feedback correction."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.comm.costmodel import Machine
from repro.core.backends import planner_candidates
from repro.planner.cost import predict_time


def candidates(solver) -> list[str]:
    """CPU backends eligible for ``solver``'s grid shape, in the fixed
    order ties break toward (the backend table's row order)."""
    return planner_candidates(solver.grid)


@dataclass
class Decision:
    """One cached planning decision (mutated in place by corrections)."""

    key: tuple
    algorithm: str
    predicted: dict[str, float]          # candidate -> predicted seconds
    corrected: bool = False
    measured: dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        ranked = sorted(self.predicted, key=lambda a: self.predicted[a])
        parts = ", ".join(f"{a}={self.predicted[a]:.3e}" for a in ranked)
        tag = " [corrected]" if self.corrected else ""
        return f"pick {self.algorithm}{tag} ({parts})"


@dataclass
class Correction:
    """Audit record of one measured-feedback override."""

    key: tuple
    predicted_pick: str
    measured_pick: str
    predicted: dict[str, float]
    measured: dict[str, float]


class Planner:
    """Cost-model backend planner with a per-problem decision cache.

    ``choose`` prices every eligible backend's extracted schedule and
    caches the argmin under (matrix fingerprint, grid shape, machine,
    nrhs) — the solve inputs the prediction actually depends on.
    ``observe`` feeds measured virtual times back: when they rank a
    different backend best than the cached pick, the decision is flipped
    in place, marked ``corrected``, and logged in ``corrections`` — the
    model stays wrong, the cache stops being.
    """

    def __init__(self):
        self._decisions: dict[tuple, Decision] = {}
        self.corrections: list[Correction] = []

    def key_of(self, solver, nrhs: int = 1,
               machine: Machine | None = None) -> tuple:
        from repro.matrices import matrix_fingerprint

        machine = machine or solver.machine
        g = solver.grid
        kept = solver.__dict__   # a solver's matrix is fixed: hash it once
        if "_fingerprint" not in kept:
            kept["_fingerprint"] = matrix_fingerprint(solver.A).hexdigest
        return (kept["_fingerprint"], g.px, g.py, g.pz, machine.name, nrhs)

    def choose(self, solver, nrhs: int = 1,
               machine: Machine | None = None) -> Decision:
        machine = machine or solver.machine
        key = self.key_of(solver, nrhs, machine)
        hit = self._decisions.get(key)
        if hit is not None:
            return hit
        order = candidates(solver)
        preds = {alg: predict_time(solver, alg, nrhs, machine)
                 for alg in order}
        best = min(preds, key=lambda a: (preds[a], order.index(a)))
        d = Decision(key=key, algorithm=best, predicted=preds)
        self._decisions[key] = d
        return d

    def observe(self, solver, measured: dict[str, float], nrhs: int = 1,
                machine: Machine | None = None) -> Decision:
        """Fold measured virtual times into the cached decision.

        ``measured`` maps backend name to measured virtual solve time (at
        least the cached pick must be present for the comparison to mean
        anything; unknown backends are ignored).  Returns the (possibly
        corrected) decision.
        """
        machine = machine or solver.machine
        d = self.choose(solver, nrhs, machine)
        known = {a: t for a, t in measured.items() if a in d.predicted}
        d.measured.update(known)
        if not d.measured or d.algorithm not in d.measured:
            return d
        order = candidates(solver)
        best = min(d.measured,
                   key=lambda a: (d.measured[a], order.index(a)))
        if best != d.algorithm and d.measured[best] < d.measured[d.algorithm]:
            self.corrections.append(Correction(
                key=d.key, predicted_pick=d.algorithm, measured_pick=best,
                predicted=dict(d.predicted), measured=dict(d.measured)))
            d.algorithm = best
            d.corrected = True
        return d

    def decisions(self) -> list[Decision]:
        """All cached decisions, in insertion order (deterministic)."""
        return list(self._decisions.values())

    def clear(self) -> None:
        self._decisions.clear()
        self.corrections.clear()


#: Shared planner behind ``solve(algorithm="auto")`` and
#: ``ServiceConfig(planner=True)``.  Process-wide by design: a serving
#: tier plans each distinct problem once, corrections included.
DEFAULT_PLANNER = Planner()
