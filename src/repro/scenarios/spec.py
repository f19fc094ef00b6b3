"""Declarative adversarial scenarios and their degradation contracts.

A :class:`Scenario` is a fully seeded description of one attack or
degraded-mode episode against the serving tier: a sequence of workload
:class:`PhaseSpec` phases (baseline traffic, the disturbance itself,
recovery traffic), optional fabric :class:`FaultPhaseSpec` windows that
escalate mid-run, the service/policy knobs the episode runs under, and a
:class:`DegradationContract` — the machine-checked statement of what
"degrading gracefully" means for that episode.

Determinism is the design center: the ONLY randomness source in a
scenario is ``Scenario.seed``.  Phases carry no seeds of their own; the
runner derives every stream (arrivals, matrix mix, RHS seeds, fault-plan
seeds) from ``(seed, phase index)``, which is what makes the lint rule
RPR006 (no literal seeds outside the ``Scenario`` spec) structurally
satisfiable and a replay of the same scenario bit-identical.

The contract splits into two tiers:

- **hard** guarantees hold at *any* seed — every shed is typed, no
  accepted request ever receives a corrupted solution
  (``n_integrity_failures == 0``), no untyped exception escapes.  The
  differential fuzzer re-checks these on freshly drawn seeds.
- **soft** SLO bounds quantify graceful degradation *at the declared
  seed* — minimum completion fraction, required/forbidden shed reasons,
  p95 recovery within a factor of the pre-disturbance baseline, bounded
  queue drain time after the disturbance ends.

:class:`ScenarioReport` is the runner's artifact: one JSON document per
episode, byte-identical across replays, diffed by the ``adversarial-smoke``
CI job.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

SCENARIO_VERSION = 1


@dataclass(frozen=True)
class PhaseSpec:
    """One workload phase of a scenario (no seed — derived by the runner).

    ``dup_factor`` repeats every generated request that many times with
    fresh ids (the duplicate-storm knob: identical RHS and deadline, so
    the scheduler's dedup coalesces them).  ``poison_rhs_fraction``
    poisons that fraction of requests' right-hand sides with kinds drawn
    from ``poison_rhs_kinds``.  ``disturbance`` marks the phase as part
    of the attack window for the contract's recovery accounting.
    ``gap_after`` inserts idle virtual time before the next phase.
    """

    label: str
    n_requests: int
    rate: float                   # mean arrivals per virtual second
    mix: tuple = (("s2D9pt2048", "tiny", 1.0),)
    deadline: float = 0.02        # relative completion budget, seconds
    priorities: tuple = ((0, 1.0),)
    poison_rhs_fraction: float = 0.0
    poison_rhs_kinds: tuple = ("poison-nan",)
    dup_factor: int = 1
    gap_after: float = 0.0
    disturbance: bool = False

    def __post_init__(self):
        if self.n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.dup_factor < 1:
            raise ValueError("dup_factor must be >= 1")
        if not 0.0 <= self.poison_rhs_fraction <= 1.0:
            raise ValueError("poison_rhs_fraction must be in [0, 1]")


@dataclass(frozen=True)
class FaultPhaseSpec:
    """One fabric-fault window ``[t0, t1)`` in service virtual time.

    ``kind``/``rate`` use the chaos coordinates of
    :func:`repro.comm.faults.plan_for`; ``solve_makespan`` is the
    time-scale hint for crash instants and delay spikes (a typical
    single-batch solve, not the window length — fault plans act on each
    batch's internal simulator clock).  The plan's seed is derived from
    the scenario seed by the runner.
    """

    t0: float
    t1: float
    kind: str                     # drop/duplicate/delay/reorder/corrupt/crash
    rate: float
    solve_makespan: float = 2e-3

    def __post_init__(self):
        if not self.t0 < self.t1:
            raise ValueError(f"fault window [{self.t0}, {self.t1}) is empty")
        if self.rate < 0:
            raise ValueError("rate must be >= 0")


@dataclass(frozen=True)
class DegradationContract:
    """Machine-checked definition of graceful degradation for a scenario.

    Hard tier (any seed): ``max_integrity_failures`` (always 0 in the
    catalog — an accepted request must never receive a corrupted
    solution), every shed typed, no untyped exception.  Soft tier (the
    declared seed): the quantitative knobs below; a knob at its default
    is inactive and emits no check.

    ``recovery_p95_factor`` compares the p95 latency of completions that
    *arrived after* the disturbance window against those that arrived
    before it; ``max_drain_time`` bounds ``makespan - disturbance end``
    — the service must finish all accepted work within bounded virtual
    time of the attack stopping.
    """

    max_integrity_failures: int = 0
    min_completed_fraction: float = 0.0
    max_shed_fraction: float = 1.0
    min_deadline_met_rate: float = 0.0
    require_sheds: tuple = ()     # RejectReason values that MUST appear
    forbid_sheds: tuple = ()      # RejectReason values that must NOT appear
    min_deduped: int = 0
    min_cache_evictions: int = 0
    recovery_p95_factor: float | None = None
    max_drain_time: float | None = None


@dataclass(frozen=True)
class Scenario:
    """A named, seeded, replayable adversarial episode.

    ``seed`` is the single randomness root (see module docstring).  The
    execution knobs mirror the serving tier's own configuration surface:
    process grid, algorithm, batching policy, cache bound, resilience
    envelope and the sampled integrity-verification fraction.
    """

    name: str
    summary: str
    seed: int
    phases: tuple                 # (PhaseSpec, ...)
    fault_phases: tuple = ()      # (FaultPhaseSpec, ...)
    contract: DegradationContract = DegradationContract()
    workers: int = 1              # > 1 runs the episode on a fleet
    worker_crash: tuple = ()      # ((worker, t_crash, t_recover), ...)
    grid: tuple = (1, 1, 2)
    machine: str = "cori-haswell"
    algorithm: str = "new3d"
    max_batch: int = 8
    max_wait: float = 1e-3
    queue_bound: int = 64
    cache_entries: int | None = None
    resilience: bool = False
    verify_fraction: float = 0.5
    tags: tuple = ()

    def __post_init__(self):
        if not self.phases:
            raise ValueError("a scenario needs at least one phase")
        if not 0.0 <= self.verify_fraction <= 1.0:
            raise ValueError("verify_fraction must be in [0, 1]")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        for w, tc, tr in self.worker_crash:
            if not 0 <= w < self.workers:
                raise ValueError(f"crash names worker {w} of a "
                                 f"{self.workers}-worker fleet")
            if not tc < tr:
                raise ValueError(f"crash window [{tc}, {tr}) is empty")


@dataclass
class ScenarioReport:
    """Deterministic artifact of one scenario run (JSON-diffable).

    ``checks`` holds one record per evaluated contract clause:
    ``{"check", "hard", "passed", "detail"}``.  ``hard_ok`` is the
    any-seed guarantee (hard clauses only, and no escaped exception);
    ``passed`` additionally requires every soft clause.
    """

    scenario: str
    seed: int
    version: int = SCENARIO_VERSION
    n_requests: int = 0
    slo: dict = field(default_factory=dict)       # SLOReport as a dict
    windows: dict = field(default_factory=dict)   # disturbance/recovery stats
    checks: list = field(default_factory=list)
    error: str = ""

    @property
    def hard_ok(self) -> bool:
        return not self.error and all(
            c["passed"] for c in self.checks if c["hard"])

    @property
    def passed(self) -> bool:
        return not self.error and all(c["passed"] for c in self.checks)

    def to_json(self) -> str:
        doc = asdict(self)
        doc["hard_ok"] = self.hard_ok
        doc["passed"] = self.passed
        return json.dumps(doc, indent=1, sort_keys=True)

    def summary_line(self) -> str:
        verdict = ("ERROR" if self.error
                   else "PASS" if self.passed
                   else "HARD-OK" if self.hard_ok else "FAIL")
        nfail = sum(1 for c in self.checks if not c["passed"])
        return (f"{self.scenario:<20s} seed={self.seed:<6d} "
                f"req={self.n_requests:<4d} "
                f"done={self.slo.get('n_completed', 0):<4} "
                f"shed={self.slo.get('n_shed', 0):<4} "
                f"{verdict}" + (f" ({nfail} check(s) failed)" if nfail
                                else ""))
