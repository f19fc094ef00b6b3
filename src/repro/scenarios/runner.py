"""Execute scenarios: seeded workload synthesis, service wiring, contracts.

The runner turns a declarative :class:`~repro.scenarios.spec.Scenario`
into one :class:`~repro.serve.SolveService` run and folds the outcome
into a :class:`~repro.scenarios.spec.ScenarioReport`.  Everything is a
pure function of the scenario and the seed:

- :func:`build_workload` synthesizes the request stream phase by phase,
  deriving each phase's RNG from ``(seed, phase index)`` — same
  convention as ``generate_workload``, extended with duplicate fan-out,
  poison RHS injection and inter-phase gaps;
- :func:`build_service` wires the service with the scenario's knobs: the
  poison-aware matrix provider, the escalating
  :class:`~repro.comm.faults.FaultSchedule` (plans built through the
  chaos coordinates of :func:`repro.comm.faults.plan_for`), runtime
  invariants on, and sampled integrity verification;
- :func:`run_scenario` runs it (catching any escaped exception as a hard
  contract failure) and evaluates the degradation contract;
- :func:`run_all` is the sweep used by the CLI and CI smoke job.

Running at a non-declared seed (``run_scenario(sc, seed=...)``) is how
the differential fuzzer stresses the *hard* contract tier on fresh
seeds; soft SLO bounds are calibrated to the declared seed only.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import replace

import numpy as np

from repro.comm.faults import FaultSchedule, plan_for
from repro.core.solver import Resilience
from repro.matrices import resolve_matrix
from repro.scenarios.spec import DegradationContract, Scenario, ScenarioReport
from repro.serve import (
    BatchPolicy,
    FactorizationCache,
    Request,
    RejectReason,
    ServeResult,
    ServiceConfig,
    SolveService,
    Workload,
)


def _phase_rng(seed: int, phase_index: int) -> np.random.Generator:
    """The one RNG-derivation convention every phase stream uses."""
    return np.random.default_rng([seed, phase_index])


def build_workload(sc: Scenario) -> Workload:
    """Synthesize the scenario's request stream; deterministic in seed.

    Per-request draw order within a phase is fixed (inter-arrival, matrix
    pick, priority pick, deadline slack, RHS seed, poison decision) so
    the stream is stable against unused distributions.  Duplicates share
    their original's RHS seed/kind and deadline — the scheduler's dedup
    key — under fresh ids.  ``meta["disturbance"]`` records the attack
    window ``[t0, t1]`` spanned by disturbance phases and fault windows,
    which the contract's recovery checks read back.
    """
    requests: list[Request] = []
    dist_lo: float | None = None
    dist_hi: float | None = None
    t = 0.0
    rid = 0
    for pi, ph in enumerate(sc.phases):
        rng = _phase_rng(sc.seed, pi)
        mw = np.array([w for (_, _, w) in ph.mix], dtype=np.float64)
        mw = mw / mw.sum()
        pw = np.array([w for (_, w) in ph.priorities], dtype=np.float64)
        pw = pw / pw.sum()
        for _ in range(ph.n_requests):
            t += float(rng.exponential(1.0 / ph.rate))
            mi = int(rng.choice(len(ph.mix), p=mw))
            pri = int(ph.priorities[int(rng.choice(len(ph.priorities),
                                                   p=pw))][0])
            slack = ph.deadline * (0.75 + 0.5 * float(rng.random()))
            rhs_seed = int(rng.integers(0, 2**31 - 1))
            kind = "random"
            if float(rng.random()) < ph.poison_rhs_fraction:
                kind = ph.poison_rhs_kinds[
                    int(rng.integers(len(ph.poison_rhs_kinds)))]
            name, scale, _ = ph.mix[mi]
            for _dup in range(ph.dup_factor):
                requests.append(Request(
                    id=rid, arrival=t, matrix=name, scale=scale,
                    rhs_seed=rhs_seed, deadline=t + slack, priority=pri,
                    rhs_kind=kind))
                rid += 1
            if ph.disturbance:
                dist_lo = t if dist_lo is None else min(dist_lo, t)
                dist_hi = t if dist_hi is None else max(dist_hi, t)
        t += ph.gap_after
    for fp in sc.fault_phases:
        dist_lo = fp.t0 if dist_lo is None else min(dist_lo, fp.t0)
        dist_hi = fp.t1 if dist_hi is None else max(dist_hi, fp.t1)
    for _w, tc, tr in sc.worker_crash:
        dist_lo = tc if dist_lo is None else min(dist_lo, tc)
        dist_hi = tr if dist_hi is None else max(dist_hi, tr)
    meta = {"scenario": sc.name, "seed": sc.seed,
            "disturbance": (None if dist_lo is None
                            else [dist_lo, dist_hi])}
    return Workload(requests=requests, meta=meta)


def _fault_seed(sc: Scenario, index: int, kind: str) -> int:
    """Derive a fault-plan seed from the scenario seed (crc32: stable
    across processes, unlike hash())."""
    return (sc.seed * 7919 + 131 * index
            + zlib.crc32(kind.encode()) % 997) % (2**31 - 1)


def build_fault_schedule(sc: Scenario) -> FaultSchedule | None:
    """The scenario's escalating fabric-fault timeline (None if benign)."""
    if not sc.fault_phases:
        return None
    nranks = sc.grid[0] * sc.grid[1] * sc.grid[2]
    phases = []
    for i, fp in enumerate(sc.fault_phases):
        plan = plan_for(fp.kind, fp.rate, _fault_seed(sc, i, fp.kind),
                        nranks, fp.solve_makespan)
        phases.append((fp.t0, fp.t1, plan))
    return FaultSchedule(tuple(phases))


def build_worker_crash_schedule(sc: Scenario) -> FaultSchedule | None:
    """The fleet's worker crash/recovery timeline (None if benign).

    Each declared ``(worker, t_crash, t_recover)`` window becomes one
    schedule phase whose plan crashes exactly that worker; the plan seed
    derives from the scenario seed, per the RPR006 convention.
    """
    from repro.comm.faults import FaultPlan

    if not sc.worker_crash:
        return None
    phases = []
    for i, (w, tc, tr) in enumerate(sorted(sc.worker_crash)):
        plan = FaultPlan.uniform(seed=_fault_seed(sc, i, "worker-crash"),
                                 crash={w: tc})
        phases.append((tc, tr, plan))
    return FaultSchedule(tuple(phases))


def build_service(sc: Scenario):
    """Wire a service exactly as the scenario declares it.

    Always: the poison-aware matrix provider, runtime invariants on, and
    sampled integrity verification seeded from the scenario seed.  A
    fleet-shaped scenario (``workers > 1`` or declared ``worker_crash``
    windows) runs on a :class:`~repro.fleet.FleetService` instead — its
    :class:`~repro.fleet.FleetResult` exposes the same ``slo`` /
    ``completions`` / ``rejections`` surface the contract evaluator
    reads.
    """
    px, py, pz = sc.grid
    config = ServiceConfig(px=px, py=py, pz=pz, machine=sc.machine,
                           algorithm=sc.algorithm)
    policy = BatchPolicy(max_batch=sc.max_batch, max_wait=sc.max_wait,
                         queue_bound=sc.queue_bound)
    if sc.workers > 1 or sc.worker_crash:
        from repro.fleet import FleetConfig, FleetService

        return FleetService(
            FleetConfig(workers=sc.workers),
            config=config, policy=policy,
            crash_schedule=build_worker_crash_schedule(sc),
            fault_schedule=build_fault_schedule(sc),
            matrix_provider=resolve_matrix,
            invariants=True,
            verify_fraction=sc.verify_fraction,
            verify_seed=sc.seed ^ 0x5EED)
    cache = FactorizationCache(max_entries=sc.cache_entries)
    return SolveService(
        config=config, policy=policy, cache=cache,
        resilience=Resilience() if sc.resilience else None,
        matrix_provider=resolve_matrix,
        fault_schedule=build_fault_schedule(sc),
        invariants=True,
        verify_fraction=sc.verify_fraction,
        verify_seed=sc.seed ^ 0x5EED)


# ---------------------------------------------------------------------------
# Contract evaluation.
# ---------------------------------------------------------------------------


def _p95(latencies: list[float]) -> float:
    if not latencies:
        return 0.0
    return float(np.percentile(np.asarray(latencies, dtype=np.float64), 95))


def _window_stats(res: ServeResult, window) -> dict:
    """Latency stats of completions arriving before/after the disturbance."""
    if window is None:
        return {"disturbance": None}
    t0, t1 = window
    base = [c.latency for c in res.completions if c.request.arrival < t0]
    rec = [c.latency for c in res.completions if c.request.arrival >= t1]
    return {"disturbance": [t0, t1],
            "baseline_n": len(base), "baseline_p95": _p95(base),
            "recovery_n": len(rec), "recovery_p95": _p95(rec)}


def _check(checks: list, name: str, hard: bool, passed: bool,
           detail: str) -> None:
    checks.append({"check": name, "hard": hard, "passed": bool(passed),
                   "detail": detail})


def evaluate_contract(contract: DegradationContract, res: ServeResult,
                      n_requests: int, windows: dict) -> list:
    """Evaluate every active contract clause against one run's records."""
    checks: list = []
    slo = res.slo
    known = {r.value for r in RejectReason}
    untyped = sorted(set(slo.shed_by_reason) - known)
    _check(checks, "typed-sheds", True, not untyped,
           f"shed reasons {sorted(slo.shed_by_reason)} all typed"
           if not untyped else f"untyped shed reason(s): {untyped}")
    _check(checks, "integrity", True,
           slo.n_integrity_failures <= contract.max_integrity_failures,
           f"{slo.n_integrity_failures} integrity failure(s) over "
           f"{slo.n_verified} sampled verification(s) "
           f"(allowed {contract.max_integrity_failures})")

    c = contract
    if c.min_completed_fraction > 0.0:
        frac = slo.n_completed / n_requests if n_requests else 0.0
        _check(checks, "completed-fraction", False,
               frac >= c.min_completed_fraction,
               f"completed {slo.n_completed}/{n_requests} = {frac:.3f} "
               f"(need >= {c.min_completed_fraction})")
    if c.max_shed_fraction < 1.0:
        frac = slo.n_shed / n_requests if n_requests else 0.0
        _check(checks, "shed-fraction", False, frac <= c.max_shed_fraction,
               f"shed {slo.n_shed}/{n_requests} = {frac:.3f} "
               f"(allowed <= {c.max_shed_fraction})")
    if c.min_deadline_met_rate > 0.0:
        rate = slo.deadline_met_rate
        _check(checks, "deadline-met-rate", False,
               slo.n_completed > 0 and rate >= c.min_deadline_met_rate,
               f"met {slo.n_deadline_met}/{slo.n_completed} = {rate:.3f} "
               f"(need >= {c.min_deadline_met_rate})")
    for reason in c.require_sheds:
        _check(checks, f"require-shed:{reason}", False,
               slo.shed_by_reason.get(reason, 0) > 0,
               f"{slo.shed_by_reason.get(reason, 0)} shed(s) with reason "
               f"{reason!r} (need >= 1)")
    for reason in c.forbid_sheds:
        _check(checks, f"forbid-shed:{reason}", False,
               slo.shed_by_reason.get(reason, 0) == 0,
               f"{slo.shed_by_reason.get(reason, 0)} shed(s) with "
               f"forbidden reason {reason!r}")
    if c.min_deduped > 0:
        _check(checks, "deduped", False, slo.deduped >= c.min_deduped,
               f"coalesced {slo.deduped} duplicate(s) "
               f"(need >= {c.min_deduped})")
    if c.min_cache_evictions > 0:
        _check(checks, "cache-evictions", False,
               slo.cache_evictions >= c.min_cache_evictions,
               f"{slo.cache_evictions} eviction(s) "
               f"(need >= {c.min_cache_evictions})")
    if c.recovery_p95_factor is not None:
        if windows.get("disturbance") is None or not windows["baseline_n"] \
                or not windows["recovery_n"]:
            _check(checks, "recovery-p95", False, True,
                   "vacuous: no baseline or no recovery completions")
        else:
            bound = c.recovery_p95_factor * windows["baseline_p95"]
            _check(checks, "recovery-p95", False,
                   windows["recovery_p95"] <= bound,
                   f"recovery p95 {windows['recovery_p95']:.3e} vs "
                   f"baseline p95 {windows['baseline_p95']:.3e} "
                   f"(allowed factor {c.recovery_p95_factor})")
    if c.max_drain_time is not None:
        if windows.get("disturbance") is None:
            _check(checks, "drain-time", False, True,
                   "vacuous: scenario declares no disturbance window")
        else:
            drain = max(0.0, slo.makespan - windows["disturbance"][1])
            _check(checks, "drain-time", False, drain <= c.max_drain_time,
                   f"drained {drain:.3e}s after the disturbance ended "
                   f"(allowed <= {c.max_drain_time})")
    return checks


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------


def run_scenario(sc: Scenario, seed: int | None = None) -> ScenarioReport:
    """Run one scenario end to end; never raises on service failure.

    ``seed`` overrides the declared seed (the fuzzer's hard-tier replay
    knob); the workload, fault plans and verification sampling all follow
    it.  An exception escaping the service is itself a hard contract
    breach and is captured into ``report.error``.
    """
    if seed is not None and seed != sc.seed:
        sc = replace(sc, seed=seed)
    workload = build_workload(sc)
    report = ScenarioReport(scenario=sc.name, seed=sc.seed,
                            n_requests=len(workload))
    try:
        service = build_service(sc)
        res = service.run(workload)
    except Exception as e:  # noqa: BLE001 - any escape is a contract breach
        report.error = f"{type(e).__name__}: {e}"
        _check(report.checks, "no-escaped-exception", True, False,
               report.error)
        return report
    _check(report.checks, "no-escaped-exception", True, True,
           "service loop ran to completion")
    report.slo = json.loads(res.slo.to_json())
    report.windows = _window_stats(res, workload.meta["disturbance"])
    report.checks.extend(
        evaluate_contract(sc.contract, res, len(workload), report.windows))
    return report


def run_all(names=None, seed: int | None = None) -> dict:
    """Run the catalog (or the named subset); ``{name: ScenarioReport}``."""
    from repro.scenarios.catalog import get_scenario, scenario_names

    out: dict = {}
    for name in (names if names is not None else scenario_names()):
        out[name] = run_scenario(get_scenario(name), seed=seed)
    return out
