"""The fleet: N solve-service workers behind a consistent-hash front door.

:class:`FleetService` scales the single virtual-time loop of
:class:`~repro.serve.service.SolveService` out to a simulated shard
fleet.  Each worker is a lane over a full ``SolveService`` — its own
:class:`~repro.serve.cache.FactorizationCache`, its own
:class:`~repro.serve.scheduler.BatchingScheduler`, its own clock — and
the front door routes every request by the content fingerprint of the
matrix it wants solved, over a :class:`~repro.fleet.ring.HashRing`, so
repeat traffic for one matrix keeps landing where its factorization is
already warm.  ``replication > 1`` spreads a hot fingerprint over that
many ring successors (per-request pick by a stable hash of the request
id), trading duplicate factorizations for parallelism on skewed mixes.

Time is co-simulated conservatively: the run is cut into *epochs* at
every instant the routing table can change (a worker crash, a recovery,
an autoscaler tick).  Within an epoch the ring is frozen, so each worker
advances its :class:`~repro.serve.service.Lane` — the single-service
event loop itself — to the epoch horizon; a one-worker fleet therefore
reproduces the ``SolveService`` SLO *bit for bit* (pinned by
``tests/test_fleet.py``).  At a crash instant the dying worker's lane is
evacuated: the record of a batch still in flight is dropped (the cluster
died mid-solve), the waiting room is drained, and everything is
re-routed through the ring at the crash time, keeping original arrivals
so the re-routed requests' latencies honestly include the detour.
Recovery brings the worker back as a *new incarnation* with a cold
cache.

Host work is shared where virtual work is not: every worker incarnation
of one run builds through the run's artifact store (``CacheKey ->
solver``, see :class:`~repro.serve.cache.FactorizationCache`), so each
solver, and every recording and value program on it, is built once per
run.  Each cache still counts and charges its own misses.

Crash schedules reuse ``repro.comm.faults``: a
:class:`~repro.comm.faults.FaultSchedule` whose plans carry ``crash``
maps is read as "worker ``w`` crashes at its plan time (clamped into the
phase window) and recovers when the window closes".

Everything — routing, crashes, scaling, SLO folds — is derived from
virtual time and stable content hashes, so one seed yields one
byte-identical :class:`~repro.fleet.report.FleetReport`, crashes
included; the fleet-smoke CI job diffs two runs to pin it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.comm.faults import FaultSchedule
from repro.fleet.autoscaler import Autoscaler, AutoscalerPolicy
from repro.fleet.report import FleetReport, build_fleet_report
from repro.fleet.ring import HashRing
from repro.matrices import get_matrix, matrix_fingerprint, validate_matrix
from repro.serve.cache import CacheStats, FactorizationCache
from repro.serve.scheduler import BatchPolicy, Rejection, RejectReason
from repro.serve.service import (
    Completion,
    Lane,
    ServeResult,
    ServiceConfig,
    SolveService,
)
from repro.serve.slo import SLOReport, build_slo
from repro.serve.workload import Request, Workload


@dataclass(frozen=True)
class FleetConfig:
    """Topology and routing knobs of one fleet."""

    workers: int = 2              # initial fleet size (indices 0..workers-1)
    vnodes: int = 64              # ring points per worker
    replication: int = 1          # ring successors a fingerprint spreads over
    ring_seed: int = 0            # placement seed for the hash ring
    # Front-door admission: an arrival is shed (typed ``queue-full``)
    # when the fleet's total logical depth — queued plus routed-but-not-
    # yet-admitted — is at or above this bound.  ``None`` disables the
    # front door, leaving backpressure to the per-worker queue bounds
    # (which is exactly the single-service behaviour, preserving parity).
    admit_bound: int | None = None

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.replication < 1:
            raise ValueError("replication must be >= 1")
        if self.admit_bound is not None and self.admit_bound < 1:
            raise ValueError("admit_bound must be >= 1 (or None)")


def crash_windows(schedule: FaultSchedule | None
                  ) -> list[tuple[float, float, int]]:
    """Read a fault schedule as worker crash windows.

    Each phase ``(t0, t1, plan)`` contributes one ``(t_crash, t_recover,
    worker)`` triple per entry of ``plan.crash``: the worker goes down at
    its plan-declared crash time clamped into the window and comes back
    when the window closes.
    """
    if schedule is None:
        return []
    out = []
    for (t0, t1, plan) in schedule.phases:
        if plan is None:
            continue
        for rank in sorted(plan.crash):
            tc = min(max(float(plan.crash[rank]), t0), t1)
            out.append((tc, float(t1), int(rank)))
    return sorted(out)


class _WorkerState:
    """One shard: its service lane plus fleet bookkeeping."""

    def __init__(self, index: int, lane: Lane):
        self.index = index
        self.lane = lane
        self.res: ServeResult | None = None   # the lane's fold, at run end
        self.state = "up"         # up / draining / down / retired
        self.past_cache: list[CacheStats] = []   # stats of dead incarnations
        self.incarnations = 1
        self.n_routed = 0
        self.n_rerouted_away = 0
        self.tick_mark = 0        # completions already seen by the autoscaler

    @property
    def svc(self) -> SolveService:
        """The live incarnation's service."""
        return self.lane.svc

    def merged_cache_stats(self) -> CacheStats:
        """Lifetime cache counters across every incarnation.

        Hit/miss/eviction counts accumulate; residency is the live
        incarnation's (dead incarnations freed their memory at the
        crash); the peak is the max any single incarnation reached.
        """
        live = self.svc.cache.stats
        if not self.past_cache:
            return live
        all_ = [*self.past_cache, live]
        return CacheStats(
            hits=sum(s.hits for s in all_),
            misses=sum(s.misses for s in all_),
            evictions=sum(s.evictions for s in all_),
            resident_bytes=live.resident_bytes,
            resident_entries=live.resident_entries,
            peak_bytes=max(s.peak_bytes for s in all_))


@dataclass
class FleetResult:
    """Everything one :meth:`FleetService.run` observed.

    Duck-compatible with :class:`~repro.serve.service.ServeResult` where
    the scenario machinery needs it (``.slo``, ``.completions``,
    ``.rejections``, ``.solutions``), plus the per-worker records, the
    event log and the serialized :class:`FleetReport`.
    """

    workers: dict                  # index -> ServeResult (slo filled in)
    completions: list[Completion]  # merged, worker-index order
    rejections: list[Rejection]    # merged: front door + every worker
    solutions: dict                # merged request id -> x
    slo: SLOReport                 # fleet-level aggregate
    events: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    report: FleetReport | None = None


class FleetService:
    """Consistent-hash sharded fleet of batching solve services."""

    def __init__(self, fleet: FleetConfig | None = None,
                 config: ServiceConfig | None = None,
                 policy: BatchPolicy | None = None,
                 crash_schedule: FaultSchedule | None = None,
                 autoscaler: AutoscalerPolicy | None = None,
                 fault_schedule: FaultSchedule | None = None,
                 keep_solutions: bool = False,
                 invariants: bool = False,
                 matrix_provider=None,
                 verify_fraction: float = 0.0,
                 verify_seed: int = 0):
        """``crash_schedule`` drives *worker* crash/recovery (see
        :func:`crash_windows`); ``fault_schedule`` is handed to every
        worker and degrades the *fabric inside* its solves, exactly as on
        a single ``SolveService``.  ``autoscaler`` enables tick-driven
        scaling between ``min_workers`` and ``max_workers``.
        """
        self.fleet = fleet or FleetConfig()
        self.config = config or ServiceConfig()
        self.policy = policy or BatchPolicy()
        self.crash_schedule = crash_schedule
        self.autoscaler = autoscaler
        self.fault_schedule = fault_schedule
        self.keep_solutions = keep_solutions
        self.invariants = invariants
        self.matrix_provider = matrix_provider
        self.verify_fraction = verify_fraction
        self.verify_seed = verify_seed
        # The run's artifact store (CacheKey -> solver) that every worker
        # cache builds through; ``run`` starts each run with an empty one.
        self._store: dict = {}
        if autoscaler is not None and self.fleet.workers > \
                autoscaler.max_workers:
            raise ValueError("initial fleet exceeds autoscaler max_workers")

    # -- construction ---------------------------------------------------------

    def _spawn_service(self) -> SolveService:
        return SolveService(
            self.config, self.policy,
            cache=FactorizationCache(store=self._store),
            fault_schedule=self.fault_schedule,
            keep_solutions=self.keep_solutions,
            matrix_provider=self.matrix_provider,
            verify_fraction=self.verify_fraction,
            verify_seed=self.verify_seed)

    def _spawn(self, index: int, t0: float) -> _WorkerState:
        return _WorkerState(index, Lane(self._spawn_service(), t0=t0))

    # -- routing --------------------------------------------------------------

    def _fingerprint(self, name: str, scale: str) -> str:
        """Routing key of a (matrix, scale): content hash when it resolves.

        A matrix that cannot be resolved or validated still needs a
        *stable* routing key — its requests route consistently to one
        shard, which sheds them with typed poison rejections exactly as
        the single service would.  The front door must never die on a
        poison input, hence the broad except.
        """
        key = (name, scale)
        if key not in self._fps:
            provider = self.matrix_provider or get_matrix
            try:
                A = provider(name, scale)
                validate_matrix(A)
                self._fps[key] = matrix_fingerprint(A).hexdigest
            except Exception:
                self._fps[key] = f"poison:{name}/{scale}"
        return self._fps[key]

    def _pick(self, r: Request) -> int | None:
        """Ring owner for one request.

        With replication the replica is the least-loaded owner by logical
        queue depth (power-of-choices over the ring successors) — a pure
        function of the fleet's virtual state, so routing stays
        replay-deterministic; ring-walk order breaks depth ties.
        """
        fp = self._fingerprint(r.matrix, r.scale)
        owners = self.ring.route(fp, self.fleet.replication)
        if not owners:
            return None
        if len(owners) == 1:
            return owners[0]
        return min(owners,
                   key=lambda i: (self.workers[i].lane.logical_depth(),
                                  owners.index(i)))

    def _admit(self, r: Request) -> None:
        """Front-door admission + routing of one fresh arrival."""
        if self.fleet.admit_bound is not None:
            depth = sum(self.workers[i].lane.logical_depth()
                        for i in self.ring.workers)
            if depth >= self.fleet.admit_bound:
                self.front_rejections.append(Rejection(
                    r, RejectReason.QUEUE_FULL, r.arrival,
                    detail="front-door admission bound"))
                return
        target = self._pick(r)
        if target is None:
            self.front_rejections.append(Rejection(
                r, RejectReason.WORKER_CRASH, r.arrival,
                detail="no live workers"))
            return
        self.workers[target].lane.deliver(r, r.arrival)
        self.workers[target].n_routed += 1

    def _reroute(self, r: Request, t: float) -> None:
        """Re-home an evacuated request at the crash instant.

        Re-routes bypass the front-door bound — the request was already
        admitted once; shedding it again for a failure it did not cause
        would double-charge the client.

        The crash may evacuate requests that were routed ahead of their
        own arrival (``run`` pre-delivers every arrival before the epoch
        horizon), so the effective delivery time is clamped to the
        request's arrival: nothing may reach — or be shed at — a worker's
        door before it exists.
        """
        t_eff = max(t, r.arrival)
        target = self._pick(r)
        if target is None:
            self.front_rejections.append(Rejection(
                r, RejectReason.WORKER_CRASH, t_eff,
                detail="no live workers"))
            return
        self.workers[target].lane.deliver(r, t_eff)
        self.workers[target].n_routed += 1
        self.counters["n_rerouted"] += 1

    # -- crash / recovery -----------------------------------------------------

    def _revive(self, ws: _WorkerState, t: float) -> None:
        """New incarnation: fresh service, fresh (cold) cache, clock at t."""
        ws.past_cache.append(ws.svc.cache.stats)
        ws.lane.revive(self._spawn_service(), t)
        ws.state = "up"
        ws.incarnations += 1

    def _apply_crashes(self, t: float,
                       windows: list[tuple[float, float, int]]) -> None:
        due = [w for (tc, _tr, w) in windows if tc == t]
        acting = []
        for w in due:
            ws = self.workers.get(w)
            if ws is None or ws.state not in ("up", "draining"):
                self._event(t, "crash", w, "ignored (worker not running)")
                continue
            if w in self.ring:
                self.ring.remove(w)
            acting.append(ws)
        lost_all: list[Request] = []
        for ws in sorted(acting, key=lambda s: s.index):
            lost = ws.lane.collapse(t)
            ws.state = "down"
            ws.n_rerouted_away += len(lost)
            self.counters["n_crashes"] += 1
            self._event(t, "crash", ws.index,
                        f"incarnation {ws.incarnations} down, "
                        f"{len(lost)} requests evacuated")
            lost_all.extend(lost)
        for r in lost_all:
            self._reroute(r, t)

    def _apply_recoveries(self, t: float,
                          windows: list[tuple[float, float, int]]) -> None:
        for (_tc, tr, w) in windows:
            if tr != t:
                continue
            ws = self.workers.get(w)
            if ws is None or ws.state != "down":
                continue
            self._revive(ws, t)
            if w not in self.ring:
                self.ring.add(w)
            self.counters["n_recoveries"] += 1
            self._event(t, "recover", w,
                        f"incarnation {ws.incarnations} up, cache cold")

    # -- autoscaling ----------------------------------------------------------

    def _tick(self, t: float, scaler: Autoscaler) -> None:
        routable = [i for i in self.ring.workers
                    if self.workers[i].state == "up"]
        depths = {i: self.workers[i].lane.logical_depth() for i in routable}
        lats: list[float] = []
        for i in sorted(self.workers):
            ws = self.workers[i]
            done = ws.lane.completions()
            lats.extend(c.latency for c in done[ws.tick_mark:])
            ws.tick_mark = len(done)
        p95 = (float(np.percentile(np.asarray(lats, dtype=np.float64), 95))
               if lats else None)
        d = scaler.decide(depths, len(routable), p95)
        if d.action == "up":
            cap = scaler.policy.max_workers
            idx = next((i for i in range(cap)
                        if i not in self.workers
                        or self.workers[i].state == "retired"), None)
            if idx is None:
                return
            if idx in self.workers:
                self._revive(self.workers[idx], t)
            else:
                self.workers[idx] = self._spawn(idx, t0=t)
            self.ring.add(idx)
            self.counters["n_scale_up"] += 1
            self._event(t, "scale-up", idx, d.reason)
        elif d.action == "down":
            victim = self._drain_victim(routable, depths)
            self.ring.remove(victim)
            self.workers[victim].state = "draining"
            self.counters["n_scale_down"] += 1
            self._event(t, "scale-down", victim,
                        f"{d.reason}; draining {depths[victim]} queued")

    def _drain_victim(self, routable: list[int], depths: dict) -> int:
        """Scale-down victim choice: cache locality first, then load.

        Draining a worker discards its warm factorizations with it, so
        the fleet prefers victims whose every warm fingerprint is still
        resident on another routable worker — draining the *only* warm
        replica of a hot matrix forces a cold refactorization storm on
        the next burst even though that worker looked cheapest by queue
        depth.  Ties break by logical depth (least loaded), then by
        highest worker index, all pure functions of virtual state so the
        choice replays byte-identically.
        """
        warm = {i: self.workers[i].svc.cache.warm_fingerprints()
                for i in routable}

        def n_solo(i: int) -> int:
            elsewhere: set = set()
            for j in routable:
                if j != i:
                    elsewhere |= warm[j]
            return sum(1 for fp in warm[i] if fp not in elsewhere)

        return min(routable, key=lambda i: (n_solo(i), depths[i], -i))

    # -- the fleet loop -------------------------------------------------------

    def _event(self, t: float, kind: str, worker: int | None,
               detail: str) -> None:
        self.events.append({"t": t, "kind": kind, "worker": worker,
                            "detail": detail})

    def run(self, workload: Workload) -> FleetResult:
        """Serve ``workload`` across the fleet; deterministic in its inputs."""
        arrivals = sorted(workload.requests, key=lambda r: (r.arrival, r.id))
        self._store = {}
        self.workers: dict[int, _WorkerState] = {}
        self.ring = HashRing(range(self.fleet.workers),
                             vnodes=self.fleet.vnodes,
                             seed=self.fleet.ring_seed)
        for i in range(self.fleet.workers):
            self.workers[i] = self._spawn(i, t0=0.0)
        self.events = []
        self.front_rejections: list[Rejection] = []
        self.counters = {"n_rerouted": 0, "n_crashes": 0, "n_recoveries": 0,
                         "n_scale_up": 0, "n_scale_down": 0}
        self._fps: dict = {}
        scaler = Autoscaler(self.autoscaler) if self.autoscaler else None
        windows = crash_windows(self.crash_schedule)
        bounds = sorted({t for (tc, tr, _w) in windows for t in (tc, tr)})
        bi = 0
        next_tick = scaler.policy.period if scaler else None
        ai = 0

        while True:
            have_work = ai < len(arrivals) or any(
                ws.state in ("up", "draining") and ws.lane.logical_depth()
                for ws in self.workers.values())
            cands = []
            if bi < len(bounds):
                cands.append(bounds[bi])
            if next_tick is not None and have_work:
                cands.append(next_tick)
            horizon = min(cands) if cands else math.inf

            while ai < len(arrivals) and arrivals[ai].arrival < horizon:
                self._admit(arrivals[ai])
                ai += 1
            for i in sorted(self.workers):
                ws = self.workers[i]
                if ws.state in ("up", "draining"):
                    ws.lane.advance(horizon)
            if not cands:
                break
            if bi < len(bounds) and bounds[bi] == horizon:
                bi += 1
                self._apply_crashes(horizon, windows)
                self._apply_recoveries(horizon, windows)
            if next_tick is not None and next_tick == horizon:
                self._tick(horizon, scaler)
                next_tick += scaler.policy.period

        result = self._finalize(workload)
        self._store.clear()   # live caches keep what they hold
        return result

    # -- folding --------------------------------------------------------------

    def _finalize(self, workload: Workload) -> FleetResult:
        worker_results: dict[int, ServeResult] = {}
        for i in sorted(self.workers):
            ws = self.workers[i]
            if ws.state == "draining" and ws.lane.logical_depth() == 0:
                ws.state = "retired"
            # Everything routed here and not evacuated was completed or
            # shed here.
            ws.res = ws.lane.finish(ws.n_routed - ws.n_rerouted_away,
                                    ws.merged_cache_stats())
            worker_results[i] = ws.res

        parts = worker_results.values()       # in worker-index order
        completions = [c for r in parts for c in r.completions]
        rejections = [*self.front_rejections,
                      *(j for r in parts for j in r.rejections)]
        solutions = {k: x for r in parts for k, x in r.solutions.items()}

        t_end = max((ws.lane.t for ws in self.workers.values()),
                    default=0.0)
        merged_stats = CacheStats(
            hits=sum(r.slo.cache_hits for r in parts),
            misses=sum(r.slo.cache_misses for r in parts),
            evictions=sum(r.slo.cache_evictions for r in parts),
            resident_bytes=sum(r.slo.cache_resident_bytes for r in parts),
            resident_entries=sum(ws.svc.cache.stats.resident_entries
                                 for ws in self.workers.values()),
            peak_bytes=max((r.slo.cache_peak_bytes for r in parts),
                           default=0))
        areas = [ws.lane.qdepth.area for ws in self.workers.values()]
        horizon = max((ws.lane.qdepth._t for ws in self.workers.values()),
                      default=0.0)
        fleet_slo = build_slo(
            n_requests=len(workload),
            latencies=[c.latency for c in completions],
            deadline_met=[c.deadline_met for c in completions],
            shed_reasons=[str(r.reason) for r in rejections],
            batch_sizes=[b.size for r in parts for b in r.batches],
            queue_samples=[s for r in parts for s in r.queue_samples],
            queue_time_mean=(sum(areas) / horizon if horizon > 0 else 0.0),
            cache_stats=merged_stats,
            setup_time=sum(r.slo.setup_time for r in parts),
            solve_time=sum(r.slo.solve_time for r in parts),
            makespan=max((c.t_complete for c in completions), default=t_end),
            deduped=sum(r.deduped for r in parts),
            n_verified=sum(r.n_verified for r in parts),
            n_integrity_failures=sum(len(r.integrity_failures)
                                     for r in parts),
            n_replayed=sum(r.n_replayed for r in parts))

        front_shed: dict[str, int] = {}
        for rej in self.front_rejections:
            front_shed[str(rej.reason)] = front_shed.get(str(rej.reason),
                                                         0) + 1
        self.counters["front_shed"] = front_shed
        result = FleetResult(
            workers=worker_results, completions=completions,
            rejections=rejections, solutions=solutions, slo=fleet_slo,
            events=self.events, counters=dict(self.counters))
        result.report = build_fleet_report(self, workload, result)
        if self.invariants:
            from repro.check.invariants import check_fleet

            check_fleet(workload, result, service=self)
        return result
