"""The solve service: a virtual-time loop tying the tier together.

:class:`SolveService` models a single-server solve endpoint in the same
virtual time as the communication simulator underneath it.  Its loop,
:class:`Lane` (also each fleet worker's), is discrete-event serving:

1. requests are admitted (or shed, typed) at their arrival instants by the
   :class:`~repro.serve.scheduler.BatchingScheduler`;
2. whenever the server is free and a matrix group is dispatch-due, the
   scheduler's EDF pick becomes one batched solve — requests' single
   right-hand sides stacked into an ``(n, k)`` block handed to
   ``SpTRSVSolver.solve_blocked``;
3. the batch's factorization comes from the
   :class:`~repro.serve.cache.FactorizationCache` (a miss charges the
   solver's virtual factorization estimate as setup time, a hit charges
   nothing);
4. the server advances its clock by setup + the solve's *simulated*
   makespan — the α/β cost model, not host wall-clock — and completes the
   batch's requests.

Because the kernels produce per-column bit-identical solutions (see
``matmul_columns``), every request's answer is the same bits whether it
was solved alone, inside any batch, against a cold factorization or a
cache hit — asserted by ``tests/test_serve.py``.  So a hot replayed batch
completes from its timing record and takes its values later, in one panel
of its program (:data:`PANEL_COLUMNS`), before ``run()`` returns.

Optional integrations: ``profile=True`` attaches a
:class:`~repro.obs.metrics.MetricsRegistry` per batch and aggregates the
α/β communication split into the SLO report; ``faults=`` runs every batch
over a lossy fabric (each batch gets an independent fork of the plan) with
``resilience=`` providing PR 1's verified-degradation envelope.
"""

from __future__ import annotations

import bisect
import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.comm.costmodel import MACHINES
from repro.comm.faults import FaultPlan, FaultSchedule
from repro.core.backends import is_replayable, resolve
from repro.core.solver import Resilience, SpTRSVSolver
from repro.matrices import (
    InvalidMatrixError,
    InvalidRhsError,
    get_matrix,
    matrix_fingerprint,
    validate_matrix,
    validate_rhs,
)
from repro.numfact import solve_residual, stability_report
from repro.obs.metrics import PhaseStats
from repro.replay.api import replay_hot, run_program
from repro.serve.cache import CacheKey, CacheStats, FactorizationCache
from repro.serve.scheduler import (
    BatchingScheduler,
    BatchPolicy,
    Rejection,
    RejectReason,
    dedup_key,
)
from repro.serve.slo import SLOReport, build_slo
from repro.serve.workload import Request, Workload

#: Relative solve-residual bound for sampled integrity verification; an
#: accepted completion above this is a *corrupted answer*, the one thing
#: the degradation contracts forbid outright.
INTEGRITY_TOL = 1e-8

#: Widest value-program panel a service executes at once.  A hot replayed
#: batch is dispatched from its timing record and its columns wait in a
#: per-program panel; the panel runs when the next batch would overflow it
#: and when the run ends.  Width sweep in ``docs/SERVING.md``.
PANEL_COLUMNS = 32


@dataclass(frozen=True)
class ServiceConfig:
    """Solver-side configuration shared by every batch the service runs."""

    px: int = 1
    py: int = 1
    pz: int = 4
    machine: str = "cori-haswell"
    algorithm: str = "new3d"
    device: str = "cpu"
    max_supernode: int = 16
    symbolic_mode: str = "detect"
    ordering: str = "nd"
    # Admission hardening: matrices above this row count are rejected
    # before any preprocessing (resource-exhaustion poison); matrices
    # whose no-pivoting factorization shows catastrophic element growth
    # are rejected after factoring (numeric poison) when the gate is on.
    max_matrix_n: int = 100_000
    stability_gate: bool = True
    # Serve cache-hit, fault-free CPU batches on the compiled
    # schedule-replay fast path (bit-identical answers and virtual clocks;
    # see repro.replay).  Off forces every batch through the simulator —
    # the benchmark's baseline leg and an escape hatch.
    replay: bool = True
    # Route every batch through the cost-model planner (repro.planner):
    # the dispatched algorithm becomes the planner's cached pick for
    # (matrix, grid, machine, batch width) instead of ``algorithm``.
    # Verification re-solves use the same resolved pick, so the batching
    # bit-identity contract is planner-transparent.
    planner: bool = False

    def __post_init__(self):
        if self.machine not in MACHINES:
            raise ValueError(f"unknown machine {self.machine!r} "
                             f"(have {sorted(MACHINES)})")
        if self.max_matrix_n < 1:
            raise ValueError("max_matrix_n must be >= 1")
        if self.planner and self.device != "cpu":
            raise ValueError(
                "planner=True plans over the CPU backends only "
                "(device='cpu')")


@dataclass
class BatchRecord:
    """One dispatched batch, for the histogram and for debugging."""

    batch_id: int
    matrix: str
    scale: str
    size: int                 # nrhs = number of coalesced requests
    request_ids: list[int]
    t_dispatch: float
    t_complete: float
    cache_hit: bool
    setup_time: float
    solve_time: float
    replayed: bool = False    # served (at least partly) by the replay path


@dataclass
class Completion:
    """One finished request with its end-to-end (queue + solve) latency."""

    request: Request
    t_complete: float
    batch_id: int

    @property
    def latency(self) -> float:
        return self.t_complete - self.request.arrival

    @property
    def deadline_met(self) -> bool:
        return self.t_complete <= self.request.deadline


@dataclass
class ServeResult:
    """Everything :meth:`SolveService.run` observed, plus the SLO fold."""

    completions: list[Completion]
    rejections: list[Rejection]
    batches: list[BatchRecord]
    queue_samples: list[int]
    solutions: dict = field(default_factory=dict)   # request id -> (n,) x
    slo: SLOReport = field(default_factory=SLOReport)
    deduped: int = 0                 # duplicates coalesced across all batches
    n_verified: int = 0              # completions sampled for integrity
    integrity_failures: list = field(default_factory=list)  # audit records
    n_replayed: int = 0              # batches served by the replay fast path
    # The lane's id(program) -> hot batches still without values: empty.
    _panels: dict = field(default_factory=dict, repr=False, compare=False)


@dataclass
class _Batch:
    """What a batch's values are computed, checked and fanned out from."""

    solver: SpTRSVSolver
    B: np.ndarray                    # distinct columns, original row order
    col_of: dict                     # dedup key -> column of B
    faulted: bool
    algorithm: str
    prog: object = None              # hot: the value program of its panel


@dataclass
class _Record:
    """One dispatched batch with every effect it has on a lane's result
    (which is the fold of the lane's surviving records)."""

    batch: BatchRecord
    completions: list[Completion]
    job: _Batch | None               # dropped once the values fan out
    solutions: dict = field(default_factory=dict)   # request id -> x
    failures: list = field(default_factory=list)    # integrity audit records


class _QueueDepthIntegral:
    """Time-weighted queue-depth accumulator over virtual time.

    The loop reports the depth after every depth-changing event at that
    event's virtual instant; the mean is then ``∫ depth dt / horizon``,
    independent of how many (possibly idle) loop iterations happened —
    unlike a per-iteration sample average, which over-weights whatever
    the scheduler internals iterate on.
    """

    def __init__(self):
        self.area = 0.0
        self._t = 0.0
        self._depth = 0

    def record(self, t: float, depth: int) -> None:
        if t > self._t:
            self.area += self._depth * (t - self._t)
            self._t = t
        self._depth = depth

    def mean(self) -> float:
        return self.area / self._t if self._t > 0 else 0.0


class SolveService:
    """Batching, caching, deadline-scheduled solve server (virtual time)."""

    def __init__(self, config: ServiceConfig | None = None,
                 policy: BatchPolicy | None = None,
                 cache: FactorizationCache | None = None,
                 faults: FaultPlan | None = None,
                 resilience: Resilience | None = None,
                 profile: bool = False,
                 keep_solutions: bool = True,
                 invariants: bool = False,
                 matrix_provider=None,
                 fault_schedule: FaultSchedule | None = None,
                 verify_fraction: float = 0.0,
                 verify_seed: int = 0):
        """``matrix_provider`` overrides matrix resolution (``(name,
        scale) -> sparse matrix``; default the paper suite) — adversarial
        scenarios route ``poison-*`` names through it.  ``fault_schedule``
        swaps the fabric's fault plan per dispatch instant (mid-run
        escalation); it takes precedence over the static ``faults`` plan.
        ``verify_fraction`` samples that fraction of completions for
        integrity verification (residual bound, plus bit-equality against
        a fresh single-RHS solve on fault-free batches), deterministic in
        ``verify_seed``; verification is an observer — it charges no
        virtual time.
        """
        self.config = config or ServiceConfig()
        self.policy = policy or BatchPolicy()
        self.cache = cache if cache is not None else FactorizationCache()
        self.faults = faults
        self.resilience = resilience
        self.profile = profile
        self.keep_solutions = keep_solutions
        self.invariants = invariants
        self.matrix_provider = matrix_provider
        self.fault_schedule = fault_schedule
        if not 0.0 <= verify_fraction <= 1.0:
            raise ValueError("verify_fraction must be in [0, 1]")
        self.verify_fraction = verify_fraction
        self.verify_seed = verify_seed
        # (matrix, scale) -> (A, fingerprint hexdigest); fingerprints are
        # content hashes, so computing one per distinct matrix suffices.
        self._matrices: dict = {}
        # (matrix, scale) -> InvalidMatrixError: matrices that already
        # failed ingestion; later batches shed without re-validating.
        self._poison: dict = {}

    # -- solver construction --------------------------------------------------

    def _matrix(self, name: str, scale: str):
        key = (name, scale)
        known_bad = self._poison.get(key)
        if known_bad is not None:
            raise known_bad
        if key not in self._matrices:
            provider = self.matrix_provider or get_matrix
            try:
                A = provider(name, scale)
                validate_matrix(A)
                if A.shape[0] > self.config.max_matrix_n:
                    raise InvalidMatrixError(
                        "too-large",
                        f"matrix has {A.shape[0]} rows, above the service "
                        f"admission bound {self.config.max_matrix_n}")
            except InvalidMatrixError as err:
                self._poison[key] = err
                raise
            self._matrices[key] = (A, matrix_fingerprint(A).hexdigest)
        return self._matrices[key]

    def cache_key(self, name: str, scale: str) -> CacheKey:
        _, digest = self._matrix(name, scale)
        c = self.config
        return CacheKey(fingerprint=digest, px=c.px, py=c.py, pz=c.pz,
                        machine=c.machine, max_supernode=c.max_supernode,
                        symbolic_mode=c.symbolic_mode, ordering=c.ordering)

    def _build_solver(self, name: str, scale: str) -> SpTRSVSolver:
        A, _ = self._matrix(name, scale)
        c = self.config
        solver = SpTRSVSolver(A, px=c.px, py=c.py, pz=c.pz,
                              machine=MACHINES[c.machine],
                              max_supernode=c.max_supernode,
                              symbolic_mode=c.symbolic_mode,
                              ordering=c.ordering)
        if c.stability_gate:
            stab = stability_report(solver.A_perm, solver.lu)
            if not stab.is_stable():
                raise InvalidMatrixError(
                    "unstable-factorization",
                    f"element growth {stab.growth_factor:.3g} / pivot "
                    f"ratio {stab.pivot_ratio:.3g} outside the no-pivoting "
                    f"stability envelope")
        return solver

    # -- the service loop -----------------------------------------------------

    def run(self, workload: Workload) -> ServeResult:
        """Serve ``workload`` to completion; deterministic in its inputs."""
        arrivals = sorted(workload.requests, key=lambda r: (r.arrival, r.id))
        lane = Lane(self, [(r.arrival, r.id, r) for r in arrivals])
        lane.advance(math.inf)
        res = lane.finish(len(workload), self.cache.stats)
        if self.invariants:
            from repro.check.invariants import check_serve

            check_serve(workload, res, service=self)
        return res

    def _dispatch(self, batch: list[Request], lane: Lane) -> _Record | None:
        """Run one batched solve at the lane's clock; returns its record,
        or ``None`` when every request in it was shed.

        Hardened against poison inputs: a matrix that fails ingestion (or
        the stability gate) sheds the whole batch with typed
        ``poison-input`` rejections; a malformed right-hand side sheds
        only its request.  Duplicate requests (equal
        :func:`~repro.serve.scheduler.dedup_key`) share one solved column
        fanned out to every caller.  Shedding charges no virtual time —
        rejecting is the cheap path by design.  A simulated batch's values
        fan out here; a hot replayed batch's record keeps its job for the
        program's panel.
        """
        t, batch_id = lane.t, len(lane.records)
        name, scale = batch[0].matrix, batch[0].scale
        try:
            solver, setup, hit = self.cache.get_or_build(
                self.cache_key(name, scale),
                lambda: self._build_solver(name, scale))
        except InvalidMatrixError as err:
            self._poison[(name, scale)] = err
            lane.rejections.extend(
                Rejection(r, RejectReason.POISON_INPUT, t, detail=err.reason)
                for r in batch)
            return None

        # One column per distinct dedup key; malformed RHS sheds its
        # request (and, transitively, its duplicates — identical bits).
        live: list[Request] = []
        columns: list[np.ndarray] = []
        col_of: dict = {}
        for r in batch:
            k = dedup_key(r)
            if k in col_of:
                live.append(r)          # duplicate: column already built
                continue
            try:
                b = r.rhs(solver.n)
                validate_rhs(solver.n, b)
            except InvalidRhsError as err:
                lane.rejections.append(Rejection(
                    r, RejectReason.POISON_INPUT, t, detail=err.reason))
                continue
            col_of[k] = len(columns)
            columns.append(b if b.ndim == 2 else b[:, None])
            live.append(r)
        if not columns:
            return None

        B = np.hstack(columns)
        algorithm = self._resolve_algorithm(solver, B.shape[1])
        kw: dict = dict(algorithm=algorithm,
                        device=self.config.device, profile=self.profile)
        if self.fault_schedule is not None:
            plan = self.fault_schedule.plan_at(t)
            if plan is not None:
                kw["faults"] = plan.fork(batch_id)
        elif self.faults is not None:
            kw["faults"] = self.faults.fork(batch_id)
        if self.resilience is not None:
            kw["resilience"] = self.resilience
        # Replay fast path: a cache-hit, fault-free CPU batch takes the
        # solver's compiled schedule (bit-identical answers and virtual
        # clocks by construction; see repro.replay).  The first batch of a
        # given shape records — a normal simulated solve — so misses,
        # faulted/resilient batches, and backends the table does not flag
        # replayable always take the simulator.  A hot batch completes from
        # its timing record; its values wait for the program's panel.
        kw["replay"] = (self.config.replay and hit
                        and self.config.device == "cpu"
                        and is_replayable(algorithm)
                        and "faults" not in kw and self.resilience is None)
        hot = None
        if kw["replay"]:
            hot = replay_hot(solver, resolve(algorithm, solver.grid),
                             B.shape[1], solver.machine, self.profile)
        if hot is not None:
            prog, report = hot
            resil = None
        else:
            prog = None
            out = solver.solve_blocked(B, rhs_block=self.policy.max_batch,
                                       **kw)
            report, resil = out.report, out.resilience
        if kw["replay"] and self.invariants:
            # Replayed batches must still reconcile with the
            # observability layer: the copied timing result obeys the
            # same conservation laws as a live simulation.
            from repro.check.invariants import check_metrics, check_sim

            check_sim(report.sim)
            if report.metrics is not None:
                check_metrics(report)
        solve_time = (resil.total_time if resil is not None
                      else report.total_time)
        if lane.comm is not None and report.metrics is not None:
            lane.comm.add(report.metrics.stats())

        t_done = t + setup + solve_time
        rec = _Record(
            batch=BatchRecord(
                batch_id=batch_id, matrix=name, scale=scale,
                size=len(columns), request_ids=[r.id for r in live],
                t_dispatch=t, t_complete=t_done, cache_hit=hit,
                setup_time=setup, solve_time=solve_time,
                replayed=hot is not None),
            completions=[Completion(request=r, t_complete=t_done,
                                    batch_id=batch_id) for r in live],
            job=_Batch(solver, B, col_of, "faults" in kw, algorithm, prog))
        if hot is None:
            self._fan_out(rec, out.x if out.x.ndim == 2 else out.x[:, None])
        return rec

    def _fan_out(self, rec: _Record, X: np.ndarray) -> None:
        """Fan a batch's solved columns out to its requests, check the
        sampled ones, and let go of its right-hand sides."""
        job, rec.job = rec.job, None
        if self.keep_solutions:
            rec.solutions = {
                c.request.id: X[:, job.col_of[dedup_key(c.request)]].copy()
                for c in rec.completions}
        if self.verify_fraction > 0.0:
            self._verify_batch(rec, job, X)

    def _resolve_algorithm(self, solver: SpTRSVSolver, nrhs: int) -> str:
        """The algorithm this batch actually runs.

        With ``planner=True`` the cost-model planner's cached pick for
        (this matrix, this grid/machine, this batch width) replaces the
        configured algorithm; resolving once per batch keeps dispatch and
        verification on the same backend even if the planner's decision
        is later corrected by measured feedback.
        """
        if not self.config.planner:
            return self.config.algorithm
        from repro.planner import DEFAULT_PLANNER

        return DEFAULT_PLANNER.choose(solver, nrhs=nrhs).algorithm

    # -- sampled integrity verification ---------------------------------------

    def _sampled(self, request_id: int) -> bool:
        """Deterministic per-request sampling decision (seeded hash)."""
        h = zlib.crc32(f"{self.verify_seed}:{request_id}".encode())
        return (h % 1_000_000) < self.verify_fraction * 1_000_000

    def _verify_batch(self, rec: _Record, job: _Batch,
                      X: np.ndarray) -> None:
        """Re-check sampled completions of one batch (host-time observer).

        Every sampled answer must meet the residual bound; on fault-free
        batches it must additionally be bit-identical to a fresh
        single-RHS solve on the same cached factorization (the batching
        contract).  Faulted batches may have legitimately degraded to a
        fallback tier whose bits differ, so only the residual applies.
        Failures are recorded on the batch's record — never silently
        dropped — and surface as ``n_integrity_failures`` in the SLO
        report, where the degradation contracts pin them to zero.
        ``n_verified`` is a fold over the completions (it needs no
        values); this runs when ``X`` exists.
        """
        checked: set = set()
        batch_id = rec.batch.batch_id
        for c in rec.completions:
            r = c.request
            col = job.col_of[dedup_key(r)]
            if col in checked or not self._sampled(r.id):
                continue            # duplicate shares the verified column
            checked.add(col)
            x = X[:, col]
            b = job.B[:, col]
            rel = solve_residual(job.solver.A, x[:, None], b[:, None])
            if rel > INTEGRITY_TOL:
                rec.failures.append(
                    {"request_id": r.id, "batch_id": batch_id,
                     "kind": "residual", "value": float(rel)})
                continue
            if not job.faulted:
                ref = job.solver.solve(b, algorithm=job.algorithm,
                                       device=self.config.device).x
                if not np.array_equal(x, ref):
                    rec.failures.append(
                        {"request_id": r.id, "batch_id": batch_id,
                         "kind": "bit-mismatch", "value": 0.0})


class Lane:
    """The service loop: one server's clock, queue, backlog and records.

    :meth:`SolveService.run` advances one lane to ∞; a fleet advances one
    lane per worker, epoch by epoch.  Each dispatched batch is one record
    carrying all of its effects and :meth:`finish` folds the surviving
    records, so a crash drops the in-flight record instead of undoing it.
    """

    def __init__(self, svc: SolveService,
                 backlog: list[tuple[float, int, Request]] | None = None,
                 t0: float = 0.0):
        self.svc = svc
        self.sched = BatchingScheduler(policy=svc.policy)
        # Unadmitted requests, sorted (t_effective, id, Request): the instant
        # each reached this lane's door.  ``bi`` is the admission cursor.
        self.backlog = backlog if backlog is not None else []
        self.bi = 0
        self.t = t0
        self.qdepth = _QueueDepthIntegral()
        self.comm = PhaseStats() if svc.profile else None
        self.rejections: list[Rejection] = []
        self.queue_samples: list[int] = []
        self.records: list[_Record] = []
        # id(program) -> hot records whose values wait for that panel.
        self.panels: dict[int, list[_Record]] = {}

    def deliver(self, r: Request, t: float) -> None:
        """Queue ``r`` for admission at ``t``."""
        bisect.insort(self.backlog, (t, r.id, r))

    def logical_depth(self) -> int:
        """Queued plus routed-but-unadmitted — the backpressure gauge."""
        return len(self.backlog) - self.bi + self.sched.depth()

    def completions(self) -> list[Completion]:
        """Every completion so far, in-flight batch included."""
        return [c for rec in self.records for c in rec.completions]

    def advance(self, horizon: float) -> None:
        """Run the events strictly before ``horizon``.  A batch may finish
        past it; the next call resumes from that completion, so an epoch
        cut leaves the trajectory unchanged."""
        sched, backlog = self.sched, self.backlog
        while self.t < horizon:
            while self.bi < len(backlog) and backlog[self.bi][0] <= self.t:
                t_eff, _, r = backlog[self.bi]
                self.bi += 1
                rej = sched.offer(r, t_eff)
                if rej is not None:
                    self.rejections.append(rej)
                self.qdepth.record(t_eff, sched.depth())
            expired = sched.expire(self.t)
            if expired:
                self.rejections.extend(expired)
                self.qdepth.record(self.t, sched.depth())
            self.queue_samples.append(sched.depth())

            key = sched.ready_group(self.t)
            if key is None:
                # Idle: jump to the next arrival, batch-age or expiry
                # trigger.
                nexts = [x for x in (backlog[self.bi][0]
                                     if self.bi < len(backlog) else None,
                                     sched.next_trigger())
                         if x is not None and x < horizon]
                if not nexts:
                    break
                self.t = max(self.t, min(nexts))
                continue

            batch, shed = sched.pop_batch(key, self.t)
            self.rejections.extend(shed)
            self.qdepth.record(self.t, sched.depth())
            if batch:
                self._dispatch(batch)

    def _dispatch(self, batch: list[Request]) -> None:
        rec = self.svc._dispatch(batch, self)
        if rec is None:
            return
        self.records.append(rec)
        self.t = rec.batch.t_complete
        if rec.job is None:
            return
        key = id(rec.job.prog)
        queued = self.panels.get(key)
        if queued and sum(q.batch.size for q in queued) + rec.batch.size \
                > PANEL_COLUMNS:
            self._flush_panel(key)
        self.panels.setdefault(key, []).append(rec)

    def _flush_panel(self, key: int) -> None:
        """Compute one panel's values and fan them out to its records."""
        recs = self.panels.pop(key)
        job = recs[0].job
        B = np.hstack([rec.job.B for rec in recs])
        X = run_program(job.solver, job.prog, B[job.solver.perm], B.shape[1])
        c0 = 0
        for rec in recs:
            c1 = c0 + rec.batch.size
            self.svc._fan_out(rec, X[:, c0:c1])
            c0 = c1

    def collapse(self, t: float) -> list[Request]:
        """Evacuate the lane at crash instant ``t``: every request alive
        on it, the in-flight batch's first (its record and queued panel
        job are dropped), then the waiting room's, then the backlog's."""
        lost: list[Request] = []
        if self.records and self.records[-1].batch.t_complete > t:
            rec = self.records.pop()
            lost.extend(c.request for c in rec.completions)
            if rec.job is not None:
                key = id(rec.job.prog)
                self.panels[key].pop()      # the last record dispatched
                if not self.panels[key]:
                    del self.panels[key]
        lost.extend(self.sched.drain())
        lost.extend(r for _, _, r in self.backlog[self.bi:])
        self.bi = len(self.backlog)
        self.qdepth.record(t, 0)
        self.t = t
        return lost

    def revive(self, svc: SolveService, t: float) -> None:
        """Resume at ``t`` through a fresh service with an empty queue."""
        self.svc = svc
        self.sched = BatchingScheduler(policy=svc.policy)
        self.t = max(self.t, t)

    def finish(self, n_requests: int, cache_stats: CacheStats) -> ServeResult:
        """Compute every queued panel and fold the records into a result."""
        for key in list(self.panels):
            self._flush_panel(key)
        self.qdepth.record(self.t, self.sched.depth())
        batches = [rec.batch for rec in self.records]
        done = self.completions()
        res = ServeResult(
            completions=done, rejections=self.rejections,
            batches=batches, queue_samples=self.queue_samples,
            solutions={k: x for rec in self.records
                       for k, x in rec.solutions.items()},
            deduped=sum(len(b.request_ids) - b.size for b in batches),
            n_verified=sum(self.svc._sampled(c.request.id) for c in done),
            integrity_failures=[f for rec in self.records
                                for f in rec.failures],
            n_replayed=sum(b.replayed for b in batches),
            _panels=self.panels)
        res.slo = build_slo(
            n_requests=n_requests,
            latencies=[c.latency for c in done],
            deadline_met=[c.deadline_met for c in done],
            shed_reasons=[str(r.reason) for r in self.rejections],
            batch_sizes=[b.size for b in batches],
            queue_samples=self.queue_samples,
            queue_time_mean=self.qdepth.mean(), cache_stats=cache_stats,
            setup_time=sum((b.setup_time for b in batches), 0.0),
            solve_time=sum((b.solve_time for b in batches), 0.0),
            makespan=max((c.t_complete for c in done), default=self.t),
            comm=self.comm, deduped=res.deduped, n_verified=res.n_verified,
            n_integrity_failures=len(res.integrity_failures),
            n_replayed=res.n_replayed)
        return res
