"""Differential fuzzing over solver and serving configurations.

A :class:`FuzzCase` is one seeded, fully replayable configuration draw:
either a *solve* case (matrix generator × size × grid shape × ordering ×
symbolic mode × device × ``nrhs`` × optional fault rates) or a *serve*
case (workload spec × batching policy × grid).  :func:`run_case` executes
every applicable path of the case and cross-checks them:

- every backend-table row valid on the drawn grid
  (:data:`repro.core.backends.BACKENDS`; plus GPU when drawn) solves to a
  small relative residual against the right-hand side, rows declaring
  bit-identity to another row match it bit for bit, and the sequential
  reference tier agrees with an independent
  ``scipy.sparse.linalg.spsolve``;
- multi-RHS solves are **bit-identical** per column to single-RHS solves
  (the serving tier's batching contract from PR 3);
- replaying a solve reproduces **bit-identical** virtual clocks and
  solution bits, and profiling is an observer (clocks with ``profile=``
  equal clocks without);
- on replay-enabled draws, the compiled fast path (:mod:`repro.replay`)
  — both its recording solve and its compiled re-execution — matches the
  simulated solve bit-for-bit: solution, clocks, per-label times, marks
  and message accounting;
- profiled runs report the sync count each row declares (the paper's
  headline: one inter-grid sync point for the proposed algorithm,
  ``ceil(log2 Pz)`` for the baseline, zero when ``Pz == 1``);
- strict-match draws cross-check the dynamic and static ambiguity
  detectors: a ``strict_match=True`` solve either completes bit-identical
  to the normal run, or its :class:`AmbiguousRecvError` is corroborated
  by :mod:`repro.analyze` finding a wildcard recv group with more than
  one feasible sender;
- every run passes the :mod:`repro.check.invariants` layer (time /
  message / metrics conservation), and serve cases additionally pass the
  serve-loop and cache conservation checks plus SLO-report replay
  equality;
- *fleet* cases run a sharded multi-worker fleet (random worker count,
  replication factor, Zipf skew and optional mid-run worker crash
  windows) twice: the :class:`~repro.fleet.report.FleetReport` must be
  byte-identical across the two runs and the full
  :func:`~repro.check.invariants.check_fleet` conservation catalog must
  hold — crashes re-route work, they never lose or duplicate a request;
- *chaos* cases (enumerated by :func:`chaos_cases`, never drawn) solve
  resiliently under one :func:`~repro.comm.faults.plan_for` cell: a
  correct answer or one of :data:`TYPED_ERRORS`, never a silent wrong
  answer; the cell's outcome lands on the :class:`CaseResult`.

Failures come back as a :class:`CaseResult` with human-readable mismatch
strings; :mod:`repro.check.reduce` shrinks them and writes corpus repro
files.  Entry point: ``repro fuzz --cases N --seed S``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import zlib
from dataclasses import asdict, dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.analyze import solver_schedule, verify_schedule
from repro.comm.costmodel import MACHINES
from repro.comm.faults import CommFaultError, FaultPlan, plan_for
from repro.comm.simulator import AmbiguousRecvError, DeadlockError
from repro.core.backends import BACKENDS
from repro.core.solver import Resilience, ResilienceExhausted, SpTRSVSolver
from repro.grids.grid3d import Grid3D
from repro.matrices import (
    block_tridiagonal,
    chemistry_like,
    elasticity3d,
    kkt3d,
    make_rhs,
    poisson2d,
    poisson3d,
)
from repro.numfact import solve_residual
from repro.check.invariants import (
    InvariantViolation,
    check_serve,
    check_solve,
)

CASE_VERSION = 1

#: Relative residual bound for differential solution checks.  The solvers
#: are exact triangular sweeps through one LU factorization; anything
#: above this is a wrong answer, not roundoff.
RESIDUAL_TOL = 1e-8

#: Matrix generators the fuzzer draws from, with the sizes that keep a
#: case under ~a second: name -> (factory(size) -> csr_matrix, sizes).
GENERATORS = {
    "poisson2d": (lambda s: poisson2d(s, stencil=9, seed=1),
                  (8, 10, 12, 16)),
    "poisson2d5": (lambda s: poisson2d(s, stencil=5, seed=2), (10, 14)),
    "poisson3d": (lambda s: poisson3d(s, seed=3), (3, 4, 5)),
    "kkt3d": (lambda s: kkt3d(s, seed=4), (3, 4)),
    "elasticity3d": (lambda s: elasticity3d(s, dof=2, seed=5), (3, 4)),
    "chemistry": (lambda s: chemistry_like(s, seed=6), (48, 72)),
    "blocktri": (lambda s: block_tridiagonal(s, block=8, seed=7), (4, 8)),
}

#: Errors a chaos case may legitimately end in: a diagnosable, typed
#: failure.  Anything else escaping a resilient solve is a breach.
TYPED_ERRORS = (CommFaultError, DeadlockError, ResilienceExhausted)

#: Fault kinds :func:`chaos_cases` sweeps by default.
CHAOS_KINDS = ("drop", "duplicate", "delay", "reorder", "corrupt", "crash")

#: Suite matrices serve cases draw their workload mix from (tiny scale).
SERVE_MATRICES = ("s2D9pt2048", "nlpkkt80")

#: Suite matrices fleet cases shard over (tiny scale).
FLEET_MATRICES = ("s2D9pt2048", "nlpkkt80", "ldoor")


@dataclass(frozen=True)
class FuzzCase:
    """One replayable configuration draw (JSON round-trippable)."""

    index: int
    seed: int
    kind: str = "solve"  # "solve" | "serve" | "fleet" | "scenario" | "chaos"
    # -- solve cases --------------------------------------------------------
    generator: str = "poisson2d"
    size: int = 10
    px: int = 1
    py: int = 1
    pz: int = 1
    ordering: str = "nd"
    symbolic_mode: str = "detect"
    max_supernode: int = 16
    device: str = "cpu"
    machine: str = "cori-haswell"
    nrhs: int = 1
    strict_match: bool = False
    replay: bool = False           # also run the compiled replay fast path
    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    fault_seed: int = 0
    # -- serve cases --------------------------------------------------------
    matrices: tuple = ()
    n_requests: int = 0
    rate: float = 2000.0
    deadline: float = 0.1
    max_batch: int = 4
    max_wait: float = 1e-3
    queue_bound: int = 256
    # -- fleet cases --------------------------------------------------------
    workers: int = 0               # fleet size (> 0 only for fleet cases)
    replication: int = 1           # ring successors per fingerprint
    zipf_s: float = 1.0            # Zipf skew of the matrix mix
    crash: tuple = ()              # ((worker, t_crash, t_recover), ...)
    # -- scenario cases -----------------------------------------------------
    scenario: str = ""             # catalog name; run at this case's seed
    # -- chaos cases (plus the solve fields; fault_seed is the cell seed) ---
    algorithm: str = ""
    fault_kind: str = ""
    fault_rate: float = 0.0

    @property
    def faulted(self) -> bool:
        return self.drop > 0 or self.duplicate > 0 or self.delay > 0

    def fault_plan(self) -> FaultPlan | None:
        if not self.faulted:
            return None
        return FaultPlan.uniform(seed=self.fault_seed, drop=self.drop,
                                 duplicate=self.duplicate, delay=self.delay)

    def describe(self) -> str:
        if self.kind == "chaos":
            return (f"chaos[{self.index}] {self.algorithm} {self.fault_kind}"
                    f"@{self.fault_rate:g} seed={self.seed} {self.generator}"
                    f"({self.size}) grid={self.px}x{self.py}x{self.pz}")
        if self.kind == "scenario":
            return (f"scenario[{self.index}] {self.scenario} "
                    f"seed={self.seed}")
        if self.kind == "fleet":
            crash = ",".join(f"w{w}@{tc:g}:{tr:g}"
                             for (w, tc, tr) in self.crash) or "none"
            return (f"fleet[{self.index}] workers={self.workers} "
                    f"repl={self.replication} zipf={self.zipf_s:g} "
                    f"mix={','.join(self.matrices)} n={self.n_requests} "
                    f"rate={self.rate:g} deadline={self.deadline:g} "
                    f"batch={self.max_batch} bound={self.queue_bound} "
                    f"crash={crash} grid={self.px}x{self.py}x{self.pz}")
        if self.kind == "serve":
            return (f"serve[{self.index}] mix={','.join(self.matrices)} "
                    f"n={self.n_requests} rate={self.rate:g} "
                    f"deadline={self.deadline:g} batch={self.max_batch} "
                    f"wait={self.max_wait:g} bound={self.queue_bound} "
                    f"grid={self.px}x{self.py}x{self.pz}")
        extra = (f" faults(drop={self.drop:g},dup={self.duplicate:g},"
                 f"delay={self.delay:g})" if self.faulted else "")
        if self.strict_match:
            extra += " strict"
        if self.replay:
            extra += " replay"
        return (f"solve[{self.index}] {self.generator}({self.size}) "
                f"grid={self.px}x{self.py}x{self.pz} ord={self.ordering} "
                f"sym={self.symbolic_mode} sup={self.max_supernode} "
                f"dev={self.device} nrhs={self.nrhs}{extra}")

    # -- JSON round trip (corpus repro files) -------------------------------

    def to_json(self) -> str:
        doc = {"version": CASE_VERSION, **asdict(self)}
        doc["matrices"] = list(self.matrices)
        doc["crash"] = [list(w) for w in self.crash]
        return json.dumps(doc, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FuzzCase":
        doc = json.loads(text)
        if doc.pop("version", None) != CASE_VERSION:
            raise ValueError("unsupported fuzz-case version")
        doc["matrices"] = tuple(doc.get("matrices", ()))
        doc["crash"] = tuple(tuple(w) for w in doc.get("crash", ()))
        return cls(**doc)

    def digest(self) -> str:
        """Short content hash, used for corpus file names."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:12]


@dataclass
class CaseResult:
    """What one case execution observed (plus a chaos cell's outcome)."""

    case: FuzzCase
    checks: int = 0
    mismatches: list = field(default_factory=list)
    # "exact" | "recovered" | "degraded" | "typed-error" | "silent-wrong"
    status: str | None = None
    tier: str | None = None
    error: str | None = None        # type name of a typed error
    residual: float | None = None
    virtual_time: float = 0.0
    fault_events: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        head = f"{self.case.describe()} — {self.checks} checks"
        if self.status is not None:
            head += f", {self.status}"
        if self.ok:
            return head + ", ok"
        return head + "".join(f"\n    FAIL: {m}" for m in self.mismatches)


@dataclass
class FuzzReport:
    """Aggregate over one fuzzing session."""

    cases: int = 0
    checks: int = 0
    failures: list = field(default_factory=list)   # failing CaseResults

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [f"fuzz: {self.cases} cases, {self.checks} checks, "
                 f"{len(self.failures)} failing"]
        lines.extend("  " + f.summary() for f in self.failures)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Drawing cases.
# ---------------------------------------------------------------------------


def draw_case(rng: np.random.Generator, index: int) -> FuzzCase:
    """Draw one case; consumes a fixed draw pattern so streams replay."""
    seed = int(rng.integers(0, 2**31 - 1))
    r = rng.random()
    if r < 0.14:
        return _draw_serve(rng, index, seed)
    if r < 0.26:
        return _draw_fleet(rng, index, seed)
    if r < 0.36:
        return _draw_scenario(rng, index, seed)
    gen = str(rng.choice(sorted(GENERATORS)))
    size = int(rng.choice(GENERATORS[gen][1]))
    pz = int(rng.choice((1, 2, 4)))
    px = int(rng.choice((1, 2)))
    py = int(rng.choice((1, 2)))
    device = "gpu" if rng.random() < 0.15 else "cpu"
    ordering = "mmd" if pz == 1 and rng.random() < 0.25 else "nd"
    symbolic = str(rng.choice(("detect", "fixed")))
    sup = int(rng.choice((4, 8, 16)))
    nrhs = int(rng.choice((1, 2, 3, 4)))
    drop = dup = delay = 0.0
    fault_seed = int(rng.integers(0, 2**31 - 1))
    if device == "cpu" and rng.random() < 0.25:
        drop = float(rng.choice((0.02, 0.05)))
        dup = float(rng.choice((0.0, 0.02)))
        delay = float(rng.choice((0.0, 0.05)))
    machine = "cori-haswell"
    strict = bool(rng.random() < 0.25)
    replay = bool(rng.random() < 0.75) and device == "cpu"
    if device == "gpu":
        py = 1                      # multi-GPU grids require Py == 1
        machine = "perlmutter-gpu"
        drop = dup = delay = 0.0    # faults are CPU-runtime only
    return FuzzCase(index=index, seed=seed, kind="solve", generator=gen,
                    size=size, px=px, py=py, pz=pz, ordering=ordering,
                    symbolic_mode=symbolic, max_supernode=sup, device=device,
                    machine=machine, nrhs=nrhs, strict_match=strict,
                    replay=replay, drop=drop, duplicate=dup, delay=delay,
                    fault_seed=fault_seed)


def _draw_scenario(rng: np.random.Generator, index: int,
                   seed: int) -> FuzzCase:
    """An adversarial-scenario case: a catalog entry at a fresh seed.

    Random seeds stress the *hard* tier of the degradation contract
    (typed sheds, zero corrupted answers, no untyped escape) plus
    replay determinism; soft SLO bounds stay calibrated to the declared
    catalog seed and are not enforced here.
    """
    from repro.scenarios import scenario_names

    name = str(rng.choice(scenario_names()))
    return FuzzCase(index=index, seed=seed, kind="scenario", scenario=name)


def _draw_fleet(rng: np.random.Generator, index: int, seed: int) -> FuzzCase:
    """A sharded-fleet case: random topology, skew and crash windows."""
    k = int(rng.integers(1, len(FLEET_MATRICES) + 1))
    mix = tuple(sorted(rng.choice(FLEET_MATRICES, size=k, replace=False)))
    workers = int(rng.choice((2, 3, 4)))
    fault_seed = int(rng.integers(0, 2**31 - 1))
    crash: tuple = ()
    if rng.random() < 0.5:
        w = int(rng.integers(0, workers))
        tc = float(rng.choice((0.0005, 0.001, 0.002)))
        dur = float(rng.choice((0.002, 0.004)))
        crash = ((w, tc, tc + dur),)
    return FuzzCase(
        index=index, seed=seed, kind="fleet", matrices=mix,
        px=1, py=1, pz=int(rng.choice((1, 2))),
        n_requests=int(rng.integers(8, 28)),
        rate=float(rng.choice((2000.0, 8000.0, 1e6))),
        # 0.0 is the zero-slack draw: every absolute deadline equals its
        # arrival (jitter multiplies the relative budget), stressing the
        # causal-shed boundary — especially across crash re-routes.
        deadline=float(rng.choice((0.0, 0.01, 0.1))),
        max_batch=int(rng.choice((2, 4, 8))),
        max_wait=float(rng.choice((1e-4, 1e-3))),
        queue_bound=int(rng.choice((8, 256))),
        fault_seed=fault_seed,
        workers=workers,
        replication=int(rng.choice((1, 2))),
        zipf_s=float(rng.choice((0.0, 1.0))),
        crash=crash)


def _draw_serve(rng: np.random.Generator, index: int, seed: int) -> FuzzCase:
    k = int(rng.integers(1, len(SERVE_MATRICES) + 1))
    mix = tuple(sorted(rng.choice(SERVE_MATRICES, size=k, replace=False)))
    return FuzzCase(
        index=index, seed=seed, kind="serve", matrices=mix,
        px=1, py=1, pz=int(rng.choice((1, 2))),
        n_requests=int(rng.integers(6, 20)),
        rate=float(rng.choice((500.0, 2000.0, 8000.0, 30000.0))),
        # 0.0 draws zero-slack deadlines (absolute deadline == arrival):
        # the scheduler's expiry trigger must clamp to the arrival, never
        # wake — or shed — before the request exists.
        deadline=float(rng.choice((0.0, 0.002, 0.01, 0.1))),
        max_batch=int(rng.choice((1, 2, 4, 8))),
        max_wait=float(rng.choice((1e-4, 1e-3))),
        queue_bound=int(rng.choice((3, 8, 256))))


def chaos_cases(algorithms=("new3d", "baseline3d", "2d"), kinds=CHAOS_KINDS,
                rates=(0.0, 0.02, 0.05, 0.10), seeds=(0,)) -> list[FuzzCase]:
    """The chaos sweep: one case per (algorithm, kind, rate, seed) cell,
    on ``poisson2d`` size 12: 2x1x2 where the algorithm runs on it, else
    2x2x1.  The cell seed uses crc32, not ``hash()``: the same cell gets
    the same plan in every process, whatever ``PYTHONHASHSEED``."""
    cases = []
    for alg, kind, rate, seed in itertools.product(algorithms, kinds, rates,
                                                   seeds):
        py, pz = (1, 2) if BACKENDS[alg].grid_ok(Grid3D(2, 1, 2)) else (2, 1)
        cases.append(FuzzCase(
            index=len(cases), seed=seed, kind="chaos", size=12,
            max_supernode=8, px=2, py=py, pz=pz, algorithm=alg,
            fault_kind=kind, fault_rate=rate, fault_seed=seed * 7919
            + zlib.crc32(f"{alg}/{kind}".encode()) % 1000))
    return cases


# ---------------------------------------------------------------------------
# Running cases.
# ---------------------------------------------------------------------------


def run_case(case: FuzzCase) -> CaseResult:
    """Execute one case over every applicable path; never raises."""
    res = CaseResult(case)
    try:
        if case.kind == "serve":
            _run_serve_case(case, res)
        elif case.kind == "fleet":
            _run_fleet_case(case, res)
        elif case.kind == "scenario":
            _run_scenario_case(case, res)
        elif case.kind == "solve":
            _run_solve_case(case, res)
        elif case.kind == "chaos":
            _run_chaos_case(case, res)
        else:
            res.mismatches.append(f"unknown case kind {case.kind!r}")
    except InvariantViolation as e:
        res.mismatches.append(f"invariant violation: {e}")
    except Exception as e:  # a crash is a finding, not a fuzzer abort
        res.mismatches.append(f"crashed: {type(e).__name__}: {e}")
    return res


def _residual(A, x, b) -> float:
    r = A @ x - b
    scale = spla.norm(A, np.inf) * np.abs(x).max() + np.abs(b).max()
    return float(np.abs(r).max() / scale) if scale > 0 else 0.0


def _check(res: CaseResult, cond: bool, msg: str) -> None:
    res.checks += 1
    if not cond:
        res.mismatches.append(msg)


def _solver(case: FuzzCase) -> SpTRSVSolver:
    factory, _ = GENERATORS[case.generator]
    return SpTRSVSolver(sp.csr_matrix(factory(case.size)), case.px, case.py,
                        case.pz, machine=MACHINES[case.machine],
                        max_supernode=case.max_supernode,
                        symbolic_mode=case.symbolic_mode,
                        ordering=case.ordering)


def _run_solve_case(case: FuzzCase, res: CaseResult) -> None:
    solver = _solver(case)
    A, machine = solver.A, solver.machine
    b = make_rhs(A.shape[0], case.nrhs, kind="random", seed=case.seed)

    # Reference tier vs an independent scipy solve of the original system.
    x_ref = solver.reference_solve(b)
    _check(res, _residual(A, x_ref, b) <= RESIDUAL_TOL,
           f"reference solve residual {_residual(A, x_ref, b):.3e} > "
           f"{RESIDUAL_TOL:g}")
    x_scipy = spla.spsolve(sp.csc_matrix(A), b)
    if x_scipy.ndim == 1 and x_ref.ndim == 2:
        x_scipy = x_scipy[:, None]
    _check(res, bool(np.allclose(x_ref, x_scipy, rtol=1e-6, atol=1e-9)),
           "reference solve disagrees with scipy.sparse.linalg.spsolve")

    xs = {bk.name: _differential_solve(case, res, solver, A, b, bk, "cpu",
                                       machine)
          for bk in BACKENDS.values() if bk.grid_ok(solver.grid)}
    for bk in BACKENDS.values():
        # Declared bit-identity is a promise about solution bits, not just
        # a small residual.
        if bk.name in xs and bk.bit_identical_to in xs:
            _check(res, bool(np.array_equal(xs[bk.name],
                                            xs[bk.bit_identical_to])),
                   f"{bk.name} solution bits differ from "
                   f"{bk.bit_identical_to} (declared bit-identical)")
    if case.device == "gpu":
        x_gpu = _differential_solve(case, res, solver, A, b,
                                    BACKENDS["new3d"], "gpu", machine)
        _check(res, bool(np.array_equal(x_gpu, xs["new3d"])),
               "new3d/gpu solution bits differ from new3d/cpu (declared "
               "bit-identical)")
    if case.faulted:
        _faulted_solve(case, res, solver, A, b)


def _differential_solve(case, res, solver, A, b, backend, device,
                        machine) -> np.ndarray:
    """All differential checks of one backend; returns its solution."""
    algorithm = backend.name
    what = f"{algorithm}/{device}"
    out = solver.solve(b, algorithm=algorithm, device=device,
                       profile=True, trace=(device == "cpu"))
    res.checks += check_solve(out)
    _check(res, _residual(A, out.x, b) <= RESIDUAL_TOL,
           f"{what}: residual {_residual(A, out.x, b):.3e} > "
           f"{RESIDUAL_TOL:g}")

    # Replay determinism — and profiling/tracing must be pure observers:
    # the second run records nothing yet must land on the same clocks.
    out2 = solver.solve(b, algorithm=algorithm, device=device)
    _check(res, bool(np.array_equal(out.report.sim.clocks,
                                    out2.report.sim.clocks)),
           f"{what}: virtual clocks differ across replays (or profiling "
           f"perturbed them)")
    _check(res, bool(np.array_equal(out.x, out2.x)),
           f"{what}: solution bits differ across replays")

    # Headline sync counts, counted mechanically from the sync labels.
    nsyncs = out.report.metrics.nsyncs
    expect = backend.syncs(case.pz)
    _check(res, nsyncs == expect,
           f"{what}: {nsyncs} inter-grid sync points, expected {expect} "
           f"for pz={case.pz}")

    # Strict wildcard matching vs the static analyzer: a strict run either
    # completes — and set-determinism must make it bit-identical to the
    # normal run — or raises AmbiguousRecvError, in which case the static
    # schedule must contain a wildcard recv group with >1 feasible sender
    # (otherwise one of the two detectors is lying).
    if case.strict_match and device == "cpu":
        try:
            sout = solver.solve(b, algorithm=algorithm, strict_match=True)
        except AmbiguousRecvError:
            rep = verify_schedule(solver_schedule(solver,
                                                  algorithm=algorithm,
                                                  nrhs=case.nrhs))
            _check(res, any(g.nfeasible > 1 for g in rep.wildcard_groups)
                   or not rep.match_deterministic,
                   f"{what}: strict_match raised AmbiguousRecvError but "
                   f"the static analyzer sees no ambiguous wildcard group")
        else:
            _check(res, bool(np.array_equal(out2.report.sim.clocks,
                                            sout.report.sim.clocks))
                   and bool(np.array_equal(out2.x, sout.x)),
                   f"{what}: strict_match solve completed but is not "
                   f"bit-identical to the normal solve")

    # The compiled replay fast path (repro.replay): the recording solve
    # AND the compiled re-execution must both be bit-identical to the
    # plain simulated solve — solution bits, virtual clocks, per-label
    # times, phase marks and message accounting alike.
    if case.replay and device == "cpu" and backend.replayable:
        rec = solver.solve(b, algorithm=algorithm, replay=True)
        hot = solver.solve(b, algorithm=algorithm, replay=True)
        for tag, rout in (("recording", rec), ("compiled", hot)):
            _check(res, bool(np.array_equal(out2.x, rout.x)),
                   f"{what}: replay {tag} solution bits differ from the "
                   f"simulated solve")
            _check(res, bool(np.array_equal(out2.report.sim.clocks,
                                            rout.report.sim.clocks)),
                   f"{what}: replay {tag} virtual clocks differ from the "
                   f"simulated solve")
            _check(res, out2.report.sim.times == rout.report.sim.times
                   and out2.report.sim.marks == rout.report.sim.marks
                   and out2.report.sim.sent_msgs == rout.report.sim.sent_msgs
                   and out2.report.sim.sent_bytes
                   == rout.report.sim.sent_bytes,
                   f"{what}: replay {tag} per-label accounting differs from "
                   f"the simulated solve")

    # The serving tier's batching contract: every column of a multi-RHS
    # solve is bit-identical to solving that column alone.
    if case.nrhs > 1:
        X = out.x
        for j in range(case.nrhs):
            xj = solver.solve(b[:, j], algorithm=algorithm,
                              device=device).x
            _check(res, bool(np.array_equal(X[:, j], xj)),
                   f"{what}: column {j} of nrhs={case.nrhs} differs from "
                   f"its single-RHS solve (batching not bit-identical)")
    return out2.x


def _faulted_solve(case, res, solver, A, b) -> None:
    resil = Resilience(reliable=True)
    plan = case.fault_plan()
    out = solver.solve(b, algorithm="new3d", faults=plan, resilience=resil)
    res.checks += check_solve(out, faulted=True)
    _check(res, out.resilience is not None
           and out.resilience.residual <= resil.residual_tol,
           f"faulted: resilient solve returned unverified answer")
    _check(res, _residual(A, out.x, b) <= RESIDUAL_TOL,
           f"faulted: residual {_residual(A, out.x, b):.3e} > "
           f"{RESIDUAL_TOL:g} despite resilience verification")
    out2 = solver.solve(b, algorithm="new3d", faults=case.fault_plan(),
                        resilience=resil)
    _check(res, out2.resilience is not None
           and out.resilience.tier == out2.resilience.tier
           and out.resilience.total_time == out2.resilience.total_time,
           f"faulted: replay reached tier {out2.resilience.tier!r} in "
           f"{out2.resilience.total_time!r}s vs {out.resilience.tier!r} in "
           f"{out.resilience.total_time!r}s — fault schedule not "
           f"deterministic")
    _check(res, bool(np.array_equal(out.x, out2.x)),
           "faulted: solution bits differ across fault-plan replays")


def _run_chaos_case(case: FuzzCase, res: CaseResult) -> None:
    """One chaos cell: a lossless solve proves the fault-free path and
    calibrates the plan's time scale (crash instants, delay spikes); the
    resilient solve under the cell's plan must then be correct or raise a
    typed error, never return a silent wrong answer."""
    solver = _solver(case)
    A, alg, resil = solver.A, case.algorithm, Resilience()
    b = make_rhs(solver.n, case.nrhs)
    base = solver.solve(b, algorithm=alg)
    if solve_residual(A, base.x, b) > resil.residual_tol:
        raise ValueError(f"lossless {alg} solve already fails")
    plan = plan_for(case.fault_kind, case.fault_rate, case.fault_seed,
                    solver.grid.nranks, base.report.total_time)
    try:
        out = solver.solve(b, algorithm=alg, faults=plan, resilience=resil)
    except TYPED_ERRORS as e:
        res.status, res.error = "typed-error", type(e).__name__
        res.virtual_time = float(getattr(e, "sim_time", 0.0))
    else:
        rr = out.resilience
        res.residual = solve_residual(A, out.x, b)
        res.status = ("silent-wrong" if res.residual > resil.residual_tol
                      else "degraded" if rr.tier != alg
                      else "exact" if len(rr.attempts) == 1 else "recovered")
        res.tier, res.virtual_time = rr.tier, rr.total_time
        # Sum fault events over every attempt: the winning tier is often
        # the fault-free reference solve, which alone would report zero.
        res.fault_events = sum(a.fault_events for a in rr.attempts)
    _check(res, res.status != "silent-wrong",
           f"chaos: {alg} under {case.fault_kind}@{case.fault_rate:g} "
           f"returned residual {res.residual!r} > {resil.residual_tol:g} "
           f"without raising (silent wrong answer)")


def _serve_inputs(case: FuzzCase, mix):
    """The workload, grid and batching policy of a serve or fleet case."""
    from repro.serve import (
        BatchPolicy,
        ServiceConfig,
        WorkloadSpec,
        generate_workload,
    )

    wl = generate_workload(WorkloadSpec(
        seed=case.seed, rate=case.rate, n_requests=case.n_requests, mix=mix,
        deadline=case.deadline, priorities=((0, 3.0), (5, 1.0))))
    return (wl, ServiceConfig(px=case.px, py=case.py, pz=case.pz),
            BatchPolicy(max_batch=case.max_batch, max_wait=case.max_wait,
                        queue_bound=case.queue_bound))


def _double_run(res: CaseResult, wl, make, check, report_json, what: str):
    """Two fresh ``make()`` services run ``wl``: ``check`` the first run,
    byte-compare ``report_json`` of both; returns ``(svc1, r1, r2)``."""
    svc = make()
    r1 = svc.run(wl)
    res.checks += check(wl, r1, service=svc)
    r2 = make().run(wl)
    _check(res, report_json(r1) == report_json(r2),
           f"{what} not byte-identical across replays of the same workload")
    return svc, r1, r2


def _run_serve_case(case: FuzzCase, res: CaseResult) -> None:
    from repro.serve import SolveService

    wl, cfg, policy = _serve_inputs(
        case, tuple((m, "tiny", 1.0) for m in case.matrices))
    svc, r1, r2 = _double_run(
        res, wl, lambda: SolveService(cfg, policy, invariants=True),
        check_serve, lambda r: r.slo.to_json(), "serve: SLO report")
    _check(res, [b.request_ids for b in r1.batches]
           == [b.request_ids for b in r2.batches],
           "serve: batch composition differs across replays")

    # Spot-check the batching contract end to end: a served answer is the
    # same bits as a cold, unbatched solve of that request alone.
    done = sorted(r1.solutions)[:3]
    cold: dict = {}
    by_id = {r.id: r for r in wl.requests}
    for i in done:
        req = by_id[i]
        key = (req.matrix, req.scale)
        if key not in cold:
            cold[key] = svc._build_solver(req.matrix, req.scale)
        x = cold[key].solve(req.rhs(cold[key].n)).x
        _check(res, bool(np.array_equal(r1.solutions[i], x.ravel())),
               f"serve: request {i} answer differs from its cold "
               f"single-RHS solve")


def _run_fleet_case(case: FuzzCase, res: CaseResult) -> None:
    """Double-run a sharded fleet: report bit-equality + conservation.

    The case's crash windows become a ``repro.comm.faults`` schedule
    (worker ``w`` down at ``t_crash``, back — cold — at ``t_recover``),
    so re-routing, rollback and recovery are all on the fuzzed path.
    """
    from repro.check.invariants import check_fleet
    from repro.comm.faults import FaultSchedule
    from repro.fleet import FleetConfig, FleetService
    from repro.serve import zipf_mix

    wl, cfg, policy = _serve_inputs(
        case, zipf_mix(case.matrices, "tiny", case.zipf_s))
    sched = None
    if case.crash:
        sched = FaultSchedule(tuple(
            (tc, tr, FaultPlan.uniform(seed=case.fault_seed, crash={w: tc}))
            for (w, tc, tr) in case.crash))

    _, r1, _ = _double_run(
        res, wl, lambda: FleetService(
            FleetConfig(workers=case.workers, replication=case.replication),
            cfg, policy, crash_schedule=sched),
        check_fleet, lambda r: r.report.to_json(), "fleet: FleetReport")
    _check(res, r1.slo.n_completed + r1.slo.n_shed == len(wl),
           f"fleet: completed {r1.slo.n_completed} + shed {r1.slo.n_shed} "
           f"!= {len(wl)} requests (lost or duplicated work)")


def _run_scenario_case(case: FuzzCase, res: CaseResult) -> None:
    """Replay a catalog scenario at this case's (random) seed.

    Checks the hard degradation tier — soft SLO bounds are seed-specific
    calibrations, hard guarantees are not allowed to depend on the seed —
    and that the ScenarioReport is bit-identical across two runs.
    """
    from repro.scenarios import get_scenario, run_scenario

    sc = get_scenario(case.scenario)
    r1 = run_scenario(sc, seed=case.seed)
    res.checks += len(r1.checks)
    bad = [f"{c['check']}: {c['detail']}"
           for c in r1.checks if c["hard"] and not c["passed"]]
    _check(res, r1.hard_ok,
           f"scenario {case.scenario} @ seed {case.seed}: hard degradation "
           f"guarantee(s) violated — " + ("; ".join(bad) or r1.error))
    r2 = run_scenario(sc, seed=case.seed)
    _check(res, r1.to_json() == r2.to_json(),
           f"scenario {case.scenario} @ seed {case.seed}: ScenarioReport "
           f"not bit-identical across replays")


# ---------------------------------------------------------------------------
# The driver.
# ---------------------------------------------------------------------------


def fuzz(cases: int = 50, seed: int = 0, progress=None) -> FuzzReport:
    """Draw and run ``cases`` cases; deterministic in ``seed``.

    ``progress`` (optional) is called with each :class:`CaseResult` as it
    finishes — the CLI uses it for live output.
    """
    rng = np.random.default_rng([seed, 0xF022])
    report = FuzzReport()
    for i in range(cases):
        case = draw_case(rng, i)
        result = run_case(case)
        report.cases += 1
        report.checks += result.checks
        if not result.ok:
            report.failures.append(result)
        if progress is not None:
            progress(result)
    return report
