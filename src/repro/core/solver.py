"""High-level API: factor a sparse matrix once, solve with any algorithm.

:class:`SpTRSVSolver` runs the full preprocessing pipeline of the paper
(nested dissection → symbolic factorization → supernodal LU → 3D layout)
and then executes the requested distributed SpTRSV on the simulated
machine, returning both the (verified-exact) solution and a
:class:`PerfReport` with the simulated timing breakdown the paper's figures
are built from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.comm.costmodel import CORI_HASWELL, Machine
from repro.comm.faults import FaultPlan, ReliableTransport
from repro.comm.simulator import Simulator, SimResult
from repro.core.backends import AUTO, DEVICES, FAMILIES, Resolved, resolve
from repro.grids.grid3d import Grid3D
from repro.matrices.validate import validate_matrix, validate_rhs
from repro.numfact.lu import lu_factorize
from repro.obs.metrics import MetricsRegistry
from repro.ordering.layout import build_layout_tree
from repro.ordering.nested_dissection import nested_dissection
from repro.symbolic.fill import symbolic_factor
from repro.util import as_2d_rhs, ilog2, inverse_permutation


@dataclass
class PerfReport:
    """Timing view over a simulation run.

    Phases: ``"l"`` (L-solve), ``"z"`` (inter-grid), ``"u"`` (U-solve).
    Categories: ``"fp"`` (GEMV/GEMM + diagonal solves), ``"xy"`` (intra-grid
    communication incl. waits), ``"z"`` (inter-grid communication).

    ``metrics`` is populated by ``solve(..., profile=True)`` with the run's
    :class:`~repro.obs.metrics.MetricsRegistry` (per-rank/per-phase
    counters, sync points, critical path; see ``docs/OBSERVABILITY.md``);
    ``None`` otherwise.
    """

    sim: SimResult
    algorithm: str
    grid: Grid3D
    nrhs: int
    metrics: MetricsRegistry | None = None

    @property
    def total_time(self) -> float:
        """Simulated wall-clock of the whole solve (max over ranks)."""
        return self.sim.makespan

    def breakdown(self) -> dict[str, float]:
        """Mean per-rank seconds by category, as in the paper's Figs. 5-6."""
        return {
            "fp": float(self.sim.time_by(category="fp").mean()),
            "xy_comm": float(self.sim.time_by(category="xy").mean()),
            "z_comm": float(self.sim.time_by(category="z").mean()),
        }

    def per_rank(self, phase: str | None = None,
                 category: str | None = None) -> np.ndarray:
        """Per-rank seconds matching the filters (load-balance figures)."""
        return self.sim.time_by(phase=phase, category=category)

    def phase_time(self, phase: str) -> float:
        """Mean per-rank seconds spent in a phase."""
        return float(self.sim.time_by(phase=phase).mean())

    def message_count(self, category: str | None = None) -> int:
        return self.sim.msgs_by(category=category)

    def message_bytes(self, category: str | None = None) -> float:
        return self.sim.bytes_by(category=category)


@dataclass(frozen=True)
class Resilience:
    """Knobs for fault-tolerant solving (``SpTRSVSolver.solve(resilience=...)``).

    The resilient solve verifies the residual of every returned solution
    and, on any failure (typed communication error, kernel exception, or a
    residual above ``residual_tol``), retries the same algorithm up to
    ``retries_per_tier`` more times, then degrades through the fallback
    tiers the backend table declares for it (``Backend.fallback``, e.g.
    ``new3d`` → ``baseline3d``) to the sequential ``reference`` until a
    verified answer is produced.  The returned outcome's ``.resilience``
    report names the tier that answered and the virtual-time cost of
    recovery.

    - ``reliable``: run every message under the ack/retransmit envelope
      (``True`` or a :class:`~repro.comm.faults.ReliableTransport`).
    - ``checksums``: verify payload checksums on delivery.
    - ``watchdog_events``: scheduler stall detector threshold (``None``
      disables it).
    - ``retries_per_tier``: extra attempts per algorithm tier.
    - ``residual_tol``: acceptance bound on the relative solve residual.
    """

    reliable: bool | ReliableTransport = False
    checksums: bool = True
    watchdog_events: int | None = 5_000_000
    retries_per_tier: int = 1
    residual_tol: float = 1e-10

    def sim_kwargs(self) -> dict:
        return {"reliable": self.reliable, "checksums": self.checksums,
                "watchdog_events": self.watchdog_events}


@dataclass
class AttemptRecord:
    """One solve attempt inside a resilient solve."""

    algorithm: str
    status: str                 # "ok" | "error" | "bad-residual"
    virtual_time: float         # simulated seconds burned by this attempt
    residual: float | None = None
    error: str | None = None    # exception type name for "error" attempts
    fault_events: int = 0


@dataclass
class ResilienceReport:
    """How a resilient solve reached its answer."""

    tier: str                   # algorithm that produced the answer
    attempts: list[AttemptRecord]
    recovery_time: float        # virtual seconds spent on failed attempts
    total_time: float           # recovery + successful attempt
    residual: float

    @property
    def degraded(self) -> bool:
        return self.tier != self.attempts[0].algorithm

    def summary(self) -> str:
        lines = [f"resilient solve answered by tier {self.tier!r} "
                 f"(residual {self.residual:.2e}); recovery cost "
                 f"{self.recovery_time:.3e}s of {self.total_time:.3e}s total"]
        for i, a in enumerate(self.attempts):
            what = a.error or a.status
            res = "" if a.residual is None else f", residual {a.residual:.2e}"
            lines.append(f"  attempt {i}: {a.algorithm} -> {what} "
                         f"({a.virtual_time:.3e}s, {a.fault_events} fault "
                         f"events{res})")
        return "\n".join(lines)


class ResilienceExhausted(RuntimeError):
    """Every tier of a resilient solve failed (including the reference)."""

    def __init__(self, attempts: list[AttemptRecord]):
        self.attempts = attempts
        detail = "; ".join(
            f"{a.algorithm}: {a.error or a.status}" for a in attempts)
        super().__init__(
            f"resilient solve exhausted all {len(attempts)} attempts "
            f"without a verified solution: {detail}")


@dataclass
class SolveOutcome:
    """A solution (original ordering/shape) plus its performance report."""

    x: np.ndarray
    report: PerfReport
    resilience: ResilienceReport | None = None


class SpTRSVSolver:
    """Factor ``A`` once; solve ``A x = b`` with any of the paper's solvers.

    Parameters
    ----------
    A : scipy sparse, structurally symmetric, LU-factorizable w/o pivoting
    px, py, pz : 3D process grid (``pz`` must be a power of two)
    machine : simulated machine preset (see ``repro.comm.MACHINES``)
    max_supernode : supernode size cap
    symbolic_mode : ``"detect"`` (exact supernodes) or ``"fixed"`` (chunked)
    leaf_size : nested-dissection leaf subdomain size (default: heuristic)
    ordering : ``"nd"`` (nested dissection; required for ``pz > 1``) or
        ``"mmd"`` (minimum degree; 2D layouts only)
    """

    def __init__(self, A: sp.spmatrix, px: int = 1, py: int = 1, pz: int = 1,
                 machine: Machine = CORI_HASWELL, max_supernode: int = 16,
                 symbolic_mode: str = "detect", leaf_size: int | None = None,
                 ordering: str = "nd"):
        validate_matrix(A)
        A = sp.csr_matrix(A)
        n = A.shape[0]
        self.A = A
        self.grid = Grid3D(px, py, pz)
        self.machine = machine
        depth = ilog2(pz)
        if leaf_size is None:
            leaf_size = max(8, n // max(4 * pz, 8))
        if ordering == "nd":
            self.tree = nested_dissection(A, leaf_size=leaf_size,
                                          min_depth=depth)
        elif ordering == "mmd":
            if pz != 1:
                raise ValueError(
                    "minimum-degree ordering has no separator tree; the 3D "
                    "layout (pz > 1) requires ordering='nd'")
            from repro.ordering.min_degree import min_degree_tree

            self.tree = min_degree_tree(A)
        else:
            raise ValueError(f"unknown ordering {ordering!r}")
        self.perm = self.tree.perm
        self.iperm = inverse_permutation(self.perm)
        self.A_perm = sp.csr_matrix(A[self.perm][:, self.perm])
        self.sym = symbolic_factor(self.A_perm, max_supernode=max_supernode,
                                   boundaries=self.tree.boundaries(),
                                   mode=symbolic_mode)
        self.lu = lu_factorize(self.A_perm, self.sym.partition)
        self.layout = build_layout_tree(self.tree, pz)
        self._setups: dict[tuple, object] = {}

    @classmethod
    def from_pipeline(cls, A: sp.spmatrix, tree, sym, lu, px: int = 1,
                      py: int = 1, pz: int = 1,
                      machine: Machine = CORI_HASWELL) -> "SpTRSVSolver":
        """Build a solver from a precomputed pipeline (ND tree, symbolic,
        LU).  Lets benchmarks factor a matrix once and sweep grid shapes;
        the separator tree must be binary-complete to depth ``log2(pz)``.
        """
        self = object.__new__(cls)
        self.A = sp.csr_matrix(A)
        self.grid = Grid3D(px, py, pz)
        self.machine = machine
        self.tree = tree
        self.perm = tree.perm
        self.iperm = inverse_permutation(tree.perm)
        self.A_perm = sp.csr_matrix(self.A[self.perm][:, self.perm])
        self.sym = sym
        self.lu = lu
        self.layout = build_layout_tree(tree, pz)
        self._setups = {}
        return self

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def storage_nbytes(self) -> int:
        """Resident bytes of the factored pipeline (matrix, permutations,
        LU blocks).  This is the unit :class:`repro.serve.FactorizationCache`
        accounts capacity in.
        """
        total = 0
        for M in (self.A, self.A_perm):
            total += M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
        total += self.perm.nbytes + self.iperm.nbytes
        lu = self.lu
        for arrs in (lu.diagL, lu.diagU, lu.diagLinv, lu.diagUinv):
            total += sum(a.nbytes for a in arrs)
        total += sum(b.nbytes for b in lu.Lblocks.values())
        total += sum(b.nbytes for b in lu.Ublocks.values())
        return int(total)

    def factor_time_estimate(self, machine: Machine | None = None) -> float:
        """Virtual seconds the preprocessing pipeline is charged on a
        factorization-cache miss (serving tier, ``repro.serve``).

        Crude but deterministic model: a right-looking supernodal LU
        touches every stored factor entry O(mean supernode width) times,
        so flops ≈ ``2 · nnz(LU) · (n / nsup)`` and traffic ≈ three sweeps
        over the factor storage, priced by the machine's CPU roofline.
        """
        machine = machine or self.machine
        nnz = float(self.lu.nnz_stored())
        w_bar = self.n / max(1, self.lu.nsup)
        return machine.cpu.op_time(2.0 * nnz * w_bar, 24.0 * nnz)

    # -- setup caches ---------------------------------------------------------

    def setup(self, impl: str, tree_kind: str | None = None):
        """The cached solve setup (plans, trees) of one implementation
        family — a :data:`repro.core.backends.FAMILIES` name — per tree
        kind."""
        key = (impl, tree_kind)
        if key not in self._setups:
            self._setups[key] = FAMILIES[impl].build(self.lu, self.layout,
                                                   self.grid, tree_kind)
        return self._setups[key]

    # -- solving --------------------------------------------------------------

    def solve(self, b: np.ndarray, algorithm: str = "new3d",
              tree_kind: str | None = None, machine: Machine | None = None,
              device: str = "cpu", baseline_level_sync: bool = True,
              allreduce_impl: str = "sparse",
              faults: FaultPlan | None = None,
              resilience: Resilience | None = None,
              profile: bool = False, trace: bool = False,
              strict_match: bool = False,
              replay: bool = False) -> SolveOutcome:
        """Solve ``A x = b``; ``b`` may be ``(n,)`` or ``(n, nrhs)``.

        ``algorithm`` names a row of the backend table
        (:data:`repro.core.backends.BACKENDS` — what each one runs, where
        it is valid, its sync count, fallbacks and capabilities are all
        declared there; default ``"new3d"``, the paper's proposed solver),
        or ``"auto"``: the cost-model planner of :mod:`repro.planner` picks
        among the CPU backends and the solve then proceeds bit-identically
        to naming that backend directly.

        ``device="gpu"`` runs the proposed algorithm with GPU 2D solves
        (Algorithms 4-5); requires a machine with a GPU model and, for
        multi-GPU grids, ``Py == 1``.

        ``faults`` injects a deterministic
        :class:`~repro.comm.faults.FaultPlan` into the simulated fabric;
        ``resilience`` additionally verifies residuals and degrades
        gracefully through algorithm tiers on any failure (see
        :class:`Resilience` and ``docs/FAULTS.md``).  Both default off, in
        which case the solve is bit-identical to the lossless runtime.

        ``profile=True`` attaches a
        :class:`~repro.obs.metrics.MetricsRegistry` to the returned
        ``report.metrics`` (per-rank/per-phase counters, inter-grid sync
        points, critical path); ``trace=True`` additionally records the
        per-op event list on ``report.sim.trace`` for Chrome-trace export.
        Both are purely observational — virtual clocks are bit-identical
        either way.  Under ``resilience``, the registry describes the
        distributed attempt that produced the answer (``None`` when the
        sequential reference tier answered).

        ``strict_match=True`` runs the CPU simulator in strict wildcard
        matching mode: any ANY-source receive that could match queued
        messages from two or more senders raises
        :class:`~repro.comm.simulator.AmbiguousRecvError` instead of
        picking one.  The static analyzer (``repro analyze``) proves the
        solver kernels' receive loops set-deterministic, so a strict solve
        that *does* complete is bit-identical to a normal one.

        ``replay=True`` takes the compile-once fast path
        (:mod:`repro.replay`): the first solve of a given
        (algorithm, machine, nrhs) shape runs the instrumented simulator
        and compiles a flat replay program; every later solve executes
        that program — bit-identical solutions, virtual clocks, time
        labels and marks, at a fraction of the cost (see
        ``docs/PERFORMANCE.md``).  CPU fault-free path only: faults,
        resilience, tracing, strict matching, the naive-allreduce
        ablation and GPU solves all stay on the simulator.
        """
        validate_rhs(self.n, b)
        b2, was1d = as_2d_rhs(b)
        nrhs = b2.shape[1]
        b_perm = b2[self.perm]
        machine = machine or self.machine

        if device not in DEVICES:
            raise ValueError(f"unknown device {device!r}; "
                             f"known: {', '.join(DEVICES)}")
        if algorithm == AUTO:
            if device != "cpu":
                raise ValueError(
                    "algorithm='auto' plans over the CPU backends only "
                    "(device='cpu'); name the GPU algorithm explicitly")
            from repro.planner import DEFAULT_PLANNER

            algorithm = DEFAULT_PLANNER.choose(self, nrhs=nrhs,
                                               machine=machine).algorithm
            # From here on the solve is indistinguishable from the caller
            # having passed the planned algorithm directly.
        run = resolve(algorithm, self.grid, tree_kind, allreduce_impl,
                      baseline_level_sync)

        if device != "cpu" and strict_match:
            raise ValueError(
                "strict_match is a CPU message-passing runtime mode "
                "(device='cpu')")
        if device != "cpu" and (faults is not None or resilience is not None):
            raise ValueError(
                "fault injection / resilience are modeled on the CPU "
                "message-passing runtime only (device='cpu')")
        if replay:
            if device != "cpu":
                raise ValueError(
                    "replay compiles the CPU message-passing runtime only "
                    "(device='cpu')")
            if faults is not None or resilience is not None:
                raise ValueError(
                    "replay is the fault-free fast path; faulted/resilient "
                    "solves run on the simulator")
            if trace or strict_match:
                raise ValueError(
                    "replay executes no per-message dispatch, so trace/"
                    "strict_match (per-op observation modes) require the "
                    "simulated path")
            from repro.replay import replay_solve

            return replay_solve(self, run, b_perm, nrhs, was1d, machine,
                                profile)

        metrics = MetricsRegistry() if profile else None
        if resilience is not None and strict_match:
            raise ValueError(
                "strict_match is a debugging mode; combining it with "
                "resilience would mask AmbiguousRecvError as a tier failure")
        if resilience is not None:
            return self._solve_resilient(run, b2, was1d, machine, faults,
                                         resilience, metrics=metrics,
                                         trace=trace)

        if device == "gpu":
            if not run.backend.gpu:
                raise ValueError(
                    f"GPU solves implement the proposed algorithm only; "
                    f"algorithm={run.name!r} has no GPU path")
            from repro.gpu.solver3d import solve_new3d_gpu

            setup = self.setup(run.impl, tree_kind or "binary")
            gres = solve_new3d_gpu(setup, machine, b_perm, nrhs,
                                   metrics=metrics)
            x_perm = run.backend.family.collect(setup, gres.results, self.n,
                                               nrhs)
            x = np.empty_like(x_perm)
            x[self.perm] = x_perm
            res, label = gres.sim, f"{run.name}-gpu"
        else:
            x, res = self._solve_cpu(
                run, b_perm, nrhs, machine, faults,
                {"metrics": metrics, "trace": trace,
                 "strict_match": strict_match})
            label = run.name
        report = PerfReport(sim=res, algorithm=label, grid=self.grid,
                            nrhs=nrhs, metrics=metrics)
        return SolveOutcome(x=x[:, 0] if was1d else x, report=report)

    def _solve_cpu(self, run: Resolved, b_perm: np.ndarray, nrhs: int,
                   machine: Machine, faults: FaultPlan | None = None,
                   sim_kwargs: dict | None = None
                   ) -> tuple[np.ndarray, SimResult]:
        """One distributed CPU solve; returns ``(x, sim_result)`` with ``x``
        already mapped back to the original ordering."""
        sim = Simulator(self.grid.nranks, machine, faults=faults,
                        **(sim_kwargs or {}))
        setup = self.setup(run.impl, run.tree_kind)
        res = sim.run(run.rank_fn(setup, b_perm, nrhs))
        x_perm = run.backend.family.collect(setup, res.results, self.n, nrhs)
        x = np.empty_like(x_perm)
        x[self.perm] = x_perm
        return x, res

    # -- graceful degradation -------------------------------------------------

    def _reference_report(self, machine: Machine, nrhs: int) -> PerfReport:
        """Cost-model view of the sequential fallback tier: one rank doing
        the full bandwidth-bound L+U sweep through the factors."""
        nnz = float(getattr(self.sym, "nnz_LU", self.A.nnz))
        t = machine.cpu.op_time(2.0 * nnz * nrhs,
                                8.0 * (nnz + 2.0 * self.n * nrhs))
        sim = SimResult(clocks=np.array([t]),
                        times=[{("reference", "fp"): t}],
                        sent_msgs=[{}], sent_bytes=[{}], marks=[{}],
                        results=[None])
        return PerfReport(sim=sim, algorithm="reference", grid=self.grid,
                          nrhs=nrhs)

    def _solve_resilient(self, run: Resolved, b2: np.ndarray, was1d: bool,
                         machine: Machine, faults: FaultPlan | None,
                         resilience: Resilience,
                         metrics: MetricsRegistry | None = None,
                         trace: bool = False) -> SolveOutcome:
        """Verified solve with retries and tier fallback (the recovery side
        of the fault model: detect via typed errors + residuals, recover via
        retry, degrade through the backend's declared fallback tiers to the
        sequential reference)."""
        from repro.numfact import solve_residual

        nrhs = b2.shape[1]
        b_perm = b2[self.perm]
        # The registry resets on every attempt's run, so after the loop it
        # describes the attempt that produced the answer.
        sim_kwargs = {**resilience.sim_kwargs(), "metrics": metrics,
                      "trace": trace}
        attempts: list[AttemptRecord] = []
        recovery = 0.0
        attempt_idx = 0

        for tier_run in (run, *run.fallback):
            tier = tier_run.name
            for retry in range(resilience.retries_per_tier + 1):
                # Attempt 0 runs the caller's plan verbatim; retries draw
                # independent (but seed-deterministic) fault schedules.
                plan = None
                if faults is not None:
                    plan = faults if attempt_idx == 0 else faults.fork(
                        attempt_idx)
                attempt_idx += 1
                try:
                    x, res = self._solve_cpu(tier_run, b_perm, nrhs, machine,
                                             plan, sim_kwargs)
                except Exception as e:  # typed comm errors + kernel fallout
                    vt = float(getattr(e, "sim_time", 0.0))
                    recovery += vt
                    attempts.append(AttemptRecord(
                        tier, "error", vt, error=type(e).__name__,
                        fault_events=len(getattr(e, "fault_events", []))))
                    continue
                residual = solve_residual(self.A, x, b2)
                nflt = len(res.fault_events or [])
                if residual <= resilience.residual_tol:
                    attempts.append(AttemptRecord(
                        tier, "ok", res.makespan, residual=residual,
                        fault_events=nflt))
                    report = PerfReport(sim=res, algorithm=tier,
                                        grid=self.grid, nrhs=nrhs,
                                        metrics=metrics)
                    rr = ResilienceReport(
                        tier=tier, attempts=attempts, recovery_time=recovery,
                        total_time=recovery + res.makespan,
                        residual=residual)
                    return SolveOutcome(x=x[:, 0] if was1d else x,
                                        report=report, resilience=rr)
                recovery += res.makespan
                attempts.append(AttemptRecord(
                    tier, "bad-residual", res.makespan, residual=residual,
                    fault_events=nflt))

        # Last tier: the sequential reference solve through the same
        # factors — local, so immune to the injected fabric faults.
        x = self.reference_solve(b2)
        residual = solve_residual(self.A, x, b2)
        report = self._reference_report(machine, nrhs)
        if residual <= resilience.residual_tol:
            attempts.append(AttemptRecord(
                "reference", "ok", report.total_time, residual=residual))
            rr = ResilienceReport(
                tier="reference", attempts=attempts, recovery_time=recovery,
                total_time=recovery + report.total_time, residual=residual)
            return SolveOutcome(x=x[:, 0] if was1d else x, report=report,
                                resilience=rr)
        attempts.append(AttemptRecord("reference", "bad-residual",
                                      report.total_time, residual=residual))
        raise ResilienceExhausted(attempts)

    def solve_blocked(self, b: np.ndarray, rhs_block: int = 16,
                      **solve_kw) -> SolveOutcome:
        """Solve a wide multi-RHS problem in column panels.

        Very wide RHS matrices (e.g. hundreds of columns) are processed in
        panels of ``rhs_block`` columns — the standard memory/cache
        trade-off for GEMM-heavy solves.  The report of the returned
        outcome aggregates the panels' simulated times (panels run one
        after another, as a real implementation would).
        """
        if rhs_block < 1:
            raise ValueError("rhs_block must be >= 1")
        b2, was1d = as_2d_rhs(b)
        nrhs = b2.shape[1]
        if nrhs <= rhs_block:
            return self.solve(b, **solve_kw)
        x = np.empty_like(b2)
        first: SolveOutcome | None = None
        total = 0.0
        for c0 in range(0, nrhs, rhs_block):
            c1 = min(nrhs, c0 + rhs_block)
            out = self.solve(b2[:, c0:c1], **solve_kw)
            x[:, c0:c1] = out.x
            total += out.report.total_time
            if first is None:
                first = out
        # Aggregate view: scale the first panel's clocks to the summed
        # panel times (panels are independent, identical-shape solves).
        rep = first.report
        rep.sim.clocks = rep.sim.clocks + (total - rep.sim.makespan)
        return SolveOutcome(x=x[:, 0] if was1d else x, report=rep)

    def reference_solve(self, b: np.ndarray) -> np.ndarray:
        """Sequential reference solve through the same LU factors."""
        b2, was1d = as_2d_rhs(b)
        xp = self.lu.solve(b2[self.perm])
        x = np.empty_like(xp)
        x[self.perm] = xp
        return x[:, 0] if was1d else x
