"""The seven hostbench workloads.

Each workload object has the same small surface, driven by ``run.py``:

- ``build()`` — generate inputs, build solvers/services (timed: set-up);
- ``warmup()`` — one untimed pass so lazy state exists (timed: set-up);
- ``ops`` — the fixed list of zero-argument callables one pass runs, and
  ``ops_per_pass`` — how many user-visible operations that is (a served
  request is an op, so one ``run()`` callable may be hundreds of ops);
- ``verify(outs)`` — post-timing correctness pass over the outputs of the
  last pass: one message per wrong answer (``run.py`` itself counts the
  calls that raised, which arrive here as :class:`OpError`);
- ``virtual(outs)`` / ``counters(outs)`` — the modelled machine's numbers
  and the deterministic per-layer counts, read off the same outputs.

``--seed`` feeds right-hand-side values only.  The traffic shape of the
two request workloads (arrival instants, matrix mix, deadlines, ring
placement) is frozen by :data:`TRAFFIC_SEED`: a traffic seed moves the
number of batches — the host work of a pass — by several percent, which
is workload variance rather than measurement noise and would drown the
benchmark's bounds.  The program under test only ever receives generated
inputs.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.sparse as sp

from repro.analyze import (
    expected_syncs,
    solver_schedule,
    verify_rma,
    verify_schedule,
)
from repro.comm.costmodel import MACHINES
from repro.core.solver import SpTRSVSolver
from repro.fleet import FleetConfig, FleetService
from repro.matrices import get_matrix, make_rhs
from repro.numfact import lu_factorize, solve_residual
from repro.ordering import nested_dissection
from repro.planner import DEFAULT_PLANNER, Planner, candidates
from repro.replay import replay_state
from repro.serve import (
    BatchPolicy,
    ServiceConfig,
    SolveService,
    Workload,
    WorkloadSpec,
    generate_bulk_workload,
    generate_workload,
    zipf_mix,
)
from repro.symbolic import symbolic_factor

RESIDUAL_TOL = 1e-9
TRAFFIC_SEED = 0
# Separator trees are binary-complete to this depth, as benchmarks/common.
MAX_DEPTH = 6

M2 = ("s2D9pt2048", "nlpkkt80")
B5 = ("new3d", "baseline3d", "sparse_allreduce_v2", "ca_trsm",
      "onesided_put")
# (matrix, algorithm) pairs of the simulated-path workloads.
L_SIM = (("s2D9pt2048", "new3d"),) + tuple(("nlpkkt80", a) for a in B5)
REPLAY_CONFIGS = (("s2D9pt2048", "new3d"), ("nlpkkt80", "new3d"),
                  ("nlpkkt80", "baseline3d"))
SERVE_MIX = ("s2D9pt2048", "nlpkkt80", "ldoor")
FLEET_MIX = SERVE_MIX + ("dielFilterV3real", "Ga19As19H42",
                         "s1_mat_0_253872")
PLAN_GRIDS = ((2, 2, 1), (2, 1, 2), (2, 2, 2), (1, 2, 4))
POLICY = dict(max_batch=8, max_wait=1e-3, queue_bound=1024)
# Backends bit-identical to new3d by construction.
NEW3D_FAMILY = ("sparse_allreduce_v2", "onesided_put")


class OpError:
    """Stands in for the output of an op that raised."""

    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"


def pipeline(name: str, scale: str):
    """Factor one suite matrix, staged as ``benchmarks/common.pipeline``
    stages it, so every stage is one traced call."""
    A = get_matrix(name, scale)
    n = A.shape[0]
    tree = nested_dissection(A, leaf_size=max(8, n // 256),
                             min_depth=MAX_DEPTH)
    Ap = sp.csr_matrix(A[tree.perm][:, tree.perm])
    sym = symbolic_factor(Ap, max_supernode=16,
                          boundaries=tree.boundaries(), mode="fixed")
    lu = lu_factorize(Ap, sym.partition)
    return A, tree, sym, lu


# -- direct solves ------------------------------------------------------------


class SolveWorkload:
    """Closed loop of ``SpTRSVSolver.solve`` calls over fixed configs."""

    def __init__(self, seed: int, quick: bool, configs, grid=(2, 2, 4),
                 machine: str = "cori-haswell", **solve_kw):
        self.seed = seed
        self.scale = "tiny" if quick else "small"
        self.configs = list(configs)     # (matrix, algorithm, nrhs)
        self.grid = grid
        self.machine = MACHINES[machine]
        self.solve_kw = solve_kw
        self.ops_per_pass = len(self.configs)

    def build(self) -> None:
        self.solvers = {}
        self.rhs = {}
        for i, (m, _alg, nrhs) in enumerate(self.configs):
            if m not in self.solvers:
                self.solvers[m] = SpTRSVSolver.from_pipeline(
                    *pipeline(m, self.scale), *self.grid,
                    machine=self.machine)
            if (m, nrhs) not in self.rhs:
                self.rhs[(m, nrhs)] = make_rhs(
                    self.solvers[m].n, nrhs, kind="random",
                    seed=1000 * self.seed + i)
        self.ops = [self._op(m, alg, nrhs)
                    for (m, alg, nrhs) in self.configs]

    def _op(self, m: str, alg: str, nrhs: int):
        solver, b, kw = self.solvers[m], self.rhs[(m, nrhs)], self.solve_kw
        return lambda: solver.solve(b, algorithm=alg, **kw)

    def warmup(self) -> None:
        for op in self.ops:
            op()

    def verify(self, outs) -> list[str]:
        bad: dict[int, str] = {}
        live = [(i, cfg, out) for i, (cfg, out)
                in enumerate(zip(self.configs, outs))
                if not isinstance(out, OpError)]
        new3d = {}
        for i, (m, alg, nrhs), out in live:
            res = solve_residual(self.solvers[m].A, out.x,
                                 self.rhs[(m, nrhs)])
            if not res <= RESIDUAL_TOL:
                bad[i] = f"residual {res:.2e}"
            if alg == "new3d":
                new3d[(m, nrhs)] = out.x
        for i, (m, alg, nrhs), out in live:
            if i in bad:
                continue
            solver, b = self.solvers[m], self.rhs[(m, nrhs)]
            ref = new3d.get((m, nrhs))
            if alg in NEW3D_FAMILY and ref is not None \
                    and not np.array_equal(out.x, ref):
                bad[i] = f"{alg} is not bit-identical to new3d"
            elif self.solve_kw.get("replay"):
                sim = solver.solve(b, algorithm=alg)
                if not np.array_equal(out.x, sim.x) \
                        or out.report.total_time != sim.report.total_time:
                    bad[i] = "replay is not bit-identical to the simulation"
            elif nrhs > 1:
                one = solver.solve(b[:, 0], algorithm=alg, **self.solve_kw)
                if not np.array_equal(out.x[:, 0], one.x):
                    bad[i] = "batched column is not bit-identical to the " \
                             "single-RHS solve"
        msgs = [f"op {i} {self.configs[i]}: {msg}"
                for i, msg in sorted(bad.items())]
        if self.solve_kw.get("replay"):
            # The timed solves must have taken the compiled path.
            msgs.extend(f"{m}: no solve was replayed"
                        for m, solver in self.solvers.items()
                        if replay_state(solver).stats.replays == 0)
        return msgs

    def virtual(self, outs) -> dict:
        good = [o for o in outs if not isinstance(o, OpError)]
        total = sum(o.report.total_time for o in good)
        parts = [o.report.breakdown() for o in good]
        return {
            "virtual_time_s": total,
            "virtual.fp_s": sum(p["fp"] for p in parts),
            "virtual.xy_comm_s": sum(p["xy_comm"] for p in parts),
            "virtual.z_comm_s": sum(p["z_comm"] for p in parts),
        }

    def counters(self, outs) -> dict:
        return {}


def sim_narrow(seed, quick):
    return SolveWorkload(seed, quick, [(m, a, 1) for m, a in L_SIM])


def sim_wide(seed, quick):
    return SolveWorkload(seed, quick, [(m, a, 16) for m, a in L_SIM])


def replay_steady(seed, quick):
    return SolveWorkload(seed, quick,
                         [(m, a, k) for m, a in REPLAY_CONFIGS
                          for k in (1, 16)], replay=True)


def gpu_dataflow(seed, quick):
    return SolveWorkload(seed, quick,
                         [(m, "new3d", k) for m in M2 for k in (1, 16)],
                         grid=(2, 1, 2), machine="perlmutter-gpu",
                         device="gpu")


# -- request workloads ----------------------------------------------------------


def _reseed_rhs(workload: Workload, seed: int) -> Workload:
    """Same traffic, right-hand sides drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2**31 - 1, size=len(workload.requests))
    reqs = [dataclasses.replace(r, rhs_seed=int(s))
            for r, s in zip(workload.requests, seeds)]
    return Workload(requests=reqs, meta={**workload.meta, "rhs_seed": seed})


def _check_requests(workload: Workload, slo, solutions: dict,
                    mats: dict) -> list[str]:
    """SLO counters and residuals of one served workload: every request
    must complete, in time, with a right answer."""
    bad = []
    n = len(workload)
    if slo.n_shed:
        bad.extend(f"request shed ({r})" for r, c in
                   sorted(slo.shed_by_reason.items()) for _ in range(c))
    late = slo.n_completed - slo.n_deadline_met
    bad.extend("request missed its deadline" for _ in range(late))
    bad.extend("integrity failure" for _ in range(slo.n_integrity_failures))
    for r in workload.requests:
        x = solutions.get(r.id)
        if x is None:
            continue            # shed: already counted
        A = mats[r.matrix]
        res = solve_residual(A, x, r.rhs(A.shape[0]))
        if not res <= RESIDUAL_TOL:
            bad.append(f"request {r.id}: residual {res:.2e}")
    if slo.n_completed + slo.n_shed != n:
        bad.append(f"{n - slo.n_completed - slo.n_shed} requests lost")
    return bad


def _slo_virtual(slo) -> dict:
    return {
        "virtual_req_per_s": slo.throughput,
        "virtual_latency_p50_ms": slo.latency_p50 * 1e3,
        "virtual_latency_p95_ms": slo.latency_p95 * 1e3,
    }


def _slo_counters(slo) -> dict:
    return {
        "serve.batches": slo.n_batches,
        "serve.batch_mean": slo.batch_mean,
        "serve.replayed_share": (slo.n_replayed / slo.n_batches
                                 if slo.n_batches else 0.0),
        "serve.queue_depth_max": slo.queue_depth_max,
        "serve.shed": slo.n_shed,
    }


class ServeAuto:
    """One warm ``SolveService`` with the planner picking every batch's
    backend; virtual open loop, Poisson arrivals."""

    #: Completions re-solved alone on a cold factorization (bit-identity
    #: of batching + planner routing); each costs a simulated solve.
    N_COLD_CHECKS = 6

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.n_requests = 64 if quick else 200
        self.ops_per_pass = self.n_requests

    def build(self) -> None:
        # Repeated set-ups in one process must each start cold.
        DEFAULT_PLANNER.clear()
        spec = WorkloadSpec(seed=TRAFFIC_SEED, rate=3000.0,
                            n_requests=self.n_requests,
                            mix=zipf_mix(SERVE_MIX, "tiny", 1.0),
                            deadline=0.1)
        self.workload = _reseed_rhs(generate_workload(spec), self.seed)
        self.config = ServiceConfig(px=1, py=1, pz=4, planner=True,
                                    replay=True)
        self.service = SolveService(self.config, BatchPolicy(**POLICY))
        self.ops = [self._run]

    def _run(self):
        stats = self.service.cache.stats
        before = (stats.hits, stats.misses, stats.evictions)
        decisions = len(DEFAULT_PLANNER.decisions())
        res = self.service.run(self.workload)
        delta = tuple(a - b for a, b in zip(
            (stats.hits, stats.misses, stats.evictions), before))
        return res, delta, len(DEFAULT_PLANNER.decisions()) - decisions

    def warmup(self) -> None:
        self._run()             # the cold run: factorizations + decisions

    def verify(self, outs) -> list[str]:
        if isinstance(outs[0], OpError):
            return []
        res = outs[0][0]
        mats = {m: get_matrix(m, "tiny") for m in SERVE_MIX}
        bad = _check_requests(self.workload, res.slo, res.solutions, mats)
        # Batched + planner-routed answers vs. a lone solve on a fresh
        # factorization, for an evenly spaced sample of completions.
        c = self.config
        fresh = {}
        step = max(1, len(res.completions) // self.N_COLD_CHECKS)
        for comp in res.completions[::step][:self.N_COLD_CHECKS]:
            r = comp.request
            if r.matrix not in fresh:
                fresh[r.matrix] = SpTRSVSolver(
                    mats[r.matrix], px=c.px, py=c.py, pz=c.pz,
                    machine=MACHINES[c.machine],
                    max_supernode=c.max_supernode,
                    symbolic_mode=c.symbolic_mode, ordering=c.ordering)
            solver = fresh[r.matrix]
            width = res.batches[comp.batch_id].size
            alg = DEFAULT_PLANNER.choose(solver, nrhs=width).algorithm
            ref = solver.solve(r.rhs(solver.n)[:, 0], algorithm=alg).x
            if not np.array_equal(res.solutions[r.id], ref):
                bad.append(f"request {r.id}: batched answer differs from "
                           f"the cold single solve ({alg}, width {width})")
        return bad

    def virtual(self, outs) -> dict:
        return {} if isinstance(outs[0], OpError) \
            else _slo_virtual(outs[0][0].slo)

    def counters(self, outs) -> dict:
        if isinstance(outs[0], OpError):
            return {}
        res, (hits, misses, evictions), new_decisions = outs[0]
        lookups = hits + misses
        return {
            **_slo_counters(res.slo),
            "serve.cache.hit_rate": hits / lookups if lookups else 0.0,
            "serve.cache.misses": misses,
            "serve.cache.evictions": evictions,
            "planner.new_decisions": new_decisions,
        }


class FleetZipf:
    """Four-worker fleet, planner off, every run from cold caches."""

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.n_requests = 400 if quick else 3600
        self.ops_per_pass = self.n_requests

    def build(self) -> None:
        spec = WorkloadSpec(seed=TRAFFIC_SEED, rate=30000.0,
                            n_requests=self.n_requests,
                            mix=zipf_mix(FLEET_MIX, "tiny", 1.0),
                            deadline=0.1)
        self.workload = _reseed_rhs(generate_bulk_workload(spec), self.seed)
        self.fleet = FleetService(
            FleetConfig(workers=4, replication=2, ring_seed=TRAFFIC_SEED),
            ServiceConfig(px=1, py=1, pz=4), BatchPolicy(**POLICY),
            keep_solutions=True)
        self.reports: list[str] = []     # serialized report of every run
        self.ops = [self._run]

    def _run(self):
        result = self.fleet.run(self.workload)
        self.reports.append(result.report.to_json())
        return result

    def warmup(self) -> None:
        # A fleet run rebuilds its caches every time, so there is no warm
        # state to build; a short prefix only loads code paths and BLAS.
        head = Workload(requests=self.workload.requests[:30],
                        meta=self.workload.meta)
        self.fleet.run(head)

    def verify(self, outs) -> list[str]:
        if isinstance(outs[0], OpError):
            return []
        result = outs[0]
        mats = {m: get_matrix(m, "tiny") for m in FLEET_MIX}
        bad = _check_requests(self.workload, result.slo, result.solutions,
                              mats)
        # Byte-identity of the report across the timed passes; a single
        # pass is checked against one more (untimed) run.
        if len(self.reports) < 2:
            self._run()
        if len(set(self.reports)) != 1:
            bad.append("FleetReport is not byte-identical on re-run")
        return bad

    def virtual(self, outs) -> dict:
        if isinstance(outs[0], OpError):
            return {}
        slo = outs[0].slo
        return {**_slo_virtual(slo),
                "virtual_latency_p99_ms": slo.latency_p99 * 1e3}

    def counters(self, outs) -> dict:
        if isinstance(outs[0], OpError):
            return {}
        result = outs[0]
        slo = result.slo
        busy = [(w.slo.setup_time + w.slo.solve_time) / slo.makespan
                for w in result.workers.values()]
        return {
            **_slo_counters(slo),
            "serve.cache.hit_rate": slo.cache_hit_rate,
            "serve.cache.misses": slo.cache_misses,
            "serve.cache.evictions": slo.cache_evictions,
            "fleet.worker_busy_share.min": min(busy),
            "fleet.worker_busy_share.max": max(busy),
        }


# -- static planning --------------------------------------------------------------


class StaticPlan:
    """Planner decisions and certified schedules: the rank programs driven
    by ``analyze.extract``'s harness on a zero RHS, never by the simulator.
    Takes no random input, so ``--seed`` changes nothing here."""

    NRHS = 4
    MATRICES = SERVE_MIX

    def __init__(self, seed: int, quick: bool):
        self.grids = PLAN_GRIDS[1:3] if quick else PLAN_GRIDS
        self.matrices = self.MATRICES[:1] if quick else self.MATRICES

    def build(self) -> None:
        self.pipes = {m: pipeline(m, "tiny") for m in self.matrices}
        self.solver = None
        self.ops = []
        self.kinds = []          # per op: "decision" or the backend name
        for m in self.matrices:
            for grid in self.grids:
                self.ops.append(self._decide(m, grid))
                self.kinds.append("decision")
                probe = SpTRSVSolver.from_pipeline(*self.pipes[m], *grid)
                for alg in candidates(probe):
                    self.ops.append(self._certify(alg))
                    self.kinds.append(alg)
        self.ops_per_pass = len(self.ops)

    def _decide(self, m: str, grid):
        def op():
            # A fresh solver and planner: every decision is a cold one.
            self.solver = SpTRSVSolver.from_pipeline(*self.pipes[m], *grid)
            return self.solver, Planner().choose(self.solver, nrhs=self.NRHS)
        return op

    def _certify(self, alg: str):
        def op():
            sched = solver_schedule(self.solver, algorithm=alg,
                                    nrhs=self.NRHS)
            rep = verify_schedule(sched)
            rma = verify_rma(sched) if sched.puts() else None
            return self.solver.grid.pz, rep, rma
        return op

    def warmup(self) -> None:
        # Nothing carries over between ops (fresh solver, fresh planner);
        # the first grid of the first matrix loads every code path.
        n = next((i for i in range(1, len(self.kinds))
                  if self.kinds[i] == "decision"), len(self.kinds))
        for op in self.ops[:n]:
            op()

    def verify(self, outs) -> list[str]:
        bad = []
        for i, (kind, out) in enumerate(zip(self.kinds, outs)):
            if isinstance(out, OpError):
                continue
            if kind == "decision":
                solver, d = out
                t = d.predicted.get(d.algorithm, math.nan)
                if list(d.predicted) != candidates(solver) \
                        or not (math.isfinite(t) and t > 0) \
                        or t != min(d.predicted.values()):
                    bad.append(f"op {i}: bad decision {d.summary()}")
            else:
                pz, rep, rma = out
                if not rep.ok or rep.nsyncs != expected_syncs(kind, pz) \
                        or (rma is not None and not rma.ok):
                    bad.append(f"op {i}: schedule rejected: "
                               f"{rep.summary()}")
        return bad

    def virtual(self, outs) -> dict:
        return {"virtual_time_s": sum(
            out[1].predicted[out[1].algorithm]
            for kind, out in zip(self.kinds, outs)
            if kind == "decision" and not isinstance(out, OpError))}

    def counters(self, outs) -> dict:
        # Inter-grid sync points per backend, at the deepest grid that
        # runs it: the paper's headline 1 vs ceil(log2 Pz) vs 0.
        nsyncs: dict[str, int] = {}
        n_decisions = 0
        for kind, out in zip(self.kinds, outs):
            if isinstance(out, OpError):
                continue
            if kind == "decision":
                n_decisions += 1
            else:
                nsyncs[kind] = max(nsyncs.get(kind, 0), out[1].nsyncs)
        return {"planner.new_decisions": n_decisions,
                **{f"analyze.verify.nsyncs.{k}": v
                   for k, v in nsyncs.items()}}


WORKLOADS = {
    "sim_narrow": sim_narrow,
    "sim_wide": sim_wide,
    "replay_steady": replay_steady,
    "serve_auto": ServeAuto,
    "fleet_zipf": FleetZipf,
    "static_plan": StaticPlan,
    "gpu_dataflow": gpu_dataflow,
}
