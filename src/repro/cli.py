"""Command-line interface: solve, tune and inspect from the shell.

Examples
--------
Solve a suite matrix on a 2x2x4 grid of the Cori model::

    python -m repro solve --matrix s2D9pt2048 --grid 2x2x4

GPU solve of a Matrix Market file on the Perlmutter model::

    python -m repro solve --matrix path/to/A.mtx --grid 4x1x4 \
        --machine perlmutter-gpu --device gpu

Autotune the grid shape for 16 ranks::

    python -m repro tune --matrix nlpkkt80 --ranks 16

Profile a solve — per-phase tables, sync points, critical path::

    python -m repro profile --matrix s2D9pt2048 --grid 2x2x4 \
        --algorithm new3d --trace /tmp/solve.json

Inspect a matrix's pipeline statistics::

    python -m repro info --matrix ldoor --scale small

Serve a seeded request stream through the batching solve service, save the
trace, and replay it (byte-identical SLO report both times)::

    python -m repro serve --matrices s2D9pt2048,nlpkkt80 --requests 32 \
        --rate 2000 --grid 1x1x2 --save-trace /tmp/wl.json
    python -m repro serve --replay /tmp/wl.json --grid 1x1x2

Run the same stream through a sharded 4-worker fleet, crashing worker 1
mid-run (the FleetReport is byte-identical on replay)::

    python -m repro fleet --workers 4 --requests 64 --zipf 1.0 \
        --crash 1@0.004:0.009 --json

Differentially fuzz the solver and serving stacks (seeded, replayable;
failures are shrunk and written to tests/corpus/)::

    python -m repro fuzz --cases 50 --seed 0
    python -m repro fuzz --replay tests/corpus/case-0123456789ab.json

Run the adversarial-scenario suite and check every degradation contract
(reports are deterministic; CI diffs two runs for bit-equality)::

    python -m repro scenarios --list
    python -m repro scenarios --run flash-crowd
    python -m repro scenarios --json
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from repro.comm.costmodel import MACHINES
from repro.core import SpTRSVSolver
from repro.core.backends import (
    AUTO,
    BACKENDS,
    DEVICES,
    REPLAYABLE,
    sweep_names,
)
from repro.matrices import PAPER_MATRICES, get_matrix, load_matrix_market, make_rhs
from repro.numfact import solve_residual
from repro.perf import autotune_grid, critical_path, format_report, roofline


def _load_matrix(spec: str, scale: str):
    """A suite name (see ``repro.matrices.PAPER_MATRICES``) or a .mtx path."""
    if spec in PAPER_MATRICES:
        return get_matrix(spec, scale)
    if os.path.exists(spec):
        return load_matrix_market(spec)
    raise SystemExit(
        f"error: {spec!r} is neither a suite matrix "
        f"({', '.join(sorted(PAPER_MATRICES))}) nor an existing .mtx file")


def _parse_grid(text: str) -> tuple[int, int, int]:
    try:
        px, py, pz = (int(t) for t in text.lower().split("x"))
        return px, py, pz
    except ValueError:
        raise SystemExit(f"error: --grid must look like 2x2x4, got {text!r}")


def _machine(name: str):
    try:
        return MACHINES[name]
    except KeyError:
        raise SystemExit(
            f"error: unknown machine {name!r}; "
            f"available: {', '.join(sorted(MACHINES))}")


def _solver(args, A, px: int, py: int, pz: int) -> SpTRSVSolver:
    """Factor ``A`` as the shared problem flags (``common``) describe."""
    return SpTRSVSolver(A, px, py, pz, machine=_machine(args.machine),
                        max_supernode=args.max_supernode,
                        symbolic_mode=args.symbolic)


def _suite_names(text: str) -> list[str]:
    """A ``--matrices`` mix: comma-separated suite matrix names."""
    names = [m.strip() for m in text.split(",") if m.strip()]
    unknown = [m for m in names if m not in PAPER_MATRICES]
    if unknown:
        raise SystemExit(
            f"error: unknown suite matrices {', '.join(unknown)}; "
            f"available: {', '.join(sorted(PAPER_MATRICES))}")
    return names


def cmd_solve(args) -> int:
    A = _load_matrix(args.matrix, args.scale)
    px, py, pz = _parse_grid(args.grid)
    machine = _machine(args.machine)
    solver = _solver(args, A, px, py, pz)
    b = make_rhs(A.shape[0], args.nrhs)
    out = solver.solve(b, algorithm=args.algorithm, device=args.device,
                       tree_kind=args.tree_kind)
    res = solve_residual(A, out.x, b)
    print(f"matrix {args.matrix}: n={A.shape[0]}, nnz={A.nnz}, "
          f"machine={machine.name}")
    print(format_report(out.report))
    print(f"  residual           : {res:10.3e}")
    return 0 if res < 1e-8 else 1


def cmd_profile(args) -> int:
    """Run one profiled solve and print the observability report."""
    from repro.obs import format_profile

    A = _load_matrix(args.matrix, args.scale)
    px, py, pz = _parse_grid(args.grid)
    machine = _machine(args.machine)
    solver = _solver(args, A, px, py, pz)
    b = make_rhs(A.shape[0], args.nrhs)
    out = solver.solve(b, algorithm=args.algorithm, device=args.device,
                       tree_kind=args.tree_kind, profile=True,
                       trace=bool(args.trace) and args.device == "cpu")
    res = solve_residual(A, out.x, b)
    reg = out.report.metrics
    print(f"matrix {args.matrix}: n={A.shape[0]}, nnz={A.nnz}, "
          f"machine={machine.name}, algorithm={args.algorithm} "
          f"({args.device})")
    print(format_profile(reg))
    print(f"residual: {res:.3e}")
    if args.trace:
        if args.device != "cpu":
            print("note: --trace is CPU-only (the GPU dataflow phases have "
                  "no event timeline); skipped")
        else:
            from repro.comm.trace_export import to_chrome_trace

            nev = to_chrome_trace(out.report.sim, args.trace, metrics=reg)
            print(f"wrote {nev} trace events to {args.trace}")
    return 0 if res < 1e-8 else 1


def cmd_tune(args) -> int:
    A = _load_matrix(args.matrix, args.scale)
    machine = _machine(args.machine)
    result = autotune_grid(A, P=args.ranks, machine=machine,
                           algorithm=args.algorithm, device=args.device,
                           nrhs=args.nrhs, max_supernode=args.max_supernode,
                           symbolic_mode=args.symbolic)
    print(f"autotune {args.matrix} on {machine.name}, P={args.ranks}, "
          f"device={args.device}:")
    print(result.format())
    px, py, pz = result.best
    print(f"\nbest: --grid {px}x{py}x{pz}  "
          f"({result.best_time * 1e3:.3f} ms simulated)")
    return 0


def cmd_info(args) -> int:
    A = _load_matrix(args.matrix, args.scale)
    machine = _machine(args.machine)
    solver = _solver(args, A, 1, 1, 1)
    from repro.matrices import matrix_fingerprint

    sym = solver.sym
    lu = solver.lu
    rf = roofline(lu, nrhs=args.nrhs)
    cp = critical_path(lu, machine, nrhs=args.nrhs)
    fp = matrix_fingerprint(A)
    print(f"matrix {args.matrix} (scale={args.scale})")
    print(f"  fingerprint        : {fp.short()} "
          f"(structure {fp.structure[:16]}, values {fp.numeric[:16]})")
    print(f"  n                  : {A.shape[0]}")
    print(f"  nnz(A)             : {A.nnz}")
    print(f"  nnz(LU)            : {sym.nnz_LU}")
    print(f"  density            : {sym.density():.4%}")
    print(f"  supernodes         : {lu.nsup}")
    print(f"  L blocks           : {len(lu.Lblocks)}")
    print(f"  solve flops (nrhs={args.nrhs}): {rf.flops:.3e}")
    print(f"  solve bytes        : {rf.bytes:.3e}")
    print(f"  arithmetic intensity: {rf.intensity:.4f} flop/byte "
          f"({rf.bound(machine)}-bound on {machine.name})")
    print(f"  critical path      : {cp.time * 1e3:.3f} ms over "
          f"{cp.length} supernode solves")
    from repro.matrices import matrix_stats
    from repro.numfact import skyline_stats, stability_report
    from repro.perf import level_profile

    st = matrix_stats(A)
    prof = level_profile(lu, "L")
    sky = skyline_stats(lu)
    stab = stability_report(solver.A_perm, lu)
    print(f"  bandwidth / max deg: {st.bandwidth} / {st.max_degree}")
    print(f"  DAG levels (L)     : {prof.depth} deep, max width "
          f"{prof.max_width}, avg parallelism {prof.avg_parallelism:.1f}")
    print(f"  skyline compression: {sky.compression:.2%} of full U blocks")
    print(f"  pivot growth       : {stab.growth_factor:.3g} "
          f"({'stable' if stab.is_stable() else 'UNSTABLE'})")
    for w in stab.warnings():
        print(f"  warning            : {w}")
    return 0


def cmd_replay(args) -> int:
    """Inspect (or demonstrate) the compile-once schedule-replay path."""
    from repro.replay import replay_info, replay_state

    A = _load_matrix(args.matrix, args.scale)
    px, py, pz = _parse_grid(args.grid)
    solver = _solver(args, A, px, py, pz)
    info = replay_info(solver, algorithm=args.algorithm,
                       tree_kind=args.tree_kind, nrhs=args.nrhs)
    print(f"replay program: {args.matrix} (scale={args.scale}), "
          f"algorithm={info['algorithm']} (impl={info['impl']}, "
          f"tree={info['tree_kind']}), grid {info['grid']}, "
          f"machine={info['machine']}, nrhs={info['nrhs']}")
    ops = ", ".join(f"{k}={v}" for k, v in sorted(info["op_counts"].items()))
    print(f"  instructions       : {info['instructions']} "
          f"({info['kernels']} kernels; {ops})")
    print(f"  registers          : {info['registers']}")
    print(f"  messages           : {info['messages']} "
          f"({info['message_bytes']} B precomputed routes)")
    print(f"  tape ops           : {info['tape_ops']}")
    print(f"  est. virtual time  : {info['est_virtual_time'] * 1e3:.3f} ms")
    if args.info:
        return 0

    import time

    # replay_info above already compiled + recorded on `solver`; time the
    # recording path honestly on a fresh solver.
    solver = _solver(args, A, px, py, pz)
    b = make_rhs(A.shape[0], args.nrhs)
    # The demo deliberately reports *host* wall time: the virtual clocks
    # are bit-identical either way, so wall time is the only axis where
    # the compiled path differs from the recording path.
    t0 = time.perf_counter()            # repro: allow[RPR004]
    cold = solver.solve(b, algorithm=args.algorithm,
                        tree_kind=args.tree_kind, replay=True)
    t_cold = time.perf_counter() - t0   # repro: allow[RPR004]
    t0 = time.perf_counter()            # repro: allow[RPR004]
    hot = solver.solve(b, algorithm=args.algorithm,
                       tree_kind=args.tree_kind, replay=True)
    t_hot = time.perf_counter() - t0    # repro: allow[RPR004]
    identical = (np.array_equal(cold.x, hot.x)
                 and np.array_equal(cold.report.sim.clocks,
                                    hot.report.sim.clocks))
    st = replay_state(solver).stats
    print(f"  recording solve    : {t_cold * 1e3:.2f} ms wall "
          f"(compile + simulate + validate)")
    print(f"  compiled replay    : {t_hot * 1e3:.2f} ms wall "
          f"({t_cold / t_hot:.2f}x vs recording)")
    print(f"  bit-identical      : {identical} "
          f"(compiles={st.compiles}, records={st.records}, "
          f"replays={st.replays})")
    return 0 if identical else 1


def cmd_serve(args) -> int:
    """Run (or replay) a workload through the batching solve service."""
    from repro.serve import (
        BatchPolicy,
        ServiceConfig,
        SolveService,
        Workload,
        WorkloadSpec,
        format_slo,
        generate_workload,
    )

    px, py, pz = _parse_grid(args.grid)
    if args.replay:
        wl = Workload.load(args.replay)
    else:
        names = _suite_names(args.matrices)
        spec = WorkloadSpec(seed=args.seed, rate=args.rate,
                            n_requests=args.requests,
                            mix=tuple((m, args.scale, 1.0) for m in names),
                            deadline=args.deadline)
        wl = generate_workload(spec)
        if args.save_trace:
            wl.save(args.save_trace)
            print(f"wrote {len(wl)} requests to {args.save_trace}")

    faults = resilience = None
    if args.drop > 0:
        from repro.comm.faults import FaultPlan
        from repro.core.solver import Resilience

        faults = FaultPlan.uniform(seed=args.seed, drop=args.drop)
        resilience = Resilience(reliable=True)

    svc = SolveService(
        ServiceConfig(px=px, py=py, pz=pz, machine=args.machine,
                      algorithm=args.algorithm, device=args.device,
                      max_supernode=args.max_supernode,
                      symbolic_mode=args.symbolic, planner=args.planner),
        BatchPolicy(max_batch=args.max_batch, max_wait=args.max_wait,
                    queue_bound=args.queue_bound),
        faults=faults, resilience=resilience,
        profile=args.profile, keep_solutions=False)
    res = svc.run(wl)
    if args.json:
        print(res.slo.to_json())
    else:
        title = (f"SLO report — {len(wl)} requests, grid {px}x{py}x{pz}, "
                 f"{args.algorithm} on {args.machine}, "
                 f"max-batch {args.max_batch}")
        print(format_slo(res.slo, title=title))
    return 0


def _parse_crash(text: str, worker_ceiling: int | None = None):
    """Parse ``W@TC:TR[,W@TC:TR...]`` into a worker-crash FaultSchedule.

    Every malformed window dies *here*, at parse time, with a typed
    message — never deep inside the fleet run: the worker index must
    name a worker the fleet can ever have (below ``worker_ceiling`` when
    given — the autoscaler ceiling, else the initial fleet size), times
    must be finite and non-negative, and recovery must strictly follow
    the crash.
    """
    import math

    from repro.comm.faults import FaultPlan, FaultSchedule

    phases = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            w_text, window = part.split("@")
            tc_text, tr_text = window.split(":")
            w, tc, tr = int(w_text), float(tc_text), float(tr_text)
        except ValueError:
            raise SystemExit(
                f"error: --crash windows look like 1@0.004:0.009 "
                f"(worker@t_crash:t_recover), got {part!r}")
        if w < 0:
            raise SystemExit(
                f"error: --crash worker index must be >= 0, got {part!r}")
        if worker_ceiling is not None and w >= worker_ceiling:
            raise SystemExit(
                f"error: --crash names worker {w} but the fleet only ever "
                f"has workers 0..{worker_ceiling - 1} (raise --workers or "
                f"--max-workers), got {part!r}")
        if not (math.isfinite(tc) and math.isfinite(tr)) or tc < 0:
            raise SystemExit(
                f"error: --crash times must be finite and >= 0, "
                f"got {part!r}")
        if tr <= tc:
            raise SystemExit(
                f"error: --crash recovery must follow the crash, got {part!r}")
        phases.append((tc, tr, FaultPlan.uniform(seed=w, crash={w: tc})))
    if not phases:
        raise SystemExit(f"error: --crash got no windows in {text!r}")
    return FaultSchedule(tuple(sorted(phases)))


def cmd_fleet(args) -> int:
    """Run a Zipf-skewed workload through a sharded multi-worker fleet."""
    from repro.fleet import (
        AutoscalerPolicy,
        FleetConfig,
        FleetService,
        format_fleet,
    )
    from repro.serve import (
        BatchPolicy,
        ServiceConfig,
        WorkloadSpec,
        generate_bulk_workload,
        generate_workload,
        zipf_mix,
    )

    px, py, pz = _parse_grid(args.grid)
    names = _suite_names(args.matrices)
    spec = WorkloadSpec(seed=args.seed, rate=args.rate,
                        n_requests=args.requests,
                        mix=zipf_mix(names, args.scale, s=args.zipf),
                        deadline=args.deadline)
    gen = generate_bulk_workload if args.bulk else generate_workload
    wl = gen(spec)

    ceiling = args.max_workers if args.autoscale else args.workers
    crash_schedule = (_parse_crash(args.crash, worker_ceiling=ceiling)
                      if args.crash else None)
    autoscaler = None
    if args.autoscale:
        autoscaler = AutoscalerPolicy(
            period=args.scale_period,
            min_workers=min(args.workers, args.max_workers),
            max_workers=args.max_workers)
    fs = FleetService(
        FleetConfig(workers=args.workers, vnodes=args.vnodes,
                    replication=args.replication,
                    ring_seed=args.ring_seed,
                    admit_bound=args.admit_bound),
        ServiceConfig(px=px, py=py, pz=pz, machine=args.machine,
                      algorithm=args.algorithm,
                      max_supernode=args.max_supernode,
                      symbolic_mode=args.symbolic),
        BatchPolicy(max_batch=args.max_batch, max_wait=args.max_wait,
                    queue_bound=args.queue_bound),
        crash_schedule=crash_schedule, autoscaler=autoscaler)
    res = fs.run(wl)
    if args.out:
        res.report.save(args.out)
        print(f"wrote FleetReport to {args.out}")
    if args.json:
        print(res.report.to_json())
    elif not args.out:
        title = (f"fleet report — {len(wl)} requests, {args.workers} workers, "
                 f"grid {px}x{py}x{pz}, {args.algorithm} on {args.machine}")
        print(format_fleet(res.report, title=title))
    return 0


def cmd_fuzz(args) -> int:
    """Differential fuzzing: random configs, cross-checked paths."""
    from repro.check import FuzzCase, run_case, shrink, write_repro
    from repro.check.fuzz import fuzz

    if args.replay:
        with open(args.replay) as f:
            case = FuzzCase.from_json(f.read())
        result = run_case(case)
        print(result.summary())
        return 0 if result.ok else 1

    def progress(result):
        status = "ok" if result.ok else "FAIL"
        print(f"  [{result.case.index + 1:3d}/{args.cases}] {status:4s} "
              f"{result.case.describe()} ({result.checks} checks)")

    report = fuzz(cases=args.cases, seed=args.seed,
                  progress=progress if args.verbose else None)
    print(report.summary())
    if report.ok:
        return 0
    for failing in report.failures:
        case = failing.case

        def is_failing(cand):
            return not run_case(cand).ok

        small = shrink(case, is_failing)
        path = write_repro(small, args.corpus)
        print(f"shrunk case {case.index} "
              f"({case.describe()} -> {small.describe()}); "
              f"repro written to {path}")
    return 1


def cmd_scenarios(args) -> int:
    """Adversarial scenarios: list, run one, or sweep the catalog."""
    import json as _json

    from repro.scenarios import get_scenario, run_scenario, scenario_names

    if args.list:
        from repro.scenarios import CATALOG

        for name, sc in CATALOG.items():
            tags = f" [{', '.join(sc.tags)}]" if sc.tags else ""
            print(f"{name:<20s} seed={sc.seed:<6d}{tags}\n"
                  f"    {sc.summary}")
        return 0

    names = [args.run] if args.run else scenario_names()
    reports = {n: run_scenario(get_scenario(n), seed=args.seed)
               for n in names}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for name, rep in reports.items():
            path = os.path.join(args.out, f"scenario-{name}.json")
            with open(path, "w") as f:
                f.write(rep.to_json() + "\n")
        print(f"wrote {len(reports)} ScenarioReport file(s) to {args.out}")
    if args.json:
        print(_json.dumps(
            {n: _json.loads(r.to_json()) for n, r in reports.items()},
            indent=1, sort_keys=True))
    else:
        for rep in reports.values():
            print(rep.summary_line())
            for c in rep.checks:
                if not c["passed"]:
                    print(f"    FAIL {c['check']}: {c['detail']}")
            if rep.error:
                print(f"    ERROR {rep.error}")
    failed = [n for n, r in reports.items() if not r.passed]
    if failed:
        print(f"scenarios: {len(failed)} contract(s) violated: "
              f"{', '.join(failed)}")
        return 1
    print(f"scenarios: {len(reports)} degradation contract(s) hold")
    return 0


def cmd_analyze(args) -> int:
    """Static schedule verification: extract, then certify or reject."""
    from repro.analyze import (
        allreduce_schedule,
        expected_syncs,
        gpu_schedules,
        solver_schedule,
        verify_rma,
        verify_schedule,
    )

    A = _load_matrix(args.matrix, args.scale)

    def check(sched, expect_syncs=None) -> bool:
        rep = verify_schedule(sched)
        ok = rep.ok
        status = "certified" if ok else "REJECTED"
        extra = ""
        if expect_syncs is not None:
            got = rep.nsyncs
            if got != expect_syncs:
                ok = False
                status = "REJECTED"
            extra = f", syncs {got} (expected {expect_syncs})"
        rma_rep = None
        if sched.puts():
            rma_rep = verify_rma(sched)
            if not rma_rep.ok:
                ok = False
                status = "REJECTED"
            res = rma_rep.resources
            extra += (f", rma {res.total_put_bytes}B/"
                      f"{res.nepochs} epoch(s)/"
                      f"peak {max(res.peak_bytes, default=0)}B")
        print(f"  [{status}] {sched.name or 'schedule'}: "
              f"{sched.nranks} ranks, {len(sched.sends())} msgs{extra}")
        if not ok:
            for line in rep.findings():
                print(f"      {line}")
            if rma_rep is not None:
                for line in rma_rep.findings():
                    print(f"      {line}")
        return ok

    # --sweep: every backend-table row across the Fig.-4 Pz axis, on each
    # grid where it is a distinct program (then the standalone allreduce
    # and the GPU dataflow, below).
    grids = ([(2, 2, pz) for pz in (1, 2, 4)] if args.sweep
             else [_parse_grid(args.grid)])
    bad = 0
    for px, py, pz in grids:
        solver = _solver(args, A, px, py, pz)
        algorithms = (sweep_names(solver.grid) if args.sweep
                      else [args.algorithm])
        for alg in algorithms:
            sched = solver_schedule(solver, algorithm=alg, nrhs=args.nrhs)
            if not check(sched, expect_syncs=expected_syncs(alg, pz)):
                bad += 1
    if args.sweep:
        solver = _solver(args, A, 2, 2, 4)
        if not check(allreduce_schedule(solver, nrhs=args.nrhs),
                     expect_syncs=1):
            bad += 1
        gpu_solver = _solver(args, A, 2, 1, 2)
        for sched in gpu_schedules(gpu_solver, nrhs=args.nrhs).values():
            if not check(sched):
                bad += 1
    if bad:
        print(f"analyze: {bad} schedule(s) rejected")
        return 1
    print("analyze: all schedules certified deadlock-free, "
          "match-deterministic, and race-free on one-sided epochs")
    return 0


def cmd_planner(args) -> int:
    """Print the cost-model planner's decision log for a grid sweep.

    One line per grid: the picked backend plus every candidate's predicted
    virtual time.  The log is deterministic for fixed inputs — CI runs this
    twice and diffs the ``--out`` files byte-for-byte.
    """
    from repro.planner import Planner

    A = _load_matrix(args.matrix, args.scale)
    machine = _machine(args.machine)
    planner = Planner()
    lines = []
    for g in (s.strip() for s in args.grids.split(",")):
        if not g:
            continue
        px, py, pz = _parse_grid(g)
        solver = _solver(args, A, px, py, pz)
        d = planner.choose(solver, nrhs=args.nrhs)
        lines.append(f"{args.matrix}/{args.scale} grid {px}x{py}x{pz} "
                     f"nrhs={args.nrhs} machine={machine.name}: "
                     f"{d.summary()}")
    text = "\n".join(lines)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    return 0


def cmd_lint(args) -> int:
    """Custom AST lint over the runtime (rules RPR001-RPR009)."""
    from repro.analyze import run_lint

    try:
        findings = run_lint(args.paths)
    except ValueError as e:
        raise SystemExit(f"error: {e}")
    for f in findings:
        print(f.describe())
    if findings:
        rules = sorted({f.rule for f in findings})
        print(f"lint: {len(findings)} finding(s) [{', '.join(rules)}]")
        return 1
    print("lint: clean")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SC'23 3D SpTRSV reproduction — solve / tune / info")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, matrix: str | None = None, scale: str = "small",
               single: bool = True):
        """Problem flags every subcommand shares.  ``single=False`` is for
        the request-stream subcommands, which take a ``--matrices`` mix and
        batch their own ``nrhs``."""
        if single:
            p.add_argument("--matrix", required=matrix is None,
                           default=matrix,
                           help="suite matrix name or MatrixMarket file")
        p.add_argument("--scale", default=scale,
                       choices=["tiny", "small", "medium"],
                       help="suite matrix scale (ignored for files)")
        p.add_argument("--machine", default="cori-haswell",
                       help=f"one of: {', '.join(sorted(MACHINES))}")
        if single:
            p.add_argument("--nrhs", type=int, default=1)
        p.add_argument("--max-supernode", type=int, default=16)
        p.add_argument("--symbolic", default="detect",
                       choices=["detect", "fixed"])

    def target(p, algorithms, grid: str | None = None, device: bool = False,
               tree_kind: bool = False):
        """What to solve with (``algorithms`` is a backend-table view) and
        on which grid."""
        if grid is not None:
            p.add_argument("--grid", default=grid,
                           help="PxxPyxPz, e.g. 2x2x4")
        p.add_argument("--algorithm", default="new3d",
                       choices=list(algorithms))
        if device:
            p.add_argument("--device", default="cpu", choices=list(DEVICES))
        if tree_kind:
            p.add_argument("--tree-kind", default=None,
                           choices=["auto", "binary", "flat"])

    def stream(p, requests: int, queue: str):
        """The generated request stream and the batching policy it meets."""
        p.add_argument("--requests", type=int, default=requests,
                       help="number of generated requests")
        p.add_argument("--rate", type=float, default=2000.0,
                       help="mean arrival rate (requests per virtual second)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--deadline", type=float, default=0.1,
                       help="relative completion budget per request "
                            "(virtual s)")
        p.add_argument("--max-batch", type=int, default=8,
                       help="batch width cap (nrhs per dispatched solve)")
        p.add_argument("--max-wait", type=float, default=1e-3,
                       help="max age of the oldest queued request "
                            "(virtual s)")
        p.add_argument("--queue-bound", type=int, default=256, help=queue)

    names = tuple(BACKENDS)
    plannable = (*names, AUTO)  # where the command can hand off to the planner

    p = sub.add_parser("solve", help="run one distributed solve")
    common(p)
    target(p, plannable, "1x1x1", device=True, tree_kind=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("profile",
                       help="profiled solve: per-phase metrics, inter-grid "
                            "sync points, critical path")
    common(p)
    target(p, plannable, "1x1x1", device=True, tree_kind=True)
    p.add_argument("--trace", default=None, metavar="OUT.json",
                   help="also write an annotated Chrome trace (flow arrows "
                        "per message; open in chrome://tracing or Perfetto)")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("tune", help="autotune the grid shape for P ranks")
    common(p)
    p.add_argument("--ranks", type=int, required=True, help="total ranks P")
    target(p, names, device=True)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("info", help="pipeline and roofline statistics")
    common(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser(
        "replay",
        help="compile a schedule-replay program and summarize its artifacts")
    common(p)
    target(p, REPLAYABLE, "1x1x4", tree_kind=True)
    p.add_argument("--info", action="store_true",
                   help="print the compiled-artifact summary only (skip the "
                        "recording-vs-replay demonstration solve)")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser(
        "serve",
        help="run a request workload through the batching solve service")
    p.add_argument("--matrices", default="s2D9pt2048",
                   help="comma-separated suite matrix mix (equal weights)")
    common(p, scale="tiny", single=False)
    stream(p, requests=32, queue="admission-control queue depth bound")
    target(p, plannable, "1x1x2", device=True)
    p.add_argument("--planner", action="store_true",
                   help="let the cost-model planner pick the backend per "
                        "batch (same as --algorithm auto; CPU only)")
    p.add_argument("--drop", type=float, default=0.0,
                   help="serve over a lossy fabric: per-message drop "
                        "probability (enables the resilience envelope)")
    p.add_argument("--profile", action="store_true",
                   help="aggregate the per-batch comm metrics into the "
                        "report")
    p.add_argument("--save-trace", default=None, metavar="OUT.json",
                   help="save the generated workload as a replayable trace")
    p.add_argument("--replay", default=None, metavar="TRACE.json",
                   help="replay a saved trace instead of generating")
    p.add_argument("--json", action="store_true",
                   help="print the SLO report as JSON")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "fleet",
        help="run a Zipf-skewed workload through a sharded multi-worker "
             "fleet with crash/recovery and optional autoscaling")
    p.add_argument("--matrices",
                   default="s2D9pt2048,nlpkkt80,ldoor",
                   help="comma-separated suite matrix mix (Zipf weights by "
                        "listed order)")
    common(p, scale="tiny", single=False)
    stream(p, requests=64,
           queue="per-worker admission-control queue depth bound")
    p.add_argument("--zipf", type=float, default=1.0,
                   help="Zipf skew exponent s over the matrix mix")
    p.add_argument("--bulk", action="store_true",
                   help="use the vectorized bulk generator (scales to "
                        "millions of requests; different trace than the "
                        "scalar generator)")
    p.add_argument("--workers", type=int, default=2,
                   help="initial fleet size")
    p.add_argument("--vnodes", type=int, default=64,
                   help="virtual nodes per worker on the hash ring")
    p.add_argument("--replication", type=int, default=1,
                   help="distinct owners per matrix fingerprint")
    p.add_argument("--ring-seed", type=int, default=0,
                   help="seed for the ring's vnode placement")
    p.add_argument("--admit-bound", type=int, default=None,
                   help="front-door bound on summed logical queue depth")
    p.add_argument("--crash", default=None, metavar="W@TC:TR[,...]",
                   help="worker crash windows, e.g. 1@0.004:0.009 crashes "
                        "worker 1 at t=4ms and recovers it (cold cache) at "
                        "t=9ms")
    p.add_argument("--autoscale", action="store_true",
                   help="enable the queue-depth/latency autoscaler")
    p.add_argument("--max-workers", type=int, default=8,
                   help="autoscaler ceiling")
    p.add_argument("--scale-period", type=float, default=2e-3,
                   help="autoscaler tick period (virtual s)")
    target(p, names, "1x1x2")
    p.add_argument("--json", action="store_true",
                   help="print the FleetReport as JSON")
    p.add_argument("--out", default=None, metavar="OUT.json",
                   help="write the FleetReport JSON to a file")
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser(
        "scenarios",
        help="run seeded adversarial scenarios against the solve service "
             "and check their degradation contracts")
    p.add_argument("--list", action="store_true",
                   help="list the catalog and exit")
    p.add_argument("--run", default=None, metavar="NAME",
                   help="run one named scenario instead of the full sweep")
    p.add_argument("--seed", type=int, default=None,
                   help="override the declared seed (soft SLO bounds are "
                        "calibrated to the declared seed; hard guarantees "
                        "must hold at any)")
    p.add_argument("--json", action="store_true",
                   help="print ScenarioReports as one JSON document")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="also write one ScenarioReport JSON file per "
                        "scenario into DIR")
    p.set_defaults(func=cmd_scenarios)

    p = sub.add_parser(
        "analyze",
        help="statically verify communication schedules (deadlock freedom, "
             "match determinism, sync counts)")
    common(p, matrix="s2D9pt2048", scale="tiny")
    target(p, names, "2x2x4")
    p.add_argument("--sweep", action="store_true",
                   help="verify the standard sweep (every CPU backend "
                        "across Pz, the 2D solver, the standalone "
                        "allreduces, and the GPU dataflow) instead of one "
                        "config")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "planner",
        help="price every eligible backend with the cost model and print "
             "the planner's decision log for a grid sweep")
    common(p, matrix="s2D9pt2048", scale="tiny")
    p.add_argument("--grids", default="2x2x1,2x1x2,2x2x2,1x2x4",
                   help="comma-separated PxxPyxPz list to plan over")
    p.add_argument("--out", default=None, metavar="OUT.log",
                   help="also write the decision log to a file (CI diffs "
                        "two runs for bit-equality)")
    p.set_defaults(func=cmd_planner)

    p = sub.add_parser(
        "lint",
        help="custom AST lint over the runtime (rules RPR001-RPR009)")
    p.add_argument("paths", nargs="+",
                   help="Python files or directories to lint")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "fuzz",
        help="differentially fuzz the solver and serving stacks")
    p.add_argument("--cases", type=int, default=50,
                   help="number of random cases to draw and run")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed; same seed => same case stream")
    p.add_argument("--replay", default=None, metavar="CASE.json",
                   help="replay one corpus case file instead of drawing")
    p.add_argument("--corpus", default=os.path.join("tests", "corpus"),
                   help="where shrunk failing cases are written")
    p.add_argument("--verbose", action="store_true",
                   help="print each case as it finishes")
    p.set_defaults(func=cmd_fuzz)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
