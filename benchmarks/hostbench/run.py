"""hostbench: one two-clock benchmark over seven named workloads.

    python3 benchmarks/hostbench/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--quick] [--out DIR]

With ``--workload`` the workload runs in this process and the last line of
standard output is one JSON object ``{correct, attempted, failed,
metrics}`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Without it every workload runs in its own
fresh subprocess (clean peak RSS, clean ``DEFAULT_PLANNER``), each metric
is printed by name with its unit, and the merged result is written to
``--out`` (default ``benchmarks/hostbench/results``).  Exit code 1 when
any operation failed; the numbers are still printed.

**Host** numbers (wall clock of this Python process) carry noise;
**virtual** numbers (the modelled Cori/Perlmutter machine) repeat exactly.
``spec.json`` beside this file names every metric, its unit, clock and
bound, the frozen pass counts, and which layer should move which metric.
"""

from __future__ import annotations

import os

# One thread: the host has two cores and the kernels are tiny, so BLAS
# threading only adds noise.  Must be set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))
DEFAULT_OUT = os.path.join(HERE, "results")


def load_spec() -> dict:
    with open(os.path.join(HERE, "spec.json")) as f:
        return json.load(f)


def quartiles(values) -> tuple[float, float, float]:
    """(p25, median, p75); a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def best_of(passes) -> float:
    """Wall of one pass, each call taken at its fastest over ``passes``."""
    return sum(min(times) for times in zip(*passes))


def top_percentile(samples) -> tuple[float, float] | None:
    """The highest of p90/p95/p99 with at least ten samples beyond it, as
    ``(q, value)``; ``None`` below a hundred samples."""
    ordered = sorted(samples)
    for q in (99, 95, 90):
        beyond = int(len(ordered) * (100 - q) / 100)
        if beyond >= 10:
            return q, ordered[len(ordered) - beyond - 1]
    return None


# -- one workload, in this process ---------------------------------------------


def run_pass(wl, tracer=None):
    """One closed-loop pass: the next op starts when the previous returns.
    Returns ``(wall_s, per_op_s, outputs)``; an op that raises is recorded
    as a failed op and the pass goes on."""
    from workloads import OpError

    outs, times = [], []
    t_start = time.perf_counter()
    for i, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = op()
        except Exception as exc:   # the benchmark must report, not die
            out = OpError(exc)
        times.append(time.perf_counter() - t0)
        outs.append(out)
    return time.perf_counter() - t_start, times, outs


def set_up(make, tracer=None):
    """Build a workload and warm it; returns ``(workload, seconds)``."""
    gc.collect()
    t0 = time.perf_counter()
    wl = make()
    with tracer.root("setup") if tracer else contextlib.nullcontext():
        wl.build()
        wl.warmup()
    return wl, time.perf_counter() - t0


def run_workload(spec: dict, name: str, seed: int, seconds: float,
                 trace: bool, quick: bool) -> dict:
    """Run one workload here; returns the detail record."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads
    from trace import Tracer
    from workloads import OpError

    wspec = spec["workloads"][name]
    passes = 1 if quick else max(
        1, round(wspec["passes"] * seconds / spec["run_seconds"]))
    reps = 1 if quick or trace else wspec["setup_reps"]

    def make():
        return workloads.WORKLOADS[name](seed, quick)

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install(extra_modules=[workloads])
    setup_s = []
    for _ in range(reps):
        wl = None                   # the previous set-up is garbage now
        wl, dt = set_up(make, tracer)
        setup_s.append(dt)
    if tracer is not None:
        tracer.uninstall()

    # A traced run alternates untraced and traced passes, two of each, so
    # the overhead compares like with like; the layer tables read the
    # first traced pass ("pass"), the second ("repeat") only times.
    plan = ([None] * passes if tracer is None
            else [None, "pass", None, "repeat"])
    pass_s, op_s, traced_s = [], [], []
    raised = []                     # calls that raised, over all passes
    traced_wall = None
    for stage in plan:
        gc.collect()
        if stage:
            tracer.install(extra_modules=[workloads])
            with tracer.root(stage):
                wall, times, outs = run_pass(wl, tracer)
            tracer.uninstall()
            traced_s.append(times)
            traced_wall = traced_wall or wall
        else:
            wall, times, outs = run_pass(wl)
            pass_s.append(wall)
            op_s.append(times)
        raised += [o.message for o in outs if isinstance(o, OpError)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # The answers of the last pass are verified.  A call that raised fails
    # every op it stood for (one run() serves all of a pass's requests).
    wrong = wl.verify(outs)
    attempted = wl.ops_per_pass * len(plan)
    failed = min(attempted, len(wrong)
                 + len(raised) * (wl.ops_per_pass // len(wl.ops)))
    failures = raised + wrong

    p25, p50, p75 = quartiles(pass_s)
    # Interference on a shared sandbox is one-sided (it only ever adds
    # time) and comes in bursts longer than a call, so the steady
    # estimate of a pass is each call's fastest time over the passes,
    # summed, and of the set-up the fastest of its repeats.  Measured
    # under contention: median pass wall spread 23% across ten runs, this
    # 7%.  Medians and quartiles are printed beside them.
    best_pass = best_of(op_s)
    calls = [t for times in op_s for t in times]
    metrics = {
        "setup_s": min(setup_s),
        "host_ops_per_s": wl.ops_per_pass / best_pass,
        "peak_rss_mb": rss_mb,
        "failed_ops_share": failed / attempted,
        **wl.virtual(outs),
    }
    detail = {
        "workload": name, "seed": seed, "quick": quick, "trace": trace,
        "passes": len(pass_s), "ops_per_pass": wl.ops_per_pass,
        "attempted": attempted, "failed": failed,
        "failures": failures[:20],
        "setup_runs_s": setup_s, "pass_s": pass_s,
        "pass_quartiles_s": [p25, p50, p75],
        "pass_spread": (p75 - p25) / p50,
        "best_pass_s": best_pass, "op_calls": len(calls),
        "op_median_s": statistics.median(calls),
        "op_top": top_percentile(calls),
    }
    if tracer is not None:
        metrics.update(layer_metrics(tracer, wl.counters(outs), traced_wall,
                                     best_of(traced_s) / best_pass))
        detail["layers"] = {st: tracer.layer_table(st)
                            for st in ("setup", "pass")}
        detail["stage_wall_s"] = {"setup": setup_s[0], "pass": traced_wall}
        detail["spans"] = tracer.to_json()
    # The tracer names more rows than spec.json lists; only those count.
    known = spec["metrics"]
    detail["metrics"] = {k: {"value": v, "unit": known[k]["unit"]}
                         for k, v in metrics.items() if k in known}
    return detail


def layer_metrics(tracer, counters: dict, traced_wall: float,
                  overhead: float) -> dict:
    """Flatten the traced run into the per-layer metrics of ``spec.json``.

    ``<layer>.s`` is self time in the traced pass; ``setup.<layer>.s`` the
    same in the traced set-up.  Layers a workload never enters read 0.
    """
    table = tracer.layer_table("pass")
    setup = tracer.layer_table("setup")
    out = {}
    for name, row in table.items():
        out[f"{name}.s"] = row["self_s"]
        out[f"{name}.calls"] = row["calls"]
    for name, row in setup.items():
        out[f"setup.{name}.s"] = row["self_s"]
    for stage, prefix in (("pass", ""), ("setup", "setup.")):
        classes = tracer.solve_classes(stage)
        out[f"{prefix}replay.record.s"] = sum(classes["record"])
        if stage == "pass":
            n = sum(len(v) for v in classes.values())
            out["replay.hit_ratio"] = len(classes["replay"]) / n if n else 0.0

    def count(layer: str, key: str):
        return table.get(layer, {}).get("counts", {}).get(key, 0)

    msgs = count("comm.simulator.run", "msgs")
    out["comm.simulator.msgs"] = msgs
    out["comm.simulator.bytes"] = count("comm.simulator.run", "bytes")
    out["comm.simulator.self_us_per_msg"] = (
        out.get("comm.simulator.run.s", 0.0) * 1e6 / msgs if msgs else 0.0)
    out["util.matmul_columns.flops"] = table.get(
        "util.matmul_columns", {}).get("work", 0)
    out["replay.program.instructions"] = count("replay.program.execute",
                                               "instructions")
    out["replay.tape.replay.ops"] = count("replay.tape.replay", "ops")
    out["analyze.extract.schedules"] = out.get("analyze.extract.calls", 0)
    out["analyze.extract.events"] = count("analyze.extract", "events")
    calls = out.get("planner.choose.calls", 0)
    new = counters.pop("planner.new_decisions", 0)
    out["planner.cache_hit_ratio"] = 1.0 - new / calls if calls else 0.0
    out.update(counters)
    out["trace.overhead_ratio"] = overhead
    out["trace.spans"] = tracer.count_spans("pass")
    out["trace.unattributed_share"] = (
        table["hostbench.pass"]["self_s"] / traced_wall)
    return out


def print_workload(detail: dict, spec: dict) -> None:
    """Every metric by name, with unit and clock, plus the spread lines."""
    name = detail["workload"]
    p25, p50, p75 = detail["pass_quartiles_s"]
    print(f"== {name}  (seed {detail['seed']}, {detail['passes']} passes x "
          f"{detail['ops_per_pass']} ops"
          f"{', quick' if detail['quick'] else ''}"
          f"{', traced' if detail['trace'] else ''})")
    for k, m in detail["metrics"].items():
        if spec["metrics"][k]["scope"] == "end_to_end":
            print(f"  {k:<26s} {m['value']:>14.6g} {m['unit']:<14s} "
                  f"[{spec['metrics'][k]['clock']}]")
    print(f"  set-up runs                "
          f"{' / '.join(f'{t:.3f}' for t in detail['setup_runs_s'])} s")
    print(f"  pass wall p25/p50/p75      {p25:.4f} / {p50:.4f} / {p75:.4f} s"
          f"   (n={detail['passes']}, spread {detail['pass_spread']:.3f}; "
          f"fastest call by call {detail['best_pass_s']:.4f} s)")
    top = detail["op_top"]
    tail = (f", p{top[0]} {top[1] * 1e3:.3f} ms" if top
            else " (too few calls for a tail percentile)")
    print(f"  per-call median            {detail['op_median_s'] * 1e3:.3f} ms"
          f"{tail}   (n={detail['op_calls']})")
    print(f"  ops attempted / failed     {detail['attempted']} / "
          f"{detail['failed']}")
    for msg in detail["failures"]:
        print(f"    FAILED {msg}")
    if "layers" in detail:
        print_layers(detail, spec)


def print_layers(detail: dict, spec: dict) -> None:
    for stage in ("setup", "pass"):
        wall = detail["stage_wall_s"][stage]
        print(f"  -- layers, traced {stage} (self time; share of the "
              f"{wall:.4f} s traced {stage} wall)")
        rows = sorted(detail["layers"][stage].items(),
                      key=lambda kv: -kv[1]["self_s"])
        for lname, row in rows:
            print(f"     {lname:<30s} {row['self_s']:>10.4f} s "
                  f"{row['self_s'] / wall:>7.1%}  calls {row['calls']}")
    print("  -- per-layer metrics")
    for k, m in detail["metrics"].items():
        if spec["metrics"][k]["scope"] != "end_to_end":
            print(f"     {k:<38s} {m['value']:>14.6g} {m['unit']}")
    for note in spec["interactions"]:
        print(f"  note: {note}")


# -- all workloads, one subprocess each ------------------------------------------


def host_info() -> dict:
    import numpy as np

    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):
        pass
    return {"hostname": platform.node(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "threads": int(os.environ["OMP_NUM_THREADS"])}


def run_child(name: str, args, trace: bool, out_dir: str) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "1" if trace else "0", "--out", out_dir]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    body = proc.stdout.rstrip("\n").rsplit("\n", 1)[0]
    print(body)
    tag = "traced" if trace else "run"
    path = os.path.join(out_dir, f"{tag}_{name}.json")
    if proc.returncode not in (0, 1) or not os.path.exists(path):
        raise SystemExit(f"hostbench: workload {name} died "
                         f"(exit {proc.returncode})")
    with open(path) as f:
        return json.load(f)


def run_all(spec: dict, args) -> int:
    os.makedirs(args.out, exist_ok=True)
    merged = {"host": host_info(), "seed": args.seed, "quick": args.quick,
              "seconds": args.seconds, "traced": bool(args.trace),
              "workloads": {}}
    failed = 0
    for name in spec["workloads"]:
        detail = run_child(name, args, False, args.out)
        if args.trace:
            traced = run_child(name, args, True, args.out)
            # End-to-end numbers always come from the untraced run.
            for k, m in traced["metrics"].items():
                if spec["metrics"][k]["scope"] != "end_to_end":
                    detail["metrics"][k] = m
            detail["layers"] = traced["layers"]
            failed += traced["failed"]
        failed += detail["failed"]
        merged["workloads"][name] = detail
    tag = "quick" if args.quick else "full"
    path = os.path.join(args.out, f"hostbench_{tag}_seed{args.seed}.json")
    with open(path, "w") as f:
        json.dump(merged, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"hostbench: wrote {os.path.relpath(path)}; "
          f"{failed} failed ops")
    return 1 if failed else 0


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(spec["workloads"]))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="scales the frozen pass counts by seconds / "
                         f"{spec['run_seconds']} (never adapted to speed)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--quick", action="store_true",
                    help="one pass over tiny inputs (smoke test)")
    ap.add_argument("--out", help="directory for result and trace files")
    args = ap.parse_args(argv)
    if not os.path.isdir(SRC):
        print(f"hostbench: the program under test is missing ({SRC})",
              file=sys.stderr)
        return 2
    if args.workload is None:
        args.out = args.out or DEFAULT_OUT
        return run_all(spec, args)

    detail = run_workload(spec, args.workload, args.seed, args.seconds,
                          bool(args.trace), args.quick)
    print_workload(detail, spec)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        spans = detail.pop("spans", None)
        tag = "traced" if args.trace else "run"
        with open(os.path.join(args.out, f"{tag}_{args.workload}.json"),
                  "w") as f:
            json.dump(detail, f, indent=1, sort_keys=True)
        if spans is not None:
            with open(os.path.join(args.out,
                                   f"trace_{args.workload}.json"), "w") as f:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "layers": detail["layers"], **spans}, f)
    # The driver's line: end-to-end metrics untraced, per-layer traced;
    # a per-layer metric this workload never touches reads 0.
    scope = "per_layer" if args.trace else "end_to_end"
    line = {k: detail["metrics"].get(k, {"value": 0, "unit": m["unit"]})
            for k, m in spec["metrics"].items() if m["driver"] == scope}
    print(json.dumps({"correct": detail["failed"] == 0,
                      "attempted": detail["attempted"],
                      "failed": detail["failed"], "metrics": line}))
    return 1 if detail["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
