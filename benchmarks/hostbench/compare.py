"""Compare two hostbench result files, metric by metric.

    python3 benchmarks/hostbench/compare.py A.json B.json

``A`` is the base (the parent commit, or the first of two runs of one
commit), ``B`` the candidate; both are ``hostbench_*.json`` files written
by ``run.py``.  One row per workload x metric, with both values and the
ratio ``B/A``.  Each metric is judged by the rule ``spec.json`` gives it:

- ``exact`` (every ``virtual_*`` metric, every deterministic count): any
  difference is ``CHANGED`` — a host-side change must not move the
  modelled machine;
- ``absolute`` (``failed_ops_share``): any rise is ``REGRESSED``;
- ``relative`` (host clock): worse by more than the metric's bound is
  ``REGRESSED``; within the bound is ``unchanged`` — or ``unresolved``
  when the spread between passes (or set-ups) of either run is itself
  wider than the bound, because then the runs cannot tell.

Exit code 1 when any row is ``CHANGED`` or ``REGRESSED``.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread_of(detail: dict, metric: str) -> float:
    """Relative spread of the samples behind a host metric in one run."""
    if metric == "host_ops_per_s":
        return detail["pass_spread"]
    if metric == "setup_s":
        runs = detail["setup_runs_s"]
        return (max(runs) - min(runs)) / min(runs)
    return 0.0


def judge(rule: dict, a: float, b: float, spread: float) -> str:
    if rule["compare"] == "exact":
        return "same" if a == b else "CHANGED"
    if rule["compare"] == "absolute":
        return "REGRESSED" if b > a else "same"
    bound = rule.get("bound")
    if bound is None or a == 0:
        return "-"                  # per-layer host time: shown, not judged
    worse = (b - a) / a if rule["better"] == "lower" else (a - b) / a
    if worse > bound:
        return "REGRESSED"
    if spread > bound:
        return "unresolved"
    return "improved" if worse < -bound else "unchanged"


def compare(a: dict, b: dict, spec: dict) -> tuple[list[tuple], int]:
    rows, bad = [], 0
    for name, wspec in spec["workloads"].items():
        da, db = a["workloads"].get(name), b["workloads"].get(name)
        if da is None or db is None:
            rows.append((name, "(workload)", "", "", "", "MISSING"))
            bad += 1
            continue
        ma, mb = da["metrics"], db["metrics"]
        # End-to-end metrics the workload declares, then every per-layer
        # metric both runs traced.
        names = list(wspec["metrics"]) + [
            k for k in spec["metrics"]
            if k not in wspec["metrics"] and k in ma and k in mb
            and spec["metrics"][k]["scope"] == "per_layer"]
        for k in names:
            if k not in ma or k not in mb:
                rows.append((name, k, "", "", "", "MISSING"))
                bad += 1
                continue
            va, vb = ma[k]["value"], mb[k]["value"]
            spread = max(spread_of(da, k), spread_of(db, k))
            verdict = judge(spec["metrics"][k], va, vb, spread)
            bad += verdict in ("CHANGED", "REGRESSED")
            ratio = f"{vb / va:.4f}" if va else "-"
            rows.append((name, k, f"{va:.6g}", f"{vb:.6g}", ratio, verdict))
    return rows, bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    docs = []
    for path in argv:
        with open(path) as f:
            docs.append(json.load(f))
    a, b = docs
    if (a["seed"], a["quick"]) != (b["seed"], b["quick"]):
        print("hostbench compare: the runs differ in seed or mode; exact "
              "metrics are only comparable at equal inputs", file=sys.stderr)
        return 2
    rows, bad = compare(a, b, spec)
    print(f"{'workload':<14s} {'metric':<34s} {'A (base)':>13s} "
          f"{'B':>13s} {'B/A':>8s}  verdict")
    for name, k, va, vb, ratio, verdict in rows:
        print(f"{name:<14s} {k:<34s} {va:>13s} {vb:>13s} {ratio:>8s}  "
              f"{verdict}")
    print(f"hostbench compare: {bad} regressed or changed "
          f"of {len(rows)} rows")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
