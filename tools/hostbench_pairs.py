"""Measure a host-clock change as alternating parent/change pairs.

    python3 tools/hostbench_pairs.py PARENT_REF [--pairs 10] [--workload W ...]
        [--declared METRIC@WORKLOAD ...]

The procedure ROADMAP's ground rules and the choosing-metrics guide (§6,
§8) demand, as one command.  ``PARENT_REF`` is exported with ``git
archive`` into a temporary directory; the change is the working tree this
script sits in.  For every workload, ``--pairs`` times, both sides run

    benchmarks/hostbench/run.py --workload W --seed s --seconds 5 --trace 0

with a fresh seed per pair and the order flipped each pair.  Per
``metric@workload`` it prints both medians and quartiles, wins/pairs and a
verdict (see :func:`verdict`).  ``--trace 0`` reports only the three host
metrics, so one ``--trace 1`` run per side checks the rest: every metric
``spec.json`` compares ``exact`` (all ``virtual_*`` values, every
deterministic count) must be equal.

Exit code 1 when a metric regressed beyond its bound, an exact metric
differs, or the change fails more operations than the parent.  A change
that moves a count on purpose names it beforehand with ``--declared
METRIC@WORKLOAD`` (repeatable): that row prints as ``moved (declared)``
instead of failing; every other exact row must still be equal.  This tool
reads hostbench; it never edits it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("benchmarks", "hostbench", "run.py")


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(parent, change, better: str, bound: float) -> tuple[str, int]:
    """Judge paired samples of one metric; returns ``(verdict, wins)``.

    - ``gain``: the change wins at least nine tenths of the pairs (ties
      count for neither side) and the medians differ, in the better
      direction, by more than the parent's inter-quartile distance;
    - ``REGRESSED``: the change's median is worse by more than ``bound``;
    - ``unresolved``: the parent's own quartile spread is wider than
      ``bound`` so the runs cannot tell — unless every run of the change
      beats every run of the parent;
    - ``no worse`` otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p25, p50, p75 = quartiles(parent)
    gap = sign * (statistics.median(change) - p50)
    if wins >= 0.9 * len(parent) and gap > p75 - p25:
        return "gain", wins
    if p50 and -gap / p50 > bound:
        return "REGRESSED", wins
    clean = all(sign * (c - p) > 0 for c in change for p in parent)
    if p50 and (p75 - p25) / p50 > bound and not clean:
        return "unresolved", wins
    return "no worse", wins


def exact_row(name: str, a, b, declared=()) -> tuple[str | None, bool]:
    """Judge one ``compare: exact`` row ``METRIC@WORKLOAD`` of the traced
    runs; returns ``(line to print or None, fails)``.  A row that differs
    fails unless the change named it in ``declared`` beforehand."""
    if a == b:
        return None, False
    if name in declared:
        return f"{name}: moved (declared) {a!r} -> {b!r}", False
    return f"{name}: CHANGED (exact), parent {a!r} -> change {b!r}", True


def run_once(root: str, workload: str, seed: int, trace: int) -> dict:
    """One hostbench run in ``root``; the driver's last-line JSON."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "5", "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, text=True)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"hostbench died in {root} on {workload} "
                         f"(exit {proc.returncode})")
    return json.loads(proc.stdout.rstrip("\n").rsplit("\n", 1)[-1])


def measure(w: str, sides: dict, spec: dict, pairs: int, seed: int,
            declared=()) -> int:
    """All pairs and the traced check of one workload; prints its rows and
    returns the number of failures (regressions, exact rows that moved,
    a rise in failed ops)."""
    host = {k: m for k, m in spec["metrics"].items()
            if m["driver"] == "end_to_end"}
    samples = {s: {k: [] for k in host} for s in sides}
    failed = dict.fromkeys(sides, 0)
    for i in range(pairs):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for s in order:
            out = run_once(sides[s], w, seed + i, trace=0)
            failed[s] += out["failed"]
            for k in host:
                samples[s][k].append(out["metrics"][k]["value"])
        print(f"  pair {i + 1}/{pairs} of {w} (seed {seed + i}, "
              f"{order[0]} first): " + ", ".join(
                  f"{k} {samples['parent'][k][-1]:.4g} -> "
                  f"{samples['change'][k][-1]:.4g}" for k in host),
              flush=True)
    bad = 0
    for k, m in host.items():
        v, wins = verdict(samples["parent"][k], samples["change"][k],
                          m["better"], m["bound"])
        bad += v == "REGRESSED"
        q = {s: quartiles(samples[s][k]) for s in sides}
        print(f"{k}@{w} [{m['unit']}, {m['better']} is better]: "
              + "; ".join(f"{s} median {q[s][1]:.4g} (quartiles "
                          f"{q[s][0]:.4g}-{q[s][2]:.4g})" for s in sides)
              + f"; change wins {wins}/{pairs}; {v}", flush=True)
    if failed["change"] > failed["parent"]:
        bad += 1
        print(f"failed@{w}: FAILED OPS ROSE, parent {failed['parent']} -> "
              f"change {failed['change']}")

    traced = {s: run_once(sides[s], w, seed, trace=1)["metrics"]
              for s in sides}
    exact = moved = 0
    for k, m in spec["metrics"].items():
        if m["driver"] != "per_layer":
            continue
        a, b = (traced[s][k]["value"] for s in sides)
        if m["compare"] == "exact":
            exact += 1
            line, failed = exact_row(f"{k}@{w}", a, b, declared)
            moved += failed
            if line:
                print(line)
        elif m["compare"] == "relative" and a and not 0.8 <= b / a <= 1.25:
            # Where the host time went: layer rows that moved by a fifth.
            print(f"  traced {k}@{w}: {a:.4g} -> {b:.4g} {m['unit']} "
                  f"(x{b / a:.2f})")
    print(f"exact@{w}: {exact - moved}/{exact} exact metrics equal (or "
          f"declared to move) in the traced runs", flush=True)
    return bad + moved


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "benchmarks", "hostbench", "spec.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_ref")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    choices=list(spec["workloads"]))
    ap.add_argument("--seed", type=int, default=100,
                    help="seed of the first pair (pair i runs seed + i)")
    ap.add_argument("--declared", action="append", default=[],
                    metavar="METRIC@WORKLOAD",
                    help="an exact row this change moves on purpose: "
                         "printed as moved, not failed (repeatable)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="hostbench-parent-") as parent:
        archive = subprocess.run(["git", "archive", args.parent_ref],
                                 cwd=ROOT, stdout=subprocess.PIPE, check=True)
        subprocess.run(["tar", "-x", "-C", parent], input=archive.stdout,
                       check=True)
        sides = {"parent": parent, "change": ROOT}
        bad = sum(measure(w, sides, spec, args.pairs, args.seed,
                          args.declared)
                  for w in args.workload or spec["workloads"])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
