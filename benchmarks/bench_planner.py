"""Planner benchmark: the cost model's picks against measured virtual times.

Sweeps (matrix x grid) points over every CPU backend the planner prices
(``repro.planner.candidates``), measures each candidate's virtual solve
time in the simulator, and scores the planner's cached pick against the
measured best.  The artifact's headline is the *hit rate* — the fraction
of sweep points where the pick's measured time is within 10% of the
measured best — recorded machine-readably in ``BENCH_planner.json`` at
the repo root and gated by ``tools/check_bench_regression.py`` in CI
(acceptance floor: 0.9).

Shape claims checked:
- the planner's pick is within 10% of measured-best on >= 90% of points;
- ``algorithm="auto"`` resolves to the same pick the benchmark's own
  planner computes (one shared cost model, no dispatch drift);
- the decision log is deterministic: re-planning any point reproduces
  the same Decision summary byte-for-byte.
"""

import json
import os

from common import CORI_HASWELL, SCALE, get_solver, rhs_for, write_report

from repro.matrices import matrix_fingerprint
from repro.planner import Planner, candidates

# Decisions and virtual times are deterministic at any scale; tiny keeps
# the 5-candidate x 12-point sweep fast, and matches the CI gate.
PLANNER_SCALE = "tiny" if SCALE == "medium" else SCALE
MATRICES = ["s2D9pt2048", "nlpkkt80", "ldoor"]
GRIDS = [(2, 2, 1), (2, 1, 2), (2, 2, 2), (1, 2, 4)]
NRHS = 4
HIT_TOL = 0.10          # "within 10% of measured best"
ACCEPTANCE_FLOOR = 0.9  # on >= 90% of the sweep
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(ROOT, "BENCH_planner.json")


def _measure_point(name, grid, planner):
    """Plan one (matrix, grid) point and measure every candidate."""
    px, py, pz = grid
    solver = get_solver(name, px, py, pz, scale=PLANNER_SCALE)
    d = planner.choose(solver, nrhs=NRHS)
    b = rhs_for(solver, NRHS)
    measured = {alg: solver.solve(b, algorithm=alg).report.total_time
                for alg in candidates(solver)}
    return solver, d, measured


def test_planner_pick_vs_measured(benchmark):
    planner = Planner()
    points = {}
    hits = 0
    for name in MATRICES:
        for grid in GRIDS:
            solver, d, measured = _measure_point(name, grid, planner)
            best = min(measured, key=measured.get)
            ratio = measured[d.algorithm] / measured[best]
            within = ratio <= 1.0 + HIT_TOL
            hits += within

            # auto dispatches through the same cost model: the solve's
            # resolved algorithm must equal this planner's pick.
            out = solver.solve(b=rhs_for(solver, NRHS), algorithm="auto")
            assert out.report.algorithm == d.algorithm, (
                f"auto diverged from the planner at {name} {grid}")

            key = f"{name}/{grid[0]}x{grid[1]}x{grid[2]}"
            points[key] = {
                "fingerprint": matrix_fingerprint(solver.A).hexdigest[:12],
                "pick": d.algorithm,
                "measured_best": best,
                "measured_best_s": measured[best],
                "measured_pick_s": measured[d.algorithm],
                "pick_over_best": ratio,
                "within_tol": bool(within),
                "predicted_s": dict(sorted(d.predicted.items())),
                "measured_s": dict(sorted(measured.items())),
            }

    n_points = len(points)
    hit_rate = hits / n_points

    # Determinism: re-planning the first point from a fresh planner
    # reproduces the same decision summary byte-for-byte.
    s0, d0, _ = _measure_point(MATRICES[0], GRIDS[0], Planner())
    assert d0.summary() == planner.choose(s0, nrhs=NRHS).summary()

    doc = {
        "benchmark": "planner-accuracy",
        "schema_version": 1,
        "generated_by": "benchmarks/bench_planner.py::"
                        "test_planner_pick_vs_measured",
        "config": {
            "matrices": MATRICES, "scale": PLANNER_SCALE,
            "grids": [f"{px}x{py}x{pz}" for px, py, pz in GRIDS],
            "machine": CORI_HASWELL.name, "nrhs": NRHS,
            "hit_tolerance": HIT_TOL,
        },
        "sweep": points,
        "headline": {
            "points": n_points,
            "planner_hit_rate": hit_rate,
            "acceptance_floor": ACCEPTANCE_FLOOR,
        },
    }
    with open(BENCH_JSON, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")

    rows = [f"Planner: cost-model picks vs measured virtual times "
            f"({len(MATRICES)} matrices x {len(GRIDS)} grids at "
            f"{PLANNER_SCALE}, nrhs={NRHS}, {CORI_HASWELL.name})",
            f"{'point':>24s} {'pick':>20s} {'best':>20s} "
            f"{'pick/best':>10s}"]
    for key, pt in points.items():
        flag = "" if pt["within_tol"] else "  MISS"
        rows.append(f"{key:>24s} {pt['pick']:>20s} "
                    f"{pt['measured_best']:>20s} "
                    f"{pt['pick_over_best']:9.4f}x{flag}")
    rows.append(f"wrote {os.path.relpath(BENCH_JSON, ROOT)} "
                f"(hit rate {hit_rate:.2f} over {n_points} points, "
                f"floor {ACCEPTANCE_FLOOR})")
    write_report("planner_sweep.txt", rows)

    assert hit_rate >= ACCEPTANCE_FLOOR, (
        f"planner hit rate {hit_rate:.2f} below the "
        f"{ACCEPTANCE_FLOOR} acceptance floor")

    benchmark.pedantic(
        lambda: _measure_point(MATRICES[0], GRIDS[1], Planner()),
        rounds=1, iterations=1)
