"""Fleet benchmark: virtual throughput vs worker count on a Zipf stream.

Sweeps the size of a :class:`repro.fleet.FleetService` under a fixed
Zipf-skewed backlogged arrival stream over the full paper suite and
measures aggregate served throughput in *virtual* time.  The serving-tier
analogue of the paper's strong-scaling argument: consistent-hash routing
shards factorizations across workers, replication plus least-loaded
replica choice splits the hot fingerprints, and the fleet's makespan is
the slowest shard — so throughput should rise with worker count until
the Zipf head saturates its replica set.

Shape claims checked:
- throughput never regresses (within 5%) as the fleet grows 1 -> 8;
- the 4-worker fleet clears 2x the single worker's throughput on the
  same stream — recorded machine-readably in ``BENCH_fleet.json`` at the
  repo root and gated by ``tools/check_bench_regression.py`` in CI;
- the sweep is replay-deterministic: rerunning any point reproduces the
  same FleetReport byte-for-byte.
"""

import json
import os

import pytest

from common import SCALE, write_report

from repro.fleet import FleetConfig, FleetService
from repro.matrices import PAPER_MATRICES
from repro.serve import (
    BatchPolicy,
    ServiceConfig,
    WorkloadSpec,
    generate_bulk_workload,
    zipf_mix,
)

WORKER_COUNTS = [1, 2, 4, 8]
# tiny keeps the sweep fast at any REPRO_BENCH_SCALE; fleet routing and
# shard balance in virtual time are scale-free.
FLEET_SCALE = "tiny" if SCALE == "medium" else SCALE
N_REQUESTS = 192
RATE = 1e6        # always backlogged: isolates routing/sharding gain
ZIPF_S = 1.0
REPLICATION = 2
CFG = ServiceConfig(px=1, py=1, pz=4)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(ROOT, "BENCH_fleet.json")


def _workload():
    return generate_bulk_workload(WorkloadSpec(
        seed=42, rate=RATE, n_requests=N_REQUESTS, deadline=10.0,
        mix=zipf_mix(tuple(sorted(PAPER_MATRICES)), FLEET_SCALE, s=ZIPF_S)))


def _run(workers: int, wl):
    fs = FleetService(
        FleetConfig(workers=workers, replication=REPLICATION),
        CFG,
        BatchPolicy(max_batch=8, max_wait=1e-3, queue_bound=1024))
    return fs.run(wl)


def run_sweep():
    """Returns {workers: FleetResult} over one Zipf stream."""
    wl = _workload()
    return {w: _run(w, wl) for w in WORKER_COUNTS}


def test_fleet_throughput_vs_workers(benchmark):
    sweep = run_sweep()
    for w, res in sweep.items():
        assert res.slo.n_completed == N_REQUESTS, (
            f"{w}-worker fleet dropped requests")

    # Replay determinism at the headline point.
    again = _run(4, _workload())
    assert again.report.to_json() == sweep[4].report.to_json()

    thr = {w: sweep[w].slo.throughput for w in WORKER_COUNTS}
    scaling = thr[4] / thr[1]

    doc = {
        "benchmark": "fleet-scaling",
        "schema_version": 1,
        "generated_by": "benchmarks/bench_fleet.py::"
                        "test_fleet_throughput_vs_workers",
        "config": {
            "matrices": sorted(PAPER_MATRICES), "scale": FLEET_SCALE,
            "zipf_s": ZIPF_S, "replication": REPLICATION,
            "grid": "1x1x4", "machine": CFG.machine,
            "algorithm": CFG.algorithm, "max_supernode": CFG.max_supernode,
            "n_requests": N_REQUESTS, "rate": RATE,
        },
        "sweep": {},
    }
    for w in WORKER_COUNTS:
        slo = sweep[w].slo
        doc["sweep"][str(w)] = {
            "virtual_throughput_req_s": slo.throughput,
            "virtual_makespan_s": slo.makespan,
            "latency_p50_s": slo.latency_p50,
            "latency_p95_s": slo.latency_p95,
            "latency_p99_s": slo.latency_p99,
            "n_batches": slo.n_batches,
            "batch_mean": slo.batch_mean,
            "cache": {"hits": slo.cache_hits, "misses": slo.cache_misses,
                      "hit_rate": slo.cache_hit_rate},
            "scaling_vs_1": slo.throughput / thr[1],
        }
    doc["headline"] = {
        "workers": 4,
        "throughput_scaling": scaling,
        "acceptance_floor": 2.0,
    }
    with open(BENCH_JSON, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")

    rows = ["Fleet: virtual throughput vs worker count "
            f"(6-matrix Zipf s={ZIPF_S} stream at {FLEET_SCALE}, "
            f"replication {REPLICATION}, backlogged, grid 1x1x4)",
            f"{'workers':>8s} {'batches':>8s} {'req/s':>10s} "
            f"{'makespan ms':>12s} {'scaling':>8s}"]
    for w in WORKER_COUNTS:
        slo = sweep[w].slo
        rows.append(f"{w:8d} {slo.n_batches:8d} {slo.throughput:10.1f} "
                    f"{slo.makespan * 1e3:12.3f} {thr[w] / thr[1]:7.2f}x")

    from repro.perf.ascii_plot import ascii_line_chart

    rows.append("")
    rows.append(ascii_line_chart(
        {"req/s": [(w, thr[w]) for w in WORKER_COUNTS]},
        title="Fleet throughput vs workers (Zipf stream)",
        xlabel="workers", ylabel="req/s"))
    rows.append(f"wrote {os.path.relpath(BENCH_JSON, ROOT)} "
                f"(headline scaling {scaling:.2f}x at 4 workers)")
    write_report("fleet_scaling.txt", rows)

    # Monotone-ish growth, and the acceptance bar at 4 workers.
    for lo, hi in zip(WORKER_COUNTS, WORKER_COUNTS[1:]):
        assert thr[hi] >= 0.95 * thr[lo], (
            f"throughput regressed from {lo} to {hi} workers")
    assert scaling > 2.0, (
        f"4-worker scaling {scaling:.2f}x below the 2x acceptance floor")

    benchmark.pedantic(lambda: _run(4, _workload()), rounds=1, iterations=1)


def test_fleet_crash_recovery_cost(benchmark):
    """Mid-run crash of one worker: everything still completes, the
    detour shows up as bounded extra makespan, and the report replays."""
    from repro.comm.faults import FaultPlan, FaultSchedule

    wl = _workload()
    plain = _run(4, wl)
    t_mid = plain.slo.makespan / 2
    crash = FaultSchedule(((t_mid, plain.slo.makespan,
                            FaultPlan.uniform(seed=1, crash={1: t_mid})),))

    def crashed_run():
        fs = FleetService(
            FleetConfig(workers=4, replication=REPLICATION), CFG,
            BatchPolicy(max_batch=8, max_wait=1e-3, queue_bound=1024),
            crash_schedule=crash)
        return fs.run(wl)

    res = crashed_run()
    assert res.counters["n_crashes"] == 1
    assert res.slo.n_completed + res.slo.n_shed == N_REQUESTS
    assert res.report.to_json() == crashed_run().report.to_json()
    # Losing a quarter of the fleet mid-run costs, but boundedly so.
    assert res.slo.makespan <= 3.0 * plain.slo.makespan

    rows = ["Fleet: crash/recovery cost (4 workers, worker 1 down at "
            "half-makespan)",
            f"  plain   makespan {plain.slo.makespan * 1e3:8.3f} ms, "
            f"p95 {plain.slo.latency_p95 * 1e3:8.3f} ms",
            f"  crashed makespan {res.slo.makespan * 1e3:8.3f} ms, "
            f"p95 {res.slo.latency_p95 * 1e3:8.3f} ms, "
            f"{res.counters['n_rerouted']} re-routed"]
    write_report("fleet_crash.txt", rows)
    benchmark.pedantic(crashed_run, rounds=1, iterations=1)
