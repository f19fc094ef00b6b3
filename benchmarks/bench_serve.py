"""Serving benchmark: α-amortization through request batching.

Sweeps the batch-width cap of :class:`repro.serve.SolveService` under a
fixed Poisson arrival stream and measures served throughput.  Because the
distributed solve is latency (α) bound, a batch of ``k`` coalesced
right-hand sides pays each per-message α once instead of ``k`` times, so
throughput should rise with the cap until the per-flop β/compute term
takes over — the serving-tier analogue of the paper's multi-RHS
amortization argument.

Shape claims checked:
- throughput strictly improves from max-batch 1 to the largest cap;
- per-request virtual service time (server busy time / completed) falls
  monotonically-ish (within 5% noise) as the cap grows;
- a mixed-matrix stream gets a nonzero factorization-cache hit rate and
  its cache-hit answers are bit-identical to cold per-request solves;
- the compiled schedule-replay path serves a warm backlogged stream >= 5x
  faster (host wall-clock) than the simulated path at max-batch 16, with
  byte-identical virtual-time SLO reports — recorded machine-readably in
  ``BENCH_serve.json`` at the repo root and gated by
  ``tools/check_bench_regression.py`` in CI.
"""

import json
import os
import time

import numpy as np
import pytest

from common import SCALE, write_report

from repro.serve import (
    BatchPolicy,
    ServiceConfig,
    SolveService,
    WorkloadSpec,
    generate_workload,
)

BATCH_CAPS = [1, 2, 4, 8, 16]
# tiny keeps the sweep fast at any REPRO_BENCH_SCALE; the serving tier's
# virtual-time behaviour (batch formation, amortization) is scale-free.
SERVE_SCALE = "tiny" if SCALE == "medium" else SCALE
N_REQUESTS = 48
RATE = 1e6        # effectively "always backlogged": isolates batching gain
CFG = ServiceConfig(px=1, py=1, pz=4)
# Machine-readable trajectory artifact, checked in at the repo root and
# regression-gated in CI (tools/check_bench_regression.py).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(ROOT, "BENCH_serve.json")


def run_sweep():
    """Returns {cap: (throughput, busy_per_req, slo)} over one stream."""
    wl = generate_workload(WorkloadSpec(
        seed=42, rate=RATE, n_requests=N_REQUESTS, deadline=10.0,
        mix=(("s2D9pt2048", SERVE_SCALE, 1.0),)))
    out = {}
    for cap in BATCH_CAPS:
        svc = SolveService(CFG, BatchPolicy(max_batch=cap, max_wait=1e-3,
                                            queue_bound=4 * N_REQUESTS),
                           keep_solutions=False)
        slo = svc.run(wl).slo
        assert slo.n_completed == N_REQUESTS
        busy = (slo.setup_time + slo.solve_time) / slo.n_completed
        out[cap] = (slo.throughput, busy, slo)
    return out


def test_serve_throughput_vs_batch(benchmark):
    sweep = run_sweep()
    rows = ["Serving: throughput vs batch-width cap "
            f"(s2D9pt2048/{SERVE_SCALE}, backlogged stream, "
            "grid 1x1x4, Cori model)",
            f"{'cap':>4s} {'batches':>8s} {'mean width':>10s} "
            f"{'req/s':>10s} {'busy/req':>12s}"]
    for cap in BATCH_CAPS:
        thr, busy, slo = sweep[cap]
        rows.append(f"{cap:4d} {slo.n_batches:8d} {slo.batch_mean:10.2f} "
                    f"{thr:10.1f} {busy * 1e6:9.2f} us")

    from repro.perf.ascii_plot import ascii_line_chart

    rows.append("")
    rows.append(ascii_line_chart(
        {"req/s": [(cap, sweep[cap][0]) for cap in BATCH_CAPS]},
        title="Serving throughput vs max-batch (alpha amortization)",
        xlabel="max-batch", ylabel="req/s"))
    write_report("serve_batch_sweep.txt", rows)

    # α-amortization: wider batches serve strictly more requests per second.
    assert sweep[BATCH_CAPS[-1]][0] > sweep[1][0]
    for lo, hi in zip(BATCH_CAPS, BATCH_CAPS[1:]):
        assert sweep[hi][0] >= 0.95 * sweep[lo][0], (
            f"throughput regressed from cap {lo} to {hi}")
        assert sweep[hi][1] <= 1.05 * sweep[lo][1], (
            f"per-request busy time grew from cap {lo} to {hi}")

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)


def test_serve_cache_and_bit_identity(benchmark):
    """Mixed-matrix stream: cache hit rate > 0, hits bit-identical to cold."""
    wl = generate_workload(WorkloadSpec(
        seed=7, rate=5000.0, n_requests=24, deadline=10.0,
        mix=(("s2D9pt2048", SERVE_SCALE, 2.0),
             ("nlpkkt80", SERVE_SCALE, 1.0))))
    svc = SolveService(CFG, BatchPolicy(max_batch=4, max_wait=1e-3))
    res = svc.run(wl)
    slo = res.slo
    assert slo.n_completed == len(wl)
    assert slo.cache_hit_rate > 0
    assert slo.cache_misses == 2      # one factorization per matrix

    cold = {}
    mism = 0
    for r in wl.requests:
        key = (r.matrix, r.scale)
        if key not in cold:
            cold[key] = SolveService(CFG)._build_solver(*key)
        x = cold[key].solve(r.rhs(cold[key].n)).x
        mism += not np.array_equal(res.solutions[r.id], x.ravel())
    assert mism == 0, f"{mism} served answers differ from cold solves"

    rows = ["Serving: factorization cache on a mixed stream "
            f"(2:1 s2D9pt2048:nlpkkt80, {SERVE_SCALE})",
            f"  requests {slo.n_requests}, batches {slo.n_batches}, "
            f"hit rate {100 * slo.cache_hit_rate:.1f}%",
            f"  resident {slo.cache_resident_bytes} B "
            f"(peak {slo.cache_peak_bytes} B), evictions "
            f"{slo.cache_evictions}",
            "  served answers bit-identical to cold per-request solves: "
            f"{slo.n_completed}/{slo.n_completed}"]
    write_report("serve_cache.txt", rows)
    benchmark.pedantic(lambda: SolveService(
        CFG, BatchPolicy(max_batch=4, max_wait=1e-3),
        keep_solutions=False).run(wl), rounds=1, iterations=1)


def _steady_state(cap: int, replay: bool, wl):
    """One warmed, wall-timed serve of the backlogged stream.

    The warm-up run pays factorization (and, on the replay leg, the one
    recording solve per batch width) so the timed run measures the steady
    state a long-lived server actually operates in: every batch a cache
    hit, the replay leg executing only compiled programs.
    """
    svc = SolveService(ServiceConfig(px=1, py=1, pz=4, replay=replay),
                       BatchPolicy(max_batch=cap, max_wait=1e-3,
                                   queue_bound=4 * N_REQUESTS),
                       keep_solutions=False)
    svc.run(wl)
    t0 = time.perf_counter()
    res = svc.run(wl)
    wall = time.perf_counter() - t0
    return res, wall


def test_serve_replay_fast_path(benchmark):
    """Replay-vs-simulated wall-clock sweep; emits ``BENCH_serve.json``.

    Virtual time is bit-identical between the two legs by construction
    (the tape engine copies validated clocks), so the SLO reports must
    match byte-for-byte modulo the ``n_replayed`` counter; the *only*
    axis on which replay can win is host wall-clock, which is what the
    paper's "compile the schedule once" argument is about.
    """
    wl = generate_workload(WorkloadSpec(
        seed=42, rate=RATE, n_requests=N_REQUESTS, deadline=10.0,
        mix=(("s2D9pt2048", SERVE_SCALE, 1.0),)))
    sweep = {}
    for cap in BATCH_CAPS:
        sim_res, sim_wall = _steady_state(cap, replay=False, wl=wl)
        rep_res, rep_wall = _steady_state(cap, replay=True, wl=wl)
        assert sim_res.slo.n_completed == N_REQUESTS
        assert rep_res.slo.n_replayed == rep_res.slo.n_batches
        assert sim_res.slo.n_replayed == 0
        # Virtual-time SLO bit-equality: replay changes nothing observable
        # in the modeled system, only how fast the host produces it.
        sim_doc = json.loads(sim_res.slo.to_json())
        rep_doc = json.loads(rep_res.slo.to_json())
        sim_doc.pop("n_replayed"), rep_doc.pop("n_replayed")
        assert sim_doc == rep_doc, f"virtual SLO diverged at cap {cap}"
        sweep[cap] = (sim_res.slo, sim_wall, rep_wall)

    doc = {
        "benchmark": "serve-replay",
        "schema_version": 1,
        "generated_by": "benchmarks/bench_serve.py::test_serve_replay_fast_path",
        "config": {
            "matrix": "s2D9pt2048", "scale": SERVE_SCALE,
            "grid": "1x1x4", "machine": CFG.machine,
            "algorithm": CFG.algorithm, "max_supernode": CFG.max_supernode,
            "n_requests": N_REQUESTS, "rate": RATE,
            "steady_state": True,
        },
        "sweep": {},
    }
    for cap, (slo, sim_wall, rep_wall) in sweep.items():
        doc["sweep"][str(cap)] = {
            "virtual_throughput_req_s": slo.throughput,
            "virtual_makespan_s": slo.makespan,
            "latency_p50_s": slo.latency_p50,
            "latency_p95_s": slo.latency_p95,
            "latency_p99_s": slo.latency_p99,
            "n_batches": slo.n_batches,
            "batch_mean": slo.batch_mean,
            "cache": {"hits": slo.cache_hits, "misses": slo.cache_misses,
                      "hit_rate": slo.cache_hit_rate},
            "simulated": {"wall_s": sim_wall,
                          "wall_throughput_req_s": N_REQUESTS / sim_wall},
            "replay": {"wall_s": rep_wall,
                       "wall_throughput_req_s": N_REQUESTS / rep_wall},
            "replay_speedup": sim_wall / rep_wall,
        }
    top = BATCH_CAPS[-1]
    doc["headline"] = {
        "max_batch": top,
        "replay_speedup": sweep[top][1] / sweep[top][2],
        "acceptance_floor": 5.0,
    }
    with open(BENCH_JSON, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")

    rows = ["Serving: compiled schedule replay vs simulated path "
            f"(s2D9pt2048/{SERVE_SCALE}, warm backlogged stream, "
            "grid 1x1x4, wall-clock)",
            f"{'cap':>4s} {'sim ms':>10s} {'replay ms':>10s} "
            f"{'speedup':>8s} {'virtual req/s':>14s}"]
    for cap, (slo, sim_wall, rep_wall) in sweep.items():
        rows.append(f"{cap:4d} {sim_wall * 1e3:10.1f} {rep_wall * 1e3:10.1f} "
                    f"{sim_wall / rep_wall:7.2f}x {slo.throughput:14.1f}")
    rows.append("")
    rows.append(f"wrote {os.path.relpath(BENCH_JSON, ROOT)} "
                f"(headline speedup {doc['headline']['replay_speedup']:.2f}x "
                f"at max-batch {top})")
    write_report("serve_replay.txt", rows)

    # Acceptance: the compiled path is >= 5x the simulated path at the
    # widest cap (where the arena executor amortizes best).
    assert doc["headline"]["replay_speedup"] >= 5.0, (
        f"replay speedup {doc['headline']['replay_speedup']:.2f}x below the "
        f"5x acceptance floor at max-batch {top}")

    benchmark.pedantic(lambda: _steady_state(top, replay=True, wl=wl),
                       rounds=1, iterations=1)
