"""Tests for ``repro.fleet`` — ring, fleet service, autoscaler, reports.

The headline properties pinned here:

- a 1-worker fleet is *bit-identical* to a bare ``SolveService`` on the
  same workload (same SLO JSON, same solutions);
- every fleet run — including crash/recovery and autoscaled runs — folds
  into a byte-identical ``FleetReport`` when replayed from the seed;
- the consistent-hash ring remaps at most the expected key fraction when
  workers join or leave, and replication spreads a hot fingerprint over
  distinct workers.
"""

import json

import numpy as np
import pytest

from repro.check import check_fleet
from repro.comm.faults import FaultPlan, FaultSchedule
from repro.fleet import (
    Autoscaler,
    AutoscalerPolicy,
    FleetConfig,
    FleetService,
    HashRing,
    crash_windows,
)
from repro.serve import (
    BatchPolicy,
    Request,
    ServiceConfig,
    SolveService,
    Workload,
    WorkloadSpec,
    generate_bulk_workload,
    generate_workload,
    zipf_mix,
)
from repro.serve.cache import CacheKey

GRID = dict(px=1, py=1, pz=2)


def _workload(n=24, rate=1e6, seed=0, s=1.0,
              matrices=("s2D9pt2048", "nlpkkt80", "ldoor")):
    return generate_workload(WorkloadSpec(
        seed=seed, rate=rate, n_requests=n,
        mix=zipf_mix(matrices, "tiny", s=s), deadline=0.1))


def _fleet(workers=3, crash=None, autoscaler=None, **kw):
    return FleetService(
        FleetConfig(workers=workers, **kw),
        ServiceConfig(**GRID),
        BatchPolicy(max_batch=4, max_wait=1e-3, queue_bound=64),
        crash_schedule=crash, autoscaler=autoscaler, invariants=True)


# ---------------------------------------------------------------- ring


def test_ring_routes_to_known_workers():
    ring = HashRing(range(4))
    assert ring.workers == (0, 1, 2, 3)
    assert len(ring) == 4
    for key in ("a", "b", "c", "spTRSV"):
        assert ring.owner(key) in ring.workers


def test_ring_route_replication_distinct_workers():
    ring = HashRing(range(5))
    owners = ring.route("hot-matrix", n=3)
    assert len(owners) == 3
    assert len(set(owners)) == 3
    # n larger than the fleet degrades to every worker, once each.
    assert sorted(ring.route("k", n=99)) == [0, 1, 2, 3, 4]


def test_ring_add_remove_remap_bound():
    """Adding / removing one of W workers remaps ~1/W of the keys."""
    keys = [f"key-{i}" for i in range(2000)]
    ring = HashRing(range(8), vnodes=64)
    before = {k: ring.owner(k) for k in keys}

    ring.add(8)
    after = {k: ring.owner(k) for k in keys}
    moved = sum(1 for k in keys if before[k] != after[k])
    # Expected 1/9 of keys move; allow 2x headroom for hash variance.
    assert moved <= 2 * len(keys) / 9
    # Every key that moved, moved *to* the new worker — nothing else
    # reshuffles under consistent hashing.
    assert all(after[k] == 8 for k in keys if before[k] != after[k])

    ring.remove(8)
    assert {k: ring.owner(k) for k in keys} == before


def test_ring_stable_under_reseed():
    """Same seed => same placement; different seed => different ring."""
    keys = [f"m{i}" for i in range(500)]
    a = HashRing(range(4), seed=7)
    b = HashRing(range(4), seed=7)
    c = HashRing(range(4), seed=8)
    assert [a.owner(k) for k in keys] == [b.owner(k) for k in keys]
    assert [a.owner(k) for k in keys] != [c.owner(k) for k in keys]


def test_ring_edge_cases():
    ring = HashRing()
    assert ring.route("k") == ()
    ring.add(3)
    assert ring.owner("anything") == 3
    assert 3 in ring
    with pytest.raises(ValueError):
        ring.add(3)
    with pytest.raises(ValueError):
        ring.remove(5)
    with pytest.raises(ValueError):
        HashRing(vnodes=0)


# ----------------------------------------------------- workload: zipf


def test_zipf_mix_weights():
    mix = zipf_mix(("a", "b", "c"), "tiny", s=1.0)
    assert [m[0] for m in mix] == ["a", "b", "c"]
    assert [m[2] for m in mix] == [1.0, 0.5, pytest.approx(1 / 3)]
    flat = zipf_mix(("a", "b"), "tiny", s=0.0)
    assert [m[2] for m in flat] == [1.0, 1.0]
    with pytest.raises(ValueError):
        zipf_mix((), "tiny")
    with pytest.raises(ValueError):
        zipf_mix(("a",), "tiny", s=-1.0)


def test_bulk_workload_seeded_determinism():
    spec = WorkloadSpec(seed=11, rate=5e4, n_requests=4000,
                        mix=zipf_mix(("a", "b", "c", "d"), "tiny", s=1.0),
                        deadline=0.05)
    w1, w2 = generate_bulk_workload(spec), generate_bulk_workload(spec)
    assert w1.to_json() == w2.to_json()
    assert len(w1) == 4000
    assert w1.meta["generator"] == "bulk"
    # Zipf skew shows: the rank-0 matrix dominates the draw.
    counts = {}
    for r in w1.requests:
        counts[r.matrix] = counts.get(r.matrix, 0) + 1
    assert counts["a"] > counts["b"] > counts["d"]
    # Arrivals are sorted and strictly positive.
    arr = [r.arrival for r in w1.requests]
    assert arr == sorted(arr) and arr[0] > 0


def test_bulk_workload_scales_to_millions():
    spec = WorkloadSpec(seed=3, rate=1e6, n_requests=1_000_000,
                        mix=zipf_mix(("a", "b"), "tiny"), deadline=0.05)
    wl = generate_bulk_workload(spec)
    assert len(wl) == 1_000_000
    assert wl.requests[-1].id == 999_999


def test_scalar_generator_unchanged_by_bulk_path():
    """generate_workload's draw order must not change (replay compat)."""
    spec = WorkloadSpec(seed=5, rate=2000.0, n_requests=8,
                        mix=(("a", "tiny", 1.0),), deadline=0.1)
    wl = generate_workload(spec)
    rng = np.random.default_rng(5)
    gaps = [rng.exponential(1 / 2000.0) for _ in range(8)]
    assert wl.requests[0].arrival == pytest.approx(gaps[0])


# -------------------------------------------------- fleet: 1-worker parity


def test_single_worker_fleet_matches_solveservice():
    wl = _workload(n=24)
    svc = SolveService(ServiceConfig(**GRID),
                       BatchPolicy(max_batch=4, max_wait=1e-3,
                                   queue_bound=64),
                       keep_solutions=True)
    ref = svc.run(wl)
    fs = FleetService(FleetConfig(workers=1), ServiceConfig(**GRID),
                      BatchPolicy(max_batch=4, max_wait=1e-3,
                                  queue_bound=64),
                      keep_solutions=True, invariants=True)
    res = fs.run(wl)
    assert res.workers[0].slo.to_json() == ref.slo.to_json()
    assert res.slo.to_json() == ref.slo.to_json()
    assert set(res.solutions) == set(ref.solutions)
    for rid, x in ref.solutions.items():
        assert np.array_equal(res.solutions[rid], x)


# ----------------------------------------------------- fleet: sharding


def test_fleet_shards_by_fingerprint():
    wl = _workload(n=30)
    fs = _fleet(workers=3)
    res = fs.run(wl)
    assert res.slo.n_completed + res.slo.n_shed == len(wl)
    # Same matrix always lands on the same worker (replication=1).
    where = {}
    for i, w in res.workers.items():
        for c in fs.workers[i].res.completions:
            where.setdefault(c.request.matrix, set()).add(i)
    assert all(len(s) == 1 for s in where.values())
    assert check_fleet(wl, res, service=fs) > 0


def test_fleet_replication_spreads_hot_matrix():
    wl = _workload(n=40, s=8.0)   # essentially one hot matrix
    fs = _fleet(workers=4, replication=2)
    res = fs.run(wl)
    hot = max(((r.matrix, r.scale) for r in wl.requests),
              key=[r.matrix for r in wl.requests].count)
    served = {i for i, w in fs.workers.items()
              for c in w.res.completions if c.request.matrix == hot[0]}
    assert len(served) == 2
    assert res.slo.n_completed + res.slo.n_shed == len(wl)


def _solvers_by_key(fs) -> dict:
    """CacheKey -> ids of the solver objects the live caches hold."""
    out: dict = {}
    for ws in fs.workers.values():
        for key, entry in ws.svc.cache._entries.items():
            out.setdefault(key, set()).add(id(entry.solver))
    return out


def test_fleet_replicas_share_one_solver_per_key():
    """Replicas of a hot matrix build through the run's artifact store:
    one solver object per CacheKey across every worker's cache, while
    each cache still counts and charges its own miss."""
    fs = _fleet(workers=4, replication=2)
    res = fs.run(_workload(n=40, s=8.0))
    by_key = _solvers_by_key(fs)
    assert sum(len(ws.svc.cache) for ws in fs.workers.values()) \
        > len(by_key)
    assert all(len(ids) == 1 for ids in by_key.values())
    misses = [b for w in res.workers.values() for b in w.batches
              if not b.cache_hit]
    assert len(misses) == res.slo.cache_misses > len(by_key)


def test_fleet_rerun_is_cold_and_byte_identical():
    """The store lives for one run: a second run of the same instance
    rebuilds every solver and reports the same bytes."""
    fs = _fleet(workers=3)
    wl = _workload(n=24, seed=9)
    first = fs.run(wl).report.to_json()
    held = [e.solver for ws in fs.workers.values()
            for e in ws.svc.cache._entries.values()]
    assert held
    assert fs.run(wl).report.to_json() == first
    again = {id(e.solver) for ws in fs.workers.values()
             for e in ws.svc.cache._entries.values()}
    assert again and not again & {id(s) for s in held}


def test_fleet_report_replayable_from_seed():
    def run():
        return _fleet(workers=3).run(_workload(n=24, seed=9))
    assert run().report.to_json() == run().report.to_json()


# ------------------------------------------------ fleet: crash/recovery


def _crash(worker, tc, tr):
    return FaultSchedule(
        ((tc, tr, FaultPlan.uniform(seed=worker, crash={worker: tc})),))


def test_crash_windows_clamps_into_phase():
    sched = FaultSchedule((
        (1e-3, 2e-3, FaultPlan.uniform(seed=0, crash={0: 5e-4, 1: 1.5e-3})),
    ))
    wins = crash_windows(sched)
    assert wins == [(1e-3, 2e-3, 0), (1.5e-3, 2e-3, 1)]


def test_fleet_crash_rerouted_and_conserved():
    wl = _workload(n=40, rate=1e6)
    fs = _fleet(workers=3, crash=_crash(1, 5e-4, 4e-3))
    res = fs.run(wl)
    assert res.counters["n_crashes"] == 1
    assert res.counters["n_recoveries"] == 1
    assert res.counters["n_rerouted"] > 0
    assert res.slo.n_completed + res.slo.n_shed == len(wl)
    assert fs.workers[1].incarnations == 2
    # The recovered incarnation starts with a cold cache.
    kinds = [e["kind"] for e in res.events]
    assert kinds.count("crash") == 1 and kinds.count("recover") == 1
    assert check_fleet(wl, res, service=fs) > 0


def test_fleet_crash_run_byte_identical():
    def run():
        fs = _fleet(workers=3, crash=_crash(1, 5e-4, 4e-3))
        return fs.run(_workload(n=40, rate=1e6))
    assert run().report.to_json() == run().report.to_json()


def test_fleet_crash_latency_counts_detour():
    """Re-routed requests keep their original arrival: the detour shows
    up as latency, not as a fresh request."""
    wl = _workload(n=40, rate=1e6)
    plain = _fleet(workers=3).run(wl)
    crashed = _fleet(workers=3, crash=_crash(1, 5e-4, 4e-3)).run(wl)
    assert crashed.slo.latency_p95 >= plain.slo.latency_p95


def test_fleet_all_workers_down_sheds_typed():
    wl = _workload(n=12, rate=1e6, matrices=("s2D9pt2048",))
    fs = _fleet(workers=1, crash=_crash(0, 1e-5, 1.0))
    res = fs.run(wl)
    shed = [r for r in res.rejections if r.reason.value == "worker-crash"]
    assert shed, "expected worker-crash sheds with no live workers"
    assert res.slo.n_completed + res.slo.n_shed == len(wl)
    assert check_fleet(wl, res, service=fs) > 0


def test_revived_worker_reuses_the_stored_solver(monkeypatch):
    """A revived incarnation's cache is cold in virtual time (its first
    batch misses and pays the factorization estimate) but its host build
    is the solver its dead incarnation built."""
    spawned = []
    spawn = FleetService._spawn_service

    def spy(self):
        spawned.append(spawn(self))
        return spawned[-1]

    monkeypatch.setattr(FleetService, "_spawn_service", spy)
    fs = _fleet(workers=1, crash=_crash(0, 3.5e-3, 4e-3))
    res = fs.run(_workload(n=40, rate=1e4, matrices=("s2D9pt2048",)))
    dead, live = spawned
    assert fs.workers[0].svc is live
    (key, before), = dead.cache._entries.items()
    solver = live.cache._entries[key].solver
    assert solver is before.solver
    first = next(b for b in res.workers[0].batches if b.t_dispatch >= 4e-3)
    assert not first.cache_hit
    assert first.setup_time == solver.factor_time_estimate()


def test_crash_inside_a_replayed_batch_matches_the_simulated_fleet():
    """A crash that rolls back a hot batch whose values are still queued in
    its program's panel: solutions, verification counts, integrity records
    and the SLO (bar the replay counter) equal the same fleet with replay
    off."""
    wl = _workload(n=60, rate=1e6)

    def fleet(crash=None, replay=True, verify=1.0):
        return FleetService(
            FleetConfig(workers=3), ServiceConfig(**GRID, replay=replay),
            BatchPolicy(max_batch=4, max_wait=1e-3, queue_bound=64),
            crash_schedule=crash, keep_solutions=True, invariants=True,
            verify_fraction=verify)

    probe = fleet(verify=0.0).run(wl)
    w, hot = max(((i, [b for b in r.batches if b.replayed])
                  for i, r in probe.workers.items()),
                 key=lambda wb: len(wb[1]))
    assert len(hot) >= 4
    b = hot[3]
    tc = (b.t_dispatch + b.t_complete) / 2
    assert b.t_dispatch <= tc < b.t_complete
    crash = _crash(w, tc, tc + 4e-3)
    got, ref = fleet(crash).run(wl), fleet(crash, replay=False).run(wl)
    assert got.counters["n_crashes"] == 1
    assert got.slo.n_replayed > 0 and ref.slo.n_replayed == 0
    assert got.slo.n_verified == ref.slo.n_verified == got.slo.n_completed
    assert [w.integrity_failures for w in got.workers.values()] \
        == [w.integrity_failures for w in ref.workers.values()]
    assert list(got.solutions) == list(ref.solutions)
    for rid, x in ref.solutions.items():
        assert np.array_equal(got.solutions[rid], x), rid

    def doc(res):
        d = json.loads(res.slo.to_json())
        d.pop("n_replayed")
        return d
    assert doc(got) == doc(ref)


def test_crash_inside_a_simulated_batch_drops_its_record():
    """A crash in the middle of a cold (simulated) batch whose values,
    dedup fan-out and verification already happened at dispatch: the
    worker keeps none of it, and its SLO is exactly the fold of the
    batches that survive."""
    wl = Workload(requests=[
        Request(id=i, arrival=i * 2e-5, matrix=("ldoor", "nlpkkt80")[i % 2],
                scale="tiny", rhs_seed=i - 2 if i % 3 == 2 else i,
                deadline=1.0)
        for i in range(40)])

    def fleet(crash=None):
        return FleetService(
            FleetConfig(workers=2), ServiceConfig(**GRID),
            BatchPolicy(max_batch=4, max_wait=1e-3, queue_bound=64),
            crash_schedule=crash, keep_solutions=True, invariants=True,
            verify_fraction=1.0)

    probe = fleet().run(wl)
    w, b = next((i, b) for i, r in sorted(probe.workers.items())
                for b in r.batches
                if not b.replayed and len(b.request_ids) > b.size)
    tc = (b.t_dispatch + b.t_complete) / 2
    assert b.t_dispatch <= tc < b.t_complete
    fs = fleet(_crash(w, tc, tc + 4e-3))
    res = fs.run(wl)
    assert res.counters["n_crashes"] == 1
    wr = res.workers[w]
    kept = {c.request.id for c in wr.completions}
    assert not kept & set(b.request_ids)
    assert set(b.request_ids) <= {c.request.id for c in res.completions}
    assert [x.batch_id for x in wr.batches] == list(range(len(wr.batches)))
    assert list(wr.solutions) == [c.request.id for c in wr.completions]
    slo = wr.slo
    assert slo.n_completed == sum(len(x.request_ids) for x in wr.batches)
    assert slo.n_batches == len(wr.batches)
    assert slo.deduped == wr.deduped == sum(len(x.request_ids) - x.size
                                            for x in wr.batches)
    assert slo.n_replayed == sum(x.replayed for x in wr.batches)
    assert slo.setup_time == sum((x.setup_time for x in wr.batches), 0.0)
    assert slo.solve_time == sum((x.solve_time for x in wr.batches), 0.0)
    assert slo.n_verified == slo.n_completed
    assert res.slo.n_verified == res.slo.n_completed == len(wl)
    assert res.slo.n_integrity_failures == 0
    assert check_fleet(wl, res, service=fs) > 0


# --------------------------------------------------------- autoscaler


def test_autoscaler_policy_decisions():
    pol = AutoscalerPolicy(high_depth=8.0, low_depth=1.0,
                           min_workers=1, max_workers=4, cooldown_ticks=1)
    sc = Autoscaler(pol)
    up = sc.decide({0: 20.0, 1: 20.0}, 2, None)
    assert up.action == "up"
    # Cooldown holds the next tick even under pressure.
    assert sc.decide({0: 20.0, 1: 20.0}, 2, None).action == "hold"
    down = sc.decide({0: 0.0, 1: 0.0, 2: 0.0}, 3, None)
    assert down.action == "down"
    assert sc.decide({0: 0.0}, 1, None).action == "hold"   # at min_workers
    sc2 = Autoscaler(pol)
    assert sc2.decide({i: 20.0 for i in range(4)}, 4,
                      None).action == "hold"               # at max_workers


def test_autoscaler_latency_signal():
    pol = AutoscalerPolicy(high_depth=1e9, high_latency=1e-3,
                           max_workers=4, cooldown_ticks=0)
    sc = Autoscaler(pol)
    assert sc.decide({0: 0.0}, 1, 5e-3).action == "up"
    assert sc.decide({0: 0.0, 1: 0.0}, 2, 1e-4).action == "down"


def test_autoscaler_policy_validation():
    with pytest.raises(ValueError):
        AutoscalerPolicy(min_workers=0)
    with pytest.raises(ValueError):
        AutoscalerPolicy(min_workers=4, max_workers=2)
    with pytest.raises(ValueError):
        AutoscalerPolicy(period=0.0)


def test_drain_victim_prefers_replicated_caches():
    """Regression: the scale-down victim used to be the least-loaded
    routable worker even when it held the fleet's *only* warm copy of a
    hot factorization — draining it cratered the hit rate on the next
    burst, because every request for that matrix refactored cold.  The
    victim choice must spare workers with uniquely-warm fingerprints
    when a fully replicated one is available."""

    class _FakeSolver:
        def storage_nbytes(self):
            return 128

    def key(fp):
        return CacheKey(fingerprint=fp, px=1, py=1, pz=2,
                        machine="cori-haswell", max_supernode=64,
                        symbolic_mode="exact", ordering="nd")

    fs = _fleet(workers=3)
    fs.workers = {i: fs._spawn(i, t0=0.0) for i in range(3)}
    # "hot" is warm ONLY on worker 2; "shared" is replicated on 0 and 1.
    fs.workers[0].svc.cache.put(key("shared"), _FakeSolver())
    fs.workers[1].svc.cache.put(key("shared"), _FakeSolver())
    fs.workers[2].svc.cache.put(key("hot"), _FakeSolver())

    depths = {0: 2, 1: 3, 2: 1}   # worker 2 is also the least loaded
    victim = fs._drain_victim([0, 1, 2], depths)
    # The pre-fix (depth, -index) rule drained worker 2 — the sole warm
    # replica of "hot".  Locality-aware choice spares it and takes the
    # least-loaded of the fully-replicated workers instead.
    assert victim == 0
    # Everything warm on the victim survives elsewhere in the fleet...
    survivors = set().union(*(fs.workers[i].svc.cache.warm_fingerprints()
                              for i in (1, 2)))
    assert fs.workers[victim].svc.cache.warm_fingerprints() <= survivors
    # ...whereas draining worker 2 would have lost the only copy.
    assert "hot" not in set().union(
        *(fs.workers[i].svc.cache.warm_fingerprints() for i in (0, 1)))
    # With no replicated victim available the rule degrades to pure
    # load: all-solo caches fall back to (depth, -index).
    fs.workers[0].svc.cache._entries.clear()
    fs.workers[1].svc.cache._entries.clear()
    fs.workers[0].svc.cache.put(key("a"), _FakeSolver())
    fs.workers[1].svc.cache.put(key("b"), _FakeSolver())
    assert fs._drain_victim([0, 1, 2], depths) == 2


def test_fleet_autoscales_up_and_replays():
    def run():
        fs = _fleet(workers=1,
                    autoscaler=AutoscalerPolicy(period=5e-4, max_workers=4))
        return fs.run(_workload(n=48, rate=1e6))
    res = run()
    assert res.counters["n_scale_up"] > 0
    assert res.slo.n_completed + res.slo.n_shed == 48
    assert res.report.to_json() == run().report.to_json()


# ------------------------------------------------------ report surface


def test_fleet_report_shape():
    fs = _fleet(workers=2, crash=_crash(0, 5e-4, 2e-3))
    res = fs.run(_workload(n=20, rate=1e6))
    doc = json.loads(res.report.to_json())
    assert doc["version"] == 1
    assert doc["n_requests"] == 20
    assert doc["config"]["workers"] == 2
    assert doc["config"]["crash_windows"] == [[5e-4, 2e-3, 0]]
    assert set(doc["workers"]) == {"0", "1"}
    for w in doc["workers"].values():
        assert {"slo", "final_state", "incarnations",
                "n_routed", "n_rerouted_away"} <= set(w)
    assert any(e["kind"] == "crash" for e in doc["events"])
    # The aggregate fold matches the per-worker SLO sums.
    agg = doc["fleet"]
    assert agg["n_batches"] == sum(w["slo"]["n_batches"]
                                   for w in doc["workers"].values())


def test_fleet_admission_bound_sheds_typed():
    wl = _workload(n=40, rate=1e6)
    fs = _fleet(workers=2, admit_bound=4)
    res = fs.run(wl)
    front = [r for r in res.rejections
             if r.detail == "front-door admission bound"]
    assert front
    assert res.counters["front_shed"]["queue-full"] == len(front)
    assert res.slo.n_completed + res.slo.n_shed == len(wl)
    assert check_fleet(wl, res, service=fs) > 0


def test_service_lane_structure_guard():
    """The serving loop is written once (``Lane.advance``), the SLO fold
    twice (a lane's, the fleet's), and the fleet neither reaches into the
    service's private names nor edits a result's counters by hand — its
    crash handling drops a lane's record instead."""
    import ast
    import pathlib

    import repro

    src = pathlib.Path(repro.__file__).parent
    callers: dict = {"ready_group": set(), "pop_batch": set(),
                     "build_slo": []}
    offenders = []
    folded = {"deduped", "n_verified", "n_replayed", "integrity_failures",
              "setup_total", "solve_total", "setup_time", "solve_time"}
    for path in sorted([*src.glob("serve/*.py"), *src.glob("fleet/*.py")]):
        rel = str(path.relative_to(src))
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    name = ast.unparse(node.func).rsplit(".", 1)[-1]
                    if name in ("ready_group", "pop_batch"):
                        callers[name].add(f"{rel}:{fn.name}")
                    elif name == "build_slo":
                        callers[name].append(f"{rel}:{node.lineno}")
        if rel != "fleet/service.py":
            continue
        for node in ast.walk(tree):
            where = f"{rel}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ImportFrom) \
                    and (node.module or "").startswith("repro.serve"):
                offenders += [f"{where}: imports {a.name}"
                              for a in node.names if a.name.startswith("_")]
            if isinstance(node, ast.Attribute) and node.attr in (
                    "_dispatch", "_flush", "_flush_panel", "_sampled"):
                offenders.append(f"{where}: {ast.unparse(node)}")
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, ast.AugAssign)
                       else [])
            offenders += [f"{where}: assigns {ast.unparse(t)}"
                          for t in targets
                          if isinstance(t, ast.Attribute) and t.attr in folded]
    assert callers["ready_group"] == callers["pop_batch"] \
        == {"serve/service.py:advance"}
    assert len(callers["build_slo"]) <= 2, callers["build_slo"]
    assert not offenders, "\n".join(offenders)
