"""Tests for the batching solve service (repro.serve)."""

import math

import numpy as np
import pytest

from repro.comm.faults import FaultPlan
from repro.core.solver import Resilience
from repro.matrices import get_matrix, matrix_fingerprint
from repro.serve import (
    BatchPolicy,
    BatchingScheduler,
    FactorizationCache,
    RejectReason,
    Request,
    ServiceConfig,
    SolveService,
    Workload,
    WorkloadSpec,
    format_slo,
    generate_workload,
)
from repro.serve.cache import CacheKey


def req(i, arrival=0.0, matrix="m", scale="tiny", deadline=1.0, priority=0):
    return Request(id=i, arrival=arrival, matrix=matrix, scale=scale,
                   rhs_seed=i, deadline=deadline, priority=priority)


# -- workload generation / trace round trip ---------------------------------

def test_workload_deterministic_and_sorted():
    spec = WorkloadSpec(seed=5, rate=100.0, n_requests=20,
                        mix=(("s2D9pt2048", "tiny", 1.0),
                             ("nlpkkt80", "tiny", 2.0)),
                        priorities=((0, 1.0), (3, 1.0)))
    a, b = generate_workload(spec), generate_workload(spec)
    assert a.requests == b.requests
    arr = [r.arrival for r in a.requests]
    assert arr == sorted(arr)
    assert all(r.deadline > r.arrival for r in a.requests)
    assert {r.matrix for r in a.requests} <= {"s2D9pt2048", "nlpkkt80"}
    assert generate_workload(
        WorkloadSpec(seed=6, rate=100.0, n_requests=20)).requests \
        != a.requests


def test_workload_trace_round_trip(tmp_path):
    wl = generate_workload(WorkloadSpec(seed=1, n_requests=8))
    path = str(tmp_path / "trace.json")
    wl.save(path)
    wl2 = Workload.load(path)
    assert wl2.requests == wl.requests
    assert wl2.meta == wl.meta


def test_workload_trace_version_check():
    with pytest.raises(ValueError, match="version"):
        Workload.from_json('{"version": 999, "requests": []}')


def test_workload_spec_validation():
    with pytest.raises(ValueError):
        generate_workload(WorkloadSpec(rate=0.0))
    with pytest.raises(ValueError):
        generate_workload(WorkloadSpec(n_requests=0))
    with pytest.raises(ValueError):
        generate_workload(WorkloadSpec(mix=()))


# -- factorization cache -----------------------------------------------------

class FakeSolver:
    def __init__(self, nbytes=100, setup=1.0):
        self._nbytes = nbytes
        self._setup = setup

    def storage_nbytes(self):
        return self._nbytes

    def factor_time_estimate(self, machine=None):
        return self._setup


def key(tag):
    return CacheKey(fingerprint=tag, px=1, py=1, pz=1, machine="m",
                    max_supernode=16, symbolic_mode="detect", ordering="nd")


def test_cache_hit_miss_counters():
    c = FactorizationCache()
    assert c.get(key("a")) is None
    s = FakeSolver()
    c.put(key("a"), s)
    assert c.get(key("a")) is s
    assert c.stats.hits == 1 and c.stats.misses == 1
    assert c.stats.hit_rate == 0.5
    assert c.stats.resident_bytes == 100


def test_cache_lru_eviction_by_entries():
    c = FactorizationCache(max_entries=2)
    c.put(key("a"), FakeSolver())
    c.put(key("b"), FakeSolver())
    c.get(key("a"))                    # refresh a; b is now LRU
    evicted = c.put(key("c"), FakeSolver())
    assert evicted == [key("b")]
    assert c.get(key("a")) is not None
    assert c.get(key("b")) is None
    assert c.stats.evictions == 1


def test_cache_byte_bound_eviction():
    c = FactorizationCache(max_bytes=250)
    c.put(key("a"), FakeSolver(nbytes=100))
    c.put(key("b"), FakeSolver(nbytes=100))
    c.put(key("c"), FakeSolver(nbytes=100))   # 300 > 250: evict oldest
    assert len(c) == 2
    assert c.stats.resident_bytes == 200
    assert c.stats.peak_bytes == 300
    # An oversized entry is still admitted (never evict the only entry).
    c2 = FactorizationCache(max_bytes=50)
    c2.put(key("big"), FakeSolver(nbytes=500))
    assert len(c2) == 1


def test_cache_put_refresh_accounting():
    """Re-putting an existing key (rebuilt under a racing miss) must swap
    the entry's bytes, not double-count them."""
    from repro.check import check_cache

    c = FactorizationCache()
    c.put(key("a"), FakeSolver(nbytes=100))
    c.put(key("a"), FakeSolver(nbytes=120))
    assert len(c) == 1
    assert c.stats.resident_bytes == 120
    assert c.stats.resident_entries == 1
    assert c.stats.evictions == 0
    check_cache(c)


def test_cache_oversize_admission_accounting():
    """An entry larger than max_bytes is admitted (evicting the rest) and
    the byte accounting stays conserved."""
    from repro.check import check_cache

    c = FactorizationCache(max_bytes=50)
    c.put(key("a"), FakeSolver(nbytes=40))
    evicted = c.put(key("big"), FakeSolver(nbytes=500))
    assert evicted == [key("a")]
    assert len(c) == 1
    assert c.stats.resident_bytes == 500
    assert c.stats.peak_bytes == 540
    assert c.stats.evictions == 1
    check_cache(c)


def test_cache_get_or_build():
    c = FactorizationCache()
    built = []

    def build():
        built.append(1)
        return FakeSolver(setup=2.5)

    s1, t1, hit1 = c.get_or_build(key("a"), build)
    s2, t2, hit2 = c.get_or_build(key("a"), build)
    assert s1 is s2 and built == [1]
    assert (hit1, hit2) == (False, True)
    assert t1 == 2.5 and t2 == 0.0


# -- scheduler: batching, admission, shedding --------------------------------

def test_scheduler_batches_when_full():
    s = BatchingScheduler(BatchPolicy(max_batch=3, max_wait=10.0))
    for i in range(3):
        assert s.offer(req(i, arrival=0.1 * i), 0.1 * i) is None
    k = s.ready_group(0.2)
    assert k == ("m", "tiny")
    batch, shed = s.pop_batch(k, 0.2)
    assert [r.id for r in batch] == [0, 1, 2] and not shed
    assert s.depth() == 0


def test_scheduler_dispatches_on_max_wait():
    s = BatchingScheduler(BatchPolicy(max_batch=8, max_wait=0.5))
    s.offer(req(0, arrival=1.0, deadline=10.0), 1.0)
    assert s.ready_group(1.4) is None
    assert s.next_trigger() == 1.5
    assert s.ready_group(1.5) == ("m", "tiny")


def test_scheduler_next_trigger_includes_earliest_deadline():
    """Regression: an expiry during an idle gap must wake the loop.

    Before the fix ``next_trigger`` only knew about the max-wait age
    trigger, so a request expiring while the queue idled below
    ``max_batch`` was shed at the *next unrelated dispatch* with that
    later timestamp."""
    s = BatchingScheduler(BatchPolicy(max_batch=8, max_wait=100.0))
    s.offer(req(0, arrival=0.0, deadline=2.0), 0.0)
    trig = s.next_trigger()
    # Strictly after the deadline (deadline < t sheds) but immediately so.
    assert trig == math.nextafter(2.0, math.inf)
    shed = s.expire(trig)
    assert [r.request.id for r in shed] == [0]
    assert shed[0].reason is RejectReason.DEADLINE_PASSED
    assert shed[0].time > shed[0].request.deadline
    assert s.depth() == 0 and s.next_trigger() is None


def test_scheduler_next_trigger_zero_slack_clamps_to_arrival():
    """Regression: the expiry trigger must never precede the arrival.

    The fleet's crash path can deliver a request to a worker *before*
    its own arrival (the run loop pre-routes future arrivals; a crash
    evacuates and re-homes them at the crash instant).  When such a
    request's deadline has already passed in flight, the pre-fix
    ``next_trigger`` returned ``nextafter(deadline)`` unclamped, waking
    the loop — and timestamping the shed — before the request exists; an
    acausal ``Rejection.time`` the ``serve.causal-shed`` invariant now
    rejects.  Each expiry trigger is clamped to
    ``max(arrival, nextafter(deadline))``."""
    s = BatchingScheduler(BatchPolicy(max_batch=8, max_wait=100.0))
    # Delivered at t=0.5 ahead of its arrival=2.0, deadline long gone.
    s.offer(req(0, arrival=2.0, deadline=1.0), 0.5)
    trig = s.next_trigger()
    assert trig == 2.0                  # clamped: not nextafter(1.0)
    shed = s.expire(trig)
    assert [r.request.id for r in shed] == [0]
    assert shed[0].time >= shed[0].request.arrival
    assert shed[0].time > shed[0].request.deadline

    # Zero slack (deadline == arrival, the fuzzer's deadline=0.0 draw):
    # the trigger is the first representable instant past the deadline,
    # which is already causal.
    s.offer(req(1, arrival=3.0, deadline=3.0), 2.5)
    trig = s.next_trigger()
    assert trig == math.nextafter(3.0, math.inf)
    assert s.expire(3.0) == []          # t == deadline: still alive
    shed = s.expire(trig)
    assert [r.request.id for r in shed] == [1]
    assert shed[0].time >= shed[0].request.arrival


def test_scheduler_deadline_boundary():
    """Regression: the tier-wide boundary convention (docs/SERVING.md).

    A request is expired only once ``deadline < t`` *strictly*: a pop or
    expiry sweep exactly at the deadline still solves it, matching the
    ``t_complete <= deadline`` completion-side convention.  The pre-fix
    ``deadline <= t`` shed work that could still finish on time."""
    s = BatchingScheduler(BatchPolicy(max_batch=4, max_wait=0.0))
    s.offer(req(0, deadline=1.0), 0.0)
    assert s.expire(1.0) == []                     # t == deadline: alive
    batch, shed = s.pop_batch(s.ready_group(1.0), 1.0)
    assert [r.id for r in batch] == [0] and not shed
    s.offer(req(1, deadline=1.0), 0.0)
    t = math.nextafter(1.0, math.inf)
    batch, shed = s.pop_batch(("m", "tiny"), t)    # t > deadline: shed
    assert not batch and [r.request.id for r in shed] == [1]


def test_scheduler_expire_does_not_early_dispatch_survivors():
    s = BatchingScheduler(BatchPolicy(max_batch=8, max_wait=10.0))
    s.offer(req(0, deadline=0.5), 0.0)
    s.offer(req(1, deadline=9.0), 0.0)
    shed = s.expire(1.0)
    assert [r.request.id for r in shed] == [0]
    assert s.depth() == 1                          # 1 still queued, not popped
    assert s.ready_group(1.0) is None              # and not dispatch-due


def test_scheduler_edf_across_groups():
    s = BatchingScheduler(BatchPolicy(max_batch=1, max_wait=10.0))
    s.offer(req(0, matrix="a", deadline=5.0), 0.0)
    s.offer(req(1, matrix="b", deadline=2.0), 0.0)
    assert s.ready_group(0.0) == ("b", "tiny")  # earliest deadline first


def test_scheduler_queue_full_and_displacement():
    s = BatchingScheduler(BatchPolicy(max_batch=8, max_wait=10.0,
                                      queue_bound=2))
    s.offer(req(0, priority=1), 0.0)
    s.offer(req(1, priority=1), 0.0)
    rej = s.offer(req(2, priority=0), 0.1)     # lower priority: bounced
    assert rej is not None and rej.reason is RejectReason.QUEUE_FULL
    assert rej.request.id == 2
    rej = s.offer(req(3, priority=5), 0.2)     # higher priority: displaces
    assert rej is not None and rej.reason is RejectReason.DISPLACED
    assert rej.request.id in (0, 1)
    assert s.depth() == 2


def test_scheduler_sheds_expired_at_dispatch():
    s = BatchingScheduler(BatchPolicy(max_batch=4, max_wait=0.0))
    s.offer(req(0, deadline=0.5), 0.0)
    s.offer(req(1, deadline=9.0), 0.0)
    batch, shed = s.pop_batch(s.ready_group(1.0), 1.0)
    assert [r.id for r in batch] == [1]
    assert len(shed) == 1 and shed[0].reason is RejectReason.DEADLINE_PASSED


def test_policy_validation():
    with pytest.raises(ValueError):
        BatchPolicy(max_batch=0)
    with pytest.raises(ValueError):
        BatchPolicy(max_wait=-1.0)
    with pytest.raises(ValueError):
        BatchPolicy(queue_bound=0)


# -- the service loop --------------------------------------------------------

CFG = ServiceConfig(px=1, py=1, pz=2)


@pytest.fixture(scope="module")
def small_workload():
    return generate_workload(WorkloadSpec(
        seed=11, rate=3000.0, n_requests=12, deadline=0.5,
        mix=(("s2D9pt2048", "tiny", 1.0),)))


def test_service_completes_and_batches(small_workload):
    svc = SolveService(CFG, BatchPolicy(max_batch=4, max_wait=1e-3))
    res = svc.run(small_workload)
    assert res.slo.n_completed == 12 and res.slo.n_shed == 0
    assert res.slo.n_batches < 12            # coalescing happened
    assert any(b.size > 1 for b in res.batches)
    assert res.slo.cache_hit_rate > 0        # repeat matrix reused
    assert res.slo.makespan > 0 and res.slo.throughput > 0
    # Completion bookkeeping is consistent.
    assert sorted(r.id for r in small_workload.requests) == \
        sorted(c.request.id for c in res.completions)
    assert all(c.latency > 0 for c in res.completions)


def test_service_deterministic(small_workload):
    def go():
        return SolveService(
            CFG, BatchPolicy(max_batch=4, max_wait=1e-3)).run(small_workload)
    a, b = go(), go()
    assert a.slo.to_json() == b.slo.to_json()
    assert [x.size for x in a.batches] == [x.size for x in b.batches]
    assert [x.request_ids for x in a.batches] == \
        [x.request_ids for x in b.batches]
    for i in a.solutions:
        assert np.array_equal(a.solutions[i], b.solutions[i])


def test_served_solutions_bit_identical_to_cold_single_solves(small_workload):
    """The headline contract: batched + cached answers are the same bits
    as a fresh solver solving each request alone."""
    svc = SolveService(CFG, BatchPolicy(max_batch=4, max_wait=1e-3))
    res = svc.run(small_workload)
    cold = SolveService(CFG)._build_solver("s2D9pt2048", "tiny")
    for r in small_workload.requests:
        x = cold.solve(r.rhs(cold.n)).x
        assert np.array_equal(res.solutions[r.id], x.ravel()), r


def test_cache_hit_solves_bit_identical_to_cold(small_workload):
    hot = SolveService(CFG, BatchPolicy(max_batch=4, max_wait=1e-3))
    res_hot = hot.run(small_workload)
    assert res_hot.slo.cache_hits > 0
    # Same workload with a cache too small to ever hit.
    cold = SolveService(CFG, BatchPolicy(max_batch=4, max_wait=1e-3),
                        cache=FactorizationCache(max_entries=1))
    # max_entries=1 with one matrix still hits; force misses by clearing.
    res_cold_sols = {}
    for r in small_workload.requests:
        s = SolveService(CFG)._build_solver(r.matrix, r.scale)
        res_cold_sols[r.id] = s.solve(r.rhs(s.n)).x.ravel()
    for i, x in res_hot.solutions.items():
        assert np.array_equal(x, res_cold_sols[i])


def test_service_sheds_under_overload():
    wl = generate_workload(WorkloadSpec(
        seed=2, rate=50000.0, n_requests=30, deadline=0.001,
        priorities=((0, 3.0), (5, 1.0))))
    svc = SolveService(CFG, BatchPolicy(max_batch=2, max_wait=1e-4,
                                        queue_bound=4), keep_solutions=False)
    res = svc.run(svc_wl := wl)
    assert res.slo.n_shed > 0
    assert res.slo.n_completed + res.slo.n_shed == len(svc_wl)
    assert set(res.slo.shed_by_reason) <= {
        "queue-full", "displaced", "deadline-passed"}
    # Every shed is typed and timestamped.
    assert all(r.reason in RejectReason for r in res.rejections)


def test_service_deadline_sheds_stamped_at_expiry():
    """Regression: a request expiring during an idle gap is shed at (just
    past) its own deadline, not at the next unrelated dispatch.

    With a batch that never fills and a long max_wait, every request sits
    queued past its deadline; each must be shed at exactly
    ``nextafter(deadline)`` — the expiry trigger — with
    ``time > deadline`` strictly."""
    wl = generate_workload(WorkloadSpec(
        seed=7, rate=50000.0, n_requests=10, deadline=0.001))
    svc = SolveService(CFG, BatchPolicy(max_batch=64, max_wait=0.05),
                       keep_solutions=False)
    res = svc.run(wl)
    assert res.slo.n_completed == 0
    assert res.slo.shed_by_reason == {"deadline-passed": 10}
    for r in res.rejections:
        assert r.reason is RejectReason.DEADLINE_PASSED
        assert r.time > r.request.deadline
        assert r.time == math.nextafter(r.request.deadline, math.inf)


def test_queue_depth_integral_time_weighted():
    from repro.serve.service import _QueueDepthIntegral

    q = _QueueDepthIntegral()
    q.record(1.0, 2)      # depth 0 over [0, 1)
    q.record(1.0, 3)      # same instant: last write wins, no area
    q.record(3.0, 0)      # depth 3 over [1, 3)
    q.record(4.0, 0)      # depth 0 over [3, 4)
    assert q.area == pytest.approx(6.0)
    assert q.mean() == pytest.approx(1.5)
    assert _QueueDepthIntegral().mean() == 0.0


def test_slo_queue_depth_mean_is_time_weighted():
    """Regression: the SLO queue-depth mean integrates over virtual time.

    One request waits exactly ``max_wait`` and then solves: depth is 1
    for ``max_wait`` seconds out of the makespan, so the time-weighted
    mean is ``max_wait / makespan`` — not the per-loop-iteration sample
    average the report used before."""
    wl = generate_workload(WorkloadSpec(
        seed=3, rate=1000.0, n_requests=1, deadline=10.0))
    svc = SolveService(CFG, BatchPolicy(max_batch=8, max_wait=0.5),
                       keep_solutions=False)
    res = svc.run(wl)
    assert res.slo.n_completed == 1
    assert res.slo.queue_depth_max == 1
    assert res.slo.queue_depth_mean == pytest.approx(0.5 / res.slo.makespan)


def test_service_invariants_hook(small_workload):
    """The runtime invariant layer accepts a clean service run."""
    svc = SolveService(CFG, BatchPolicy(max_batch=4, max_wait=1e-3),
                       invariants=True)
    res = svc.run(small_workload)
    assert res.slo.n_completed == len(small_workload)


def test_service_profile_aggregates_comm(small_workload):
    svc = SolveService(CFG, BatchPolicy(max_batch=4, max_wait=1e-3),
                       profile=True, keep_solutions=False)
    res = svc.run(small_workload)
    assert res.slo.profiled
    assert res.slo.comm_msgs > 0
    assert res.slo.comm_alpha_time > 0


def test_service_over_lossy_fabric(small_workload):
    """Served workload survives a lossy network via the resilience tiers."""
    svc = SolveService(
        CFG, BatchPolicy(max_batch=4, max_wait=1e-3),
        faults=FaultPlan.uniform(seed=3, drop=0.05),
        resilience=Resilience(reliable=True))
    res = svc.run(small_workload)
    assert res.slo.n_completed == len(small_workload)
    cold = SolveService(CFG)._build_solver("s2D9pt2048", "tiny")
    for r in small_workload.requests[:3]:
        x = cold.solve(r.rhs(cold.n)).x
        assert np.array_equal(res.solutions[r.id], x.ravel())


def test_service_cache_keyed_by_content():
    svc = SolveService(CFG)
    k1 = svc.cache_key("s2D9pt2048", "tiny")
    k2 = svc.cache_key("nlpkkt80", "tiny")
    assert k1 != k2
    assert k1.fingerprint == matrix_fingerprint(
        get_matrix("s2D9pt2048", "tiny")).hexdigest


def test_slo_report_format_and_json(small_workload):
    svc = SolveService(CFG, BatchPolicy(max_batch=4, max_wait=1e-3),
                       keep_solutions=False)
    rep = svc.run(small_workload).slo
    text = format_slo(rep, title="t")
    for token in ("requests", "latency", "throughput", "batches", "cache"):
        assert token in text
    import json
    doc = json.loads(rep.to_json())
    assert doc["n_completed"] == 12
    assert 0.0 <= doc["cache_hit_rate"] <= 1.0
    assert doc["deadline_met_rate"] == rep.deadline_met_rate


# -- hardened ingestion: typed poison sheds ----------------------------------

def _poison_svc(**kw):
    from repro.matrices import resolve_matrix
    kw.setdefault("policy", BatchPolicy(max_batch=4, max_wait=1e-3))
    return SolveService(CFG, matrix_provider=resolve_matrix, **kw)


@pytest.mark.parametrize("name", ["poison-singular", "poison-nan",
                                  "poison-inf", "poison-nonsquare",
                                  "poison-illcond"])
def test_service_sheds_poison_matrix_typed(name):
    """Regression: a malformed matrix is a typed poison-input rejection,
    not an escaped exception or a corrupted accepted answer."""
    wl = Workload(requests=[
        Request(id=0, arrival=0.0, matrix=name, scale="tiny",
                rhs_seed=1, deadline=1.0),
        Request(id=1, arrival=0.001, matrix="s2D9pt2048", scale="tiny",
                rhs_seed=2, deadline=1.0),
    ])
    res = _poison_svc().run(wl)
    assert res.slo.n_completed == 1
    assert res.slo.shed_by_reason == {"poison-input": 1}
    [rej] = [r for r in res.rejections
             if r.reason is RejectReason.POISON_INPUT]
    assert rej.request.id == 0 and rej.detail  # slug names the defect


@pytest.mark.parametrize("kind", ["poison-nan", "poison-inf",
                                  "poison-shape", "poison-empty"])
def test_service_sheds_poison_rhs_individually(kind):
    """A poisoned RHS sheds that request only; batchmates still solve."""
    wl = Workload(requests=[
        Request(id=0, arrival=0.0, matrix="s2D9pt2048", scale="tiny",
                rhs_seed=1, deadline=1.0, rhs_kind=kind),
        Request(id=1, arrival=0.0001, matrix="s2D9pt2048", scale="tiny",
                rhs_seed=2, deadline=1.0),
    ])
    res = _poison_svc().run(wl)
    assert res.slo.n_completed == 1 and res.slo.n_shed == 1
    [rej] = res.rejections
    assert rej.reason is RejectReason.POISON_INPUT
    assert rej.request.id == 0 and rej.detail
    # The good batchmate's answer is untouched by its poisoned neighbor.
    cold = SolveService(CFG)._build_solver("s2D9pt2048", "tiny")
    r1 = wl.requests[1]
    assert np.array_equal(res.solutions[1],
                          cold.solve(r1.rhs(cold.n)).x.ravel())


def test_poison_matrix_memoized_not_rebuilt():
    """The second request for a known-bad matrix is shed without paying
    the (possibly huge) build again, and the cache stays clean."""
    wl = Workload(requests=[
        Request(id=i, arrival=0.001 * i, matrix="poison-nan", scale="tiny",
                rhs_seed=i, deadline=1.0)
        for i in range(3)
    ])
    svc = _poison_svc()
    res = svc.run(wl)
    assert res.slo.shed_by_reason == {"poison-input": 3}
    assert svc.cache.stats.resident_entries == 0  # poison never cached


def test_service_rejects_oversize_matrix():
    from repro.matrices import resolve_matrix
    svc = SolveService(
        ServiceConfig(px=1, py=1, pz=2, max_matrix_n=100),
        matrix_provider=resolve_matrix)
    wl = Workload(requests=[
        Request(id=0, arrival=0.0, matrix="s2D9pt2048", scale="tiny",
                rhs_seed=1, deadline=1.0)])
    res = svc.run(wl)
    assert res.slo.shed_by_reason == {"poison-input": 1}
    assert res.rejections[0].detail == "too-large"


# -- duplicate coalescing ----------------------------------------------------

def test_scheduler_dedups_identical_requests():
    from repro.serve import dedup_key

    sched = BatchingScheduler(BatchPolicy(max_batch=2, max_wait=1e-3))
    reqs = [Request(id=i, arrival=0.0, matrix="m", scale="tiny",
                    rhs_seed=7, deadline=1.0) for i in range(3)]
    reqs.append(Request(id=3, arrival=0.0, matrix="m", scale="tiny",
                        rhs_seed=8, deadline=1.0))
    for r in reqs:
        assert sched.offer(r, 0.0) is None
    batch, shed = sched.pop_batch(("m", "tiny"), 0.0)
    # Two distinct keys fill the batch; duplicates ride along for free.
    assert len(batch) == 4 and shed == []
    assert len({dedup_key(r) for r in batch}) == 2
    assert sched.depth() == 0                # nothing left behind


def test_service_dedup_counter_and_fanout_bit_identity():
    """Satellite contract: N requests sharing (rhs_seed, kind, deadline)
    solve one column; every caller gets the same bits as a cold solve."""
    dup = [Request(id=i, arrival=0.0, matrix="s2D9pt2048", scale="tiny",
                   rhs_seed=42, deadline=1.0) for i in range(5)]
    solo = Request(id=5, arrival=0.0001, matrix="s2D9pt2048", scale="tiny",
                   rhs_seed=43, deadline=1.0)
    svc = SolveService(CFG, BatchPolicy(max_batch=8, max_wait=1e-3),
                       invariants=True)
    res = svc.run(Workload(requests=dup + [solo]))
    assert res.slo.n_completed == 6 and res.slo.n_shed == 0
    assert res.slo.deduped == 4
    [batch] = res.batches
    assert batch.size == 2 and len(batch.request_ids) == 6
    cold = SolveService(CFG)._build_solver("s2D9pt2048", "tiny")
    for r in dup + [solo]:
        x = cold.solve(r.rhs(cold.n)).x.ravel()
        assert np.array_equal(res.solutions[r.id], x)


def test_dedup_key_excludes_priority():
    from repro.serve import dedup_key

    a = Request(id=0, arrival=0.0, matrix="m", scale="tiny", rhs_seed=7,
                deadline=1.0, priority=0)
    b = Request(id=1, arrival=0.0, matrix="m", scale="tiny", rhs_seed=7,
                deadline=1.0, priority=5)
    assert dedup_key(a) == dedup_key(b)


# -- integrity verification & crash-fault cache recovery ---------------------

def test_sampled_verification_counts(small_workload):
    svc = SolveService(CFG, BatchPolicy(max_batch=4, max_wait=1e-3),
                       verify_fraction=1.0, verify_seed=9)
    res = svc.run(small_workload)
    assert res.slo.n_verified == len(small_workload)
    assert res.slo.n_integrity_failures == 0
    assert res.integrity_failures == []


def test_verify_fraction_validation():
    with pytest.raises(ValueError):
        SolveService(CFG, verify_fraction=1.5)


def test_cache_not_poisoned_by_crash_fault_failover():
    """Satellite contract: a batch that rides through a crash-fault
    failover must not leave a corrupted factorization behind — the next
    request (fault window over) is bit-identical to a cold solve."""
    from repro.comm.faults import FaultSchedule, plan_for

    crash = plan_for("crash", 0.5, seed=77, nranks=2, makespan=2e-3)
    assert crash is not None and crash.crash
    sched = FaultSchedule(((0.0, 0.05, crash),))
    wl = Workload(requests=[
        Request(id=0, arrival=0.0, matrix="s2D9pt2048", scale="tiny",
                rhs_seed=5, deadline=1.0),
        Request(id=1, arrival=0.1, matrix="s2D9pt2048", scale="tiny",
                rhs_seed=6, deadline=1.1),
    ])
    svc = SolveService(CFG, BatchPolicy(max_batch=1, max_wait=1e-4),
                       fault_schedule=sched, resilience=Resilience(),
                       verify_fraction=1.0, verify_seed=3)
    res = svc.run(wl)
    assert res.slo.n_completed == 2
    assert res.slo.n_integrity_failures == 0
    assert res.slo.cache_hits >= 1           # second solve reused the entry
    cold = SolveService(CFG)._build_solver("s2D9pt2048", "tiny")
    r1 = wl.requests[1]
    assert sched.plan_at(res.completions[-1].t_complete) is None  # calm
    assert np.array_equal(res.solutions[1],
                          cold.solve(r1.rhs(cold.n)).x.ravel())


def test_fault_schedule_plan_at():
    from repro.comm.faults import FaultSchedule

    p = FaultPlan.uniform(seed=1, drop=0.1)
    s = FaultSchedule(((0.0, 1.0, p), (2.0, 3.0, None)))
    assert s.plan_at(0.5) is p
    assert s.plan_at(1.0) is None            # half-open window
    assert s.plan_at(2.5) is None            # explicit calm phase
    assert s.plan_at(5.0) is None
    assert s.end == 3.0
    with pytest.raises(ValueError):
        FaultSchedule(((1.0, 1.0, p),))


# -- replayed batches: one wide value-program panel per program --------------

def _one_matrix_requests(n, dup_every=5):
    """``n`` requests on one matrix; every ``dup_every``-th one repeats its
    predecessor's solve (same dedup key, adjacent arrival)."""
    return [Request(id=i, arrival=i * 2e-5, matrix="s2D9pt2048",
                    scale="tiny", deadline=1.0,
                    rhs_seed=i - 1 if i % dup_every == 0 and i else i)
            for i in range(n)]


def test_replayed_batches_execute_as_wide_panels(monkeypatch):
    """Hot batches of one program are computed together, at most
    PANEL_COLUMNS columns per ``ValueProgram.execute``: every answer is
    still the bits of a cold single-RHS solve and of the simulated
    (``replay=False``) service, in completion order, and nothing is left
    queued when ``run()`` returns."""
    from repro.replay import ValueProgram, replay_state
    from repro.serve.service import PANEL_COLUMNS

    calls = []
    execute = ValueProgram.execute

    def counted(self, b_perm, nrhs):
        calls.append(nrhs)
        return execute(self, b_perm, nrhs)

    monkeypatch.setattr(ValueProgram, "execute", counted)
    wl = Workload(requests=_one_matrix_requests(128))
    policy = BatchPolicy(max_batch=8, max_wait=1e-4, queue_bound=256)
    svc = SolveService(CFG, policy, profile=True, invariants=True)
    res = svc.run(wl)
    assert res.slo.n_completed == len(wl) and res.deduped > 0
    assert res._panels == {}
    assert list(res.solutions) == [c.request.id for c in res.completions]
    solver = svc.cache.get(svc.cache_key("s2D9pt2048", "tiny"))
    st = replay_state(solver)
    assert st.stats.replays == res.n_replayed > 0

    # Greedy packing of the hot batches, in dispatch order, into panels.
    panels, width = 0, 0
    for b in res.batches:
        if b.replayed:
            if panels == 0 or width + b.size > PANEL_COLUMNS:
                panels, width = panels + 1, 0
            width += b.size
    assert panels > 2
    # Each recording run cross-checks the program once; the rest are panels.
    assert len(calls) == st.stats.records + panels
    assert max(calls) <= PANEL_COLUMNS

    sim = SolveService(ServiceConfig(px=1, py=1, pz=2, replay=False),
                       policy).run(wl)
    assert sim.n_replayed == 0
    # Width-1 solves on a fresh factorization: the first is simulated and
    # records, the rest execute the program one column at a time.
    cold = SolveService(CFG)._build_solver("s2D9pt2048", "tiny")
    xs = {}
    for r in wl.requests:
        if r.rhs_seed not in xs:
            xs[r.rhs_seed] = cold.solve(r.rhs(cold.n), replay=True).x.ravel()
        assert np.array_equal(res.solutions[r.id], xs[r.rhs_seed]), r.id
        assert np.array_equal(sim.solutions[r.id], xs[r.rhs_seed]), r.id


def test_flush_time_verification_sees_the_flushed_values(monkeypatch):
    """Verification of a hot batch runs on the panel's values: a one-ulp
    flip in the executor surfaces as a bit-mismatch of that batch."""
    from repro.replay.program import _VectorPlan

    wl = Workload(requests=[
        Request(id=i, arrival=i * 1e-2, matrix="s2D9pt2048", scale="tiny",
                rhs_seed=i, deadline=i * 1e-2 + 1.0) for i in range(5)])
    svc = SolveService(CFG, BatchPolicy(max_batch=1, max_wait=0.0),
                       verify_fraction=1.0, verify_seed=1)
    first = svc.run(wl)                      # records the width-1 timing
    assert first.n_replayed > 0 and first.integrity_failures == []

    run = _VectorPlan.run
    flipped = []

    def flip_once(self, b_perm, nrhs):
        x = run(self, b_perm, nrhs)
        if not flipped:
            flipped.append(nrhs)
            x[0, 0] = np.nextafter(x[0, 0], np.inf)
        return x

    monkeypatch.setattr(_VectorPlan, "run", flip_once)
    res = svc.run(wl)
    assert res.n_replayed == len(wl) and flipped == [len(wl)]
    assert res.n_verified == len(wl)
    assert [(f["batch_id"], f["kind"]) for f in res.integrity_failures] \
        == [(0, "bit-mismatch")]
