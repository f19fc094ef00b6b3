"""Runtime invariants over simulation, observability and serving state.

Every function here takes finished result objects, re-derives a
conservation law the runtime is supposed to obey, and raises a typed
:class:`InvariantViolation` naming the broken law when it does not hold.
The checks are *observers*: they never mutate what they inspect, so a run
with checking enabled is bit-identical to one without.

Catalog (see ``docs/CHECKING.md`` for the prose version):

- :func:`check_sim` — per-rank clock sanity and monotone trace order,
  time conservation (every virtual second on a rank's clock is charged
  to exactly one ``(phase, category)`` label) and message conservation
  (a fault-free run leaves no unconsumed mailbox messages behind).
- :func:`check_metrics` — the :class:`~repro.obs.metrics.MetricsRegistry`
  attached to a profiled solve agrees with the simulator's own
  accounting: per-rank α+β+compute+wait sums, message and byte counts.
- :func:`check_solve` — both of the above over one
  :class:`~repro.core.solver.SolveOutcome`.
- :func:`check_serve` — serve-loop conservation: every request is
  completed or shed exactly once, shed timestamps respect the deadline
  convention, batch accounting is self-consistent, and the cache obeys
  :func:`check_cache`.
- :func:`check_cache` — ``resident_bytes == Σ entry.nbytes``,
  ``resident_entries == len(cache)``, peak/lookup counter consistency.
- :func:`check_fleet` — the serve conservation laws lifted to a sharded
  fleet: the request partition holds *globally* across every worker plus
  the front door (crashes re-route, they never lose or duplicate a
  request), per-worker batch/dedup/SLO accounting is self-consistent,
  the fleet SLO fold equals the sum of its parts, and the event log is
  monotone in virtual time with counters that match it.

Plug-in points: ``Simulator(invariants=True)`` runs :func:`check_sim` on
every result; ``SolveService(invariants=True)`` runs :func:`check_serve`
after every workload.  The fuzzer (:mod:`repro.check.fuzz`) enables both
on every case it draws.
"""

from __future__ import annotations

# check_sim is re-exported: the simulator runs it from repro.comm.
from repro.comm.invariants import (  # noqa: F401
    InvariantViolation, _close, _ensure, check_sim)

# ---------------------------------------------------------------------------
# Simulation results.
# ---------------------------------------------------------------------------


def check_metrics(report) -> int:
    """The profiled registry agrees with the simulator's own accounting.

    ``report`` is a :class:`~repro.core.solver.PerfReport` whose
    ``metrics`` is a populated registry.  Per rank: the registry's
    compute + overhead + wait sum equals the simulator's charged time,
    non-ack message/byte counts match, and ack counts match the
    simulator's ``"ack"`` category.  Skipped (returns 0) for registries
    with merged external phases (GPU), whose counters are summary-level.
    """
    reg = report.metrics
    if reg is None or not reg.complete_timeline:
        return 0
    sim = report.sim
    checks = 0
    for r in range(sim.nranks):
        st = reg.stats(rank=r)
        sim_total = sum(sim.times[r].values())
        reg_total = st.compute_time + st.overhead_time + st.wait_time
        checks += 1
        _ensure(_close(reg_total, sim_total),
                "metrics.time-conservation",
                f"rank {r}: registry compute+overhead+wait {reg_total!r} != "
                f"simulator charged time {sim_total!r}")
        sim_msgs = sum(v for (p, c), v in sim.sent_msgs[r].items()
                       if c != "ack")
        sim_acks = sum(v for (p, c), v in sim.sent_msgs[r].items()
                       if c == "ack")
        sim_bytes = sum(sim.sent_bytes[r].values())
        checks += 1
        _ensure(st.msgs == sim_msgs, "metrics.msg-conservation",
                f"rank {r}: registry counted {st.msgs} messages, simulator "
                f"charged {sim_msgs}")
        checks += 1
        _ensure(st.acks == sim_acks, "metrics.ack-conservation",
                f"rank {r}: registry counted {st.acks} acks, simulator "
                f"charged {sim_acks}")
        checks += 1
        _ensure(_close(st.bytes, sim_bytes, scale=1.0),
                "metrics.byte-conservation",
                f"rank {r}: registry counted {st.bytes!r} bytes, simulator "
                f"charged {sim_bytes!r}")
    return checks


def check_solve(outcome, *, faulted: bool = False) -> int:
    """Simulation + metrics invariants over one solver outcome."""
    conservation = not outcome.report.algorithm.endswith("-gpu")
    checks = check_sim(outcome.report.sim, faulted=faulted,
                       conservation=conservation)
    checks += check_metrics(outcome.report)
    return checks


# ---------------------------------------------------------------------------
# Serving tier.
# ---------------------------------------------------------------------------


def check_cache(cache) -> int:
    """Byte/entry accounting of a :class:`FactorizationCache` is conserved."""
    stats = cache.stats
    entries = cache._entries
    actual_bytes = sum(e.nbytes for e in entries.values())
    checks = 1
    _ensure(stats.resident_bytes == actual_bytes,
            "cache.byte-conservation",
            f"stats.resident_bytes {stats.resident_bytes} != sum of entry "
            f"nbytes {actual_bytes}")
    checks += 1
    _ensure(stats.resident_entries == len(entries),
            "cache.entry-conservation",
            f"stats.resident_entries {stats.resident_entries} != "
            f"{len(entries)} entries actually resident")
    checks += 1
    _ensure(stats.peak_bytes >= stats.resident_bytes >= 0,
            "cache.peak-bound",
            f"peak_bytes {stats.peak_bytes} < resident_bytes "
            f"{stats.resident_bytes}")
    checks += 1
    _ensure(stats.lookups == stats.hits + stats.misses
            and min(stats.hits, stats.misses, stats.evictions) >= 0,
            "cache.counter-sane",
            f"hits={stats.hits} misses={stats.misses} "
            f"evictions={stats.evictions}")
    return checks


def check_serve(workload, result, service=None) -> int:
    """Serve-loop conservation over one :class:`ServeResult`.

    Every workload request is completed or shed, never both, never twice;
    shed records respect the deadline boundary convention
    (``deadline < t`` sheds); batch and SLO accounting are
    self-consistent; and, when ``service`` is given, its cache passes
    :func:`check_cache` and batches respect its policy.
    """
    from repro.serve.scheduler import RejectReason

    all_ids = [r.id for r in workload.requests]
    done = [c.request.id for c in result.completions]
    shed = [r.request.id for r in result.rejections]
    checks = 1
    _ensure(len(set(all_ids)) == len(all_ids), "serve.unique-request-ids",
            "workload contains duplicate request ids")
    checks += 1
    _ensure(len(done) == len(set(done)), "serve.single-completion",
            f"request(s) completed more than once: "
            f"{sorted({i for i in done if done.count(i) > 1})}")
    checks += 1
    _ensure(len(shed) == len(set(shed)), "serve.single-shed",
            f"request(s) shed more than once: "
            f"{sorted({i for i in shed if shed.count(i) > 1})}")
    checks += 1
    _ensure(not set(done) & set(shed), "serve.completed-xor-shed",
            f"request(s) both completed and shed: "
            f"{sorted(set(done) & set(shed))}")
    checks += 1
    _ensure(set(done) | set(shed) == set(all_ids),
            "serve.request-conservation",
            f"n_requests {len(all_ids)} != completed {len(done)} + shed "
            f"{len(shed)}; lost: {sorted(set(all_ids) - set(done) - set(shed))}"
            f", invented: {sorted((set(done) | set(shed)) - set(all_ids))}")
    for c in result.completions:
        checks += 1
        _ensure(c.t_complete >= c.request.arrival, "serve.causal-completion",
                f"request {c.request.id} completed at {c.t_complete} before "
                f"its arrival {c.request.arrival}")
    for rej in result.rejections:
        checks += 1
        _ensure(rej.reason in RejectReason, "serve.typed-shed",
                f"rejection of request {rej.request.id} has untyped reason "
                f"{rej.reason!r}")
        checks += 1
        _ensure(rej.time >= rej.request.arrival, "serve.causal-shed",
                f"request {rej.request.id} shed at t={rej.time!r} before "
                f"its arrival {rej.request.arrival!r}")
        if rej.reason is RejectReason.DEADLINE_PASSED:
            checks += 1
            _ensure(rej.time > rej.request.deadline, "serve.deadline-boundary",
                    f"request {rej.request.id} shed as deadline-passed at "
                    f"t={rej.time!r} <= its deadline "
                    f"{rej.request.deadline!r} (convention: deadline < t "
                    f"sheds)")
        if rej.reason is RejectReason.POISON_INPUT:
            checks += 1
            _ensure(bool(rej.detail), "serve.poison-typed",
                    f"poison-input shed of request {rej.request.id} carries "
                    f"no validation slug in Rejection.detail")
    batched_ids = [i for b in result.batches for i in b.request_ids]
    checks += 1
    _ensure(sorted(batched_ids) == sorted(done), "serve.batch-conservation",
            f"batched request ids != completed request ids "
            f"({len(batched_ids)} batched vs {len(done)} completed)")
    coalesced = sum(len(b.request_ids) - b.size for b in result.batches)
    checks += 1
    _ensure(result.deduped == coalesced, "serve.dedup-accounting",
            f"result.deduped {result.deduped} != sum over batches of "
            f"(requests - solved columns) {coalesced}")
    for b in result.batches:
        checks += 1
        _ensure(len(b.request_ids) >= b.size >= 1, "serve.dedup-width",
                f"batch {b.batch_id} solved {b.size} columns for "
                f"{len(b.request_ids)} requests")
    slo = result.slo
    checks += 1
    _ensure(slo.n_requests == len(all_ids)
            and slo.n_completed == len(done)
            and slo.n_shed == len(shed)
            and slo.n_batches == len(result.batches),
            "serve.slo-counts",
            f"SLO counts ({slo.n_requests}/{slo.n_completed}/{slo.n_shed}/"
            f"{slo.n_batches}) disagree with the raw records "
            f"({len(all_ids)}/{len(done)}/{len(shed)}/{len(result.batches)})")
    checks += 1
    _ensure(sum(slo.shed_by_reason.values()) == slo.n_shed,
            "serve.shed-by-reason",
            f"shed_by_reason sums to {sum(slo.shed_by_reason.values())}, "
            f"n_shed is {slo.n_shed}")
    checks += 1
    _ensure(slo.deduped == result.deduped
            and slo.n_verified == result.n_verified
            and slo.n_integrity_failures == len(result.integrity_failures),
            "serve.hardening-counters",
            f"SLO dedup/verify counters ({slo.deduped}/{slo.n_verified}/"
            f"{slo.n_integrity_failures}) disagree with the raw records "
            f"({result.deduped}/{result.n_verified}/"
            f"{len(result.integrity_failures)})")
    replayed = [b for b in result.batches if b.replayed]
    checks += 1
    _ensure(result.n_replayed == len(replayed) == slo.n_replayed,
            "serve.replay-accounting",
            f"replay counters disagree: result.n_replayed "
            f"{result.n_replayed}, batches flagged {len(replayed)}, SLO "
            f"{slo.n_replayed}")
    for b in replayed:
        checks += 1
        _ensure(b.cache_hit, "serve.replay-needs-hit",
                f"batch {b.batch_id} took the replay fast path on a "
                f"factorization-cache miss — replay artifacts are cached "
                f"with the factorization, so a miss must simulate")
    if result.solutions:
        checks += 1
        _ensure(set(result.solutions) == set(done), "serve.solution-coverage",
                "kept solutions do not match completed request ids")
    if service is not None:
        for b in result.batches:
            checks += 1
            _ensure(1 <= b.size <= service.policy.max_batch,
                    "serve.batch-width",
                    f"batch {b.batch_id} width {b.size} violates "
                    f"max_batch {service.policy.max_batch}")
        checks += check_cache(service.cache)
    return checks


def check_fleet(workload, result, service=None) -> int:
    """Fleet-level conservation over one :class:`FleetResult`.

    The single-service laws, lifted to N workers plus a front door: the
    workload's requests partition exactly into global completions and
    typed sheds (a crash re-routes work, it never loses or duplicates
    it); each worker's batch, dedup and SLO accounting is
    self-consistent; the fleet SLO fold agrees with the per-worker sums;
    and the routing/rebalance event log is monotone in virtual time with
    matching counters.  When ``service`` (the
    :class:`~repro.fleet.service.FleetService`) is given, live caches
    pass :func:`check_cache` and batch widths respect its policy.
    """
    from repro.serve.scheduler import RejectReason

    all_ids = [r.id for r in workload.requests]
    done = [c.request.id for c in result.completions]
    shed = [r.request.id for r in result.rejections]
    checks = 1
    _ensure(len(set(all_ids)) == len(all_ids), "fleet.unique-request-ids",
            "workload contains duplicate request ids")
    checks += 1
    _ensure(len(done) == len(set(done)), "fleet.single-completion",
            f"request(s) completed more than once across the fleet: "
            f"{sorted({i for i in done if done.count(i) > 1})}")
    checks += 1
    _ensure(len(shed) == len(set(shed)), "fleet.single-shed",
            f"request(s) shed more than once across the fleet: "
            f"{sorted({i for i in shed if shed.count(i) > 1})}")
    checks += 1
    _ensure(not set(done) & set(shed), "fleet.completed-xor-shed",
            f"request(s) both completed and shed: "
            f"{sorted(set(done) & set(shed))}")
    checks += 1
    _ensure(set(done) | set(shed) == set(all_ids),
            "fleet.request-conservation",
            f"n_requests {len(all_ids)} != completed {len(done)} + shed "
            f"{len(shed)}; lost: {sorted(set(all_ids) - set(done) - set(shed))}"
            f", invented: {sorted((set(done) | set(shed)) - set(all_ids))}")
    for c in result.completions:
        checks += 1
        _ensure(c.t_complete >= c.request.arrival, "fleet.causal-completion",
                f"request {c.request.id} completed at {c.t_complete} before "
                f"its arrival {c.request.arrival}")
    for rej in result.rejections:
        checks += 1
        _ensure(rej.reason in RejectReason, "fleet.typed-shed",
                f"rejection of request {rej.request.id} has untyped reason "
                f"{rej.reason!r}")
        checks += 1
        _ensure(rej.time >= rej.request.arrival, "fleet.causal-shed",
                f"request {rej.request.id} shed at t={rej.time!r} before "
                f"its arrival {rej.request.arrival!r} — a crash re-route "
                f"must not deliver (or shed) a request before it exists")
        if rej.reason is RejectReason.DEADLINE_PASSED:
            checks += 1
            _ensure(rej.time > rej.request.deadline, "fleet.deadline-boundary",
                    f"request {rej.request.id} shed as deadline-passed at "
                    f"t={rej.time!r} <= its deadline "
                    f"{rej.request.deadline!r}")

    for i in sorted(result.workers):
        wr = result.workers[i]
        wdone = [c.request.id for c in wr.completions]
        batched = [j for b in wr.batches for j in b.request_ids]
        checks += 1
        _ensure(sorted(batched) == sorted(wdone),
                "fleet.worker-batch-conservation",
                f"worker {i}: batched request ids != completed ids "
                f"({len(batched)} batched vs {len(wdone)} completed) — a "
                f"crash rollback left a stale batch or completion behind")
        coalesced = sum(len(b.request_ids) - b.size for b in wr.batches)
        checks += 1
        _ensure(wr.deduped == coalesced, "fleet.worker-dedup-accounting",
                f"worker {i}: deduped {wr.deduped} != batch fan-out sum "
                f"{coalesced}")
        for b in wr.batches:
            checks += 1
            _ensure(len(b.request_ids) >= b.size >= 1, "fleet.dedup-width",
                    f"worker {i} batch {b.batch_id} solved {b.size} columns "
                    f"for {len(b.request_ids)} requests")
        slo = wr.slo
        checks += 1
        _ensure(slo.n_requests == len(wr.completions) + len(wr.rejections)
                and slo.n_completed == len(wr.completions)
                and slo.n_shed == len(wr.rejections)
                and slo.n_batches == len(wr.batches),
                "fleet.worker-slo-counts",
                f"worker {i}: SLO counts ({slo.n_requests}/{slo.n_completed}/"
                f"{slo.n_shed}/{slo.n_batches}) disagree with raw records")

    agg = result.slo
    checks += 1
    _ensure(agg.n_requests == len(all_ids)
            and agg.n_completed == len(done)
            and agg.n_shed == len(shed),
            "fleet.slo-counts",
            f"fleet SLO counts ({agg.n_requests}/{agg.n_completed}/"
            f"{agg.n_shed}) disagree with the merged records "
            f"({len(all_ids)}/{len(done)}/{len(shed)})")
    checks += 1
    _ensure(sum(agg.shed_by_reason.values()) == agg.n_shed,
            "fleet.shed-by-reason",
            f"shed_by_reason sums to {sum(agg.shed_by_reason.values())}, "
            f"n_shed is {agg.n_shed}")
    parts = result.workers.values()
    checks += 1
    _ensure(agg.n_batches == sum(len(w.batches) for w in parts)
            and agg.deduped == sum(w.deduped for w in parts)
            and agg.n_replayed == sum(w.n_replayed for w in parts)
            and agg.n_verified == sum(w.n_verified for w in parts)
            and agg.n_integrity_failures == sum(len(w.integrity_failures)
                                                for w in parts),
            "fleet.slo-fold",
            "fleet SLO aggregate disagrees with the per-worker sums")
    times = [e["t"] for e in result.events]
    checks += 1
    _ensure(all(a <= b for a, b in zip(times, times[1:])),
            "fleet.event-monotone",
            "routing/rebalance event log is not monotone in virtual time")
    by_kind: dict = {}
    for e in result.events:
        if not e["detail"].startswith("ignored"):
            by_kind[e["kind"]] = by_kind.get(e["kind"], 0) + 1
    cnt = result.counters
    checks += 1
    _ensure(cnt.get("n_crashes", 0) == by_kind.get("crash", 0)
            and cnt.get("n_recoveries", 0) == by_kind.get("recover", 0)
            and cnt.get("n_scale_up", 0) == by_kind.get("scale-up", 0)
            and cnt.get("n_scale_down", 0) == by_kind.get("scale-down", 0),
            "fleet.event-counters",
            f"counters {cnt} disagree with the event log {by_kind}")
    if service is not None:
        for i in sorted(result.workers):
            for b in result.workers[i].batches:
                checks += 1
                _ensure(1 <= b.size <= service.policy.max_batch,
                        "fleet.batch-width",
                        f"worker {i} batch {b.batch_id} width {b.size} "
                        f"violates max_batch {service.policy.max_batch}")
            checks += check_cache(service.workers[i].svc.cache)
    return checks
