"""The serving tier's observable output, pinned across commits.

tests/corpus/serve_digests.json holds one SHA-256 per declared service or
fleet run: its SLO JSON (a fleet's full ``FleetReport`` JSON, events and
counters), every rejection and every ``BatchRecord`` with times as
``float.hex``, the key order of the kept solutions and the count of
integrity failures.  Solution *bits* stay out, as in ``sim_digests.json``,
so the digests do not depend on the host's BLAS; the batching and replay
tests pin those bits against cold solves.  A refactor of the service loop
or of the fleet's crash handling must reproduce every digest.

A fleet row carries two digests: ``full`` over that document and
``masked`` over the same document without ``BatchRecord.replayed`` and
without any ``n_replayed``.  Which batches replay depends on which
recordings a worker can reach; the masked digest pins everything else.
A crash row also stores its crash point ``[worker, t_crash, t_recover]``
(times as ``float.hex``), so the run it pins does not depend on a probe
run's replay flags; a new crash row derives its point from an uncrashed
probe (:func:`_crash_inside`).

Regenerate (only for an intended change of serving behaviour) with
``PYTHONPATH=src python -m tests.test_serve_corpus``.
"""

import hashlib
import json
import os

from repro.comm.faults import FaultPlan, FaultSchedule
from repro.core.solver import Resilience
from repro.fleet import AutoscalerPolicy, FleetConfig, FleetService
from repro.matrices import resolve_matrix
from repro.serve import (
    BatchPolicy,
    Request,
    ServiceConfig,
    SolveService,
    Workload,
    WorkloadSpec,
    generate_workload,
    zipf_mix,
)

SERVE_DIGESTS = os.path.join(os.path.dirname(__file__), "corpus",
                             "serve_digests.json")

GRID = dict(px=1, py=1, pz=2)
POLICY = BatchPolicy(max_batch=4, max_wait=1e-3, queue_bound=64)
MIX = ("ldoor", "dielFilterV3real", "s1_mat_0_253872")


def _workload(n=40, rate=1e6, seed=0, s=1.0, matrices=MIX):
    return generate_workload(WorkloadSpec(
        seed=seed, rate=rate, n_requests=n,
        mix=zipf_mix(matrices, "tiny", s=s), deadline=0.1))


def _duplicates(n=24):
    """One matrix; every third request repeats its predecessor's solve."""
    return Workload(requests=[
        Request(id=i, arrival=i * 5e-5, matrix="ldoor", scale="tiny",
                rhs_seed=i - 1 if i % 3 == 0 and i else i, deadline=1.0)
        for i in range(n)])


def _poison():
    """Poison matrices and poison right-hand sides among good traffic."""
    reqs = []
    for i in range(12):
        matrix = ("poison-nan" if i % 7 == 3 else
                  "poison-singular" if i % 11 == 5 else "ldoor")
        kind = "poison-inf" if i % 5 == 2 else "random"
        reqs.append(Request(id=i, arrival=i * 1e-4, matrix=matrix,
                            scale="tiny", rhs_seed=i, deadline=1.0,
                            rhs_kind=kind))
    return Workload(requests=reqs)


def _batch_rows(batches, masked=False):
    return [[b.batch_id, b.matrix, b.scale, b.size, b.request_ids,
             b.t_dispatch.hex(), b.t_complete.hex(), b.cache_hit,
             b.setup_time.hex(), b.solve_time.hex(),
             *(() if masked else (b.replayed,))]
            for b in batches]


def _rejection_rows(rejections):
    return [[r.request.id, str(r.reason), r.time.hex(), r.detail]
            for r in rejections]


def _digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _serve_digest(svc: SolveService, wl: Workload) -> str:
    res = svc.run(wl)
    return _digest({
        "slo": json.loads(res.slo.to_json()),
        "rejections": _rejection_rows(res.rejections),
        "batches": _batch_rows(res.batches),
        "solutions": list(res.solutions),
        "integrity_failures": len(res.integrity_failures),
    })


def _fleet(workers=3, crash=None, autoscaler=None, verify=0.0, replay=True,
           **kw) -> FleetService:
    return FleetService(
        FleetConfig(workers=workers, **kw),
        ServiceConfig(**GRID, replay=replay), POLICY, crash_schedule=crash,
        autoscaler=autoscaler, keep_solutions=True, invariants=True,
        verify_fraction=verify)


def _without_n_replayed(doc):
    if isinstance(doc, dict):
        return {k: _without_n_replayed(v) for k, v in doc.items()
                if k != "n_replayed"}
    if isinstance(doc, list):
        return [_without_n_replayed(v) for v in doc]
    return doc


def _fleet_doc(res, masked: bool) -> dict:
    report = json.loads(res.report.to_json())
    return {
        "report": _without_n_replayed(report) if masked else report,
        "events": res.events,
        "counters": res.counters,
        "workers": {str(i): {
            "rejections": _rejection_rows(w.rejections),
            "batches": _batch_rows(w.batches, masked),
            "solutions": list(w.solutions),
            "integrity_failures": len(w.integrity_failures)}
            for i, w in sorted(res.workers.items())},
        "rejections": _rejection_rows(res.rejections),
        "solutions": list(res.solutions),
    }


def _fleet_digest(fs: FleetService, wl: Workload, crash=None) -> dict:
    res = fs.run(wl)
    row = {"full": _digest(_fleet_doc(res, masked=False)),
           "masked": _digest(_fleet_doc(res, masked=True))}
    if crash is not None:
        row["crash"] = crash
    return row


def _crash(worker, tc, tr):
    return FaultSchedule(
        ((tc, tr, FaultPlan.uniform(seed=worker, crash={worker: tc})),))


def _crash_inside(make, wl: Workload, replayed: bool) -> list:
    """Crash point ``[worker, t_crash, t_recover]`` (times ``float.hex``)
    at the midpoint of the busiest worker's second batch of the wanted
    kind (replayed or simulated, two requests or more) in an uncrashed
    probe run of ``make(None)``."""
    probe = make(None).run(wl)
    w, picks = max(((i, [b for b in r.batches
                         if b.replayed == replayed and b.size >= 2])
                    for i, r in probe.workers.items()),
                   key=lambda wb: len(wb[1]))
    b = picks[1]
    tc = (b.t_dispatch + b.t_complete) / 2
    assert b.t_dispatch <= tc < b.t_complete
    return [w, tc.hex(), (tc + 4e-3).hex()]


def _crashed_fleet_digest(make, wl: Workload, replayed: bool,
                          crash: list | None) -> dict:
    """Digest of ``make(crash_schedule)`` crashed at the pinned ``crash``
    point (derived by :func:`_crash_inside` when the row is new)."""
    if crash is None:
        crash = _crash_inside(make, wl, replayed)
    w, tc, tr = crash
    return _fleet_digest(
        make(_crash(w, float.fromhex(tc), float.fromhex(tr))), wl, crash)


def _pinned() -> dict:
    if not os.path.exists(SERVE_DIGESTS):
        return {}
    with open(SERVE_DIGESTS) as f:
        return json.load(f)


def serve_cases(pinned: dict):
    """(label, thunk -> row) for every declared run; crash rows read
    their crash point from ``pinned``."""

    def crash_of(label):
        return pinned.get(label, {}).get("crash")

    cfg = ServiceConfig(**GRID)
    wl = _workload(n=32, rate=1e5)
    yield "serve/default", lambda: _serve_digest(
        SolveService(cfg, POLICY), wl)
    yield "serve/profile", lambda: _serve_digest(
        SolveService(cfg, POLICY, profile=True), wl)
    yield "serve/verify-duplicates", lambda: _serve_digest(
        SolveService(cfg, POLICY, verify_fraction=1.0, verify_seed=5),
        _duplicates())
    yield "serve/poison", lambda: _serve_digest(
        SolveService(cfg, POLICY, matrix_provider=resolve_matrix,
                     verify_fraction=1.0), _poison())
    yield "serve/faults-resilience", lambda: _serve_digest(
        SolveService(cfg, POLICY, faults=FaultPlan.uniform(seed=3, drop=0.05),
                     resilience=Resilience(reliable=True)),
        _workload(n=8, rate=1e5, matrices=("ldoor",)))
    yield "serve/planner", lambda: _serve_digest(
        SolveService(ServiceConfig(**GRID, planner=True), POLICY), wl)
    yield "serve/replay-off", lambda: _serve_digest(
        SolveService(ServiceConfig(**GRID, replay=False), POLICY), wl)

    fwl = _workload(n=48)
    yield "fleet/w1", lambda: _fleet_digest(_fleet(workers=1), fwl)
    yield "fleet/w3", lambda: _fleet_digest(_fleet(workers=3), fwl)
    yield "fleet/replication2", lambda: _fleet_digest(
        _fleet(workers=4, replication=2), _workload(n=32, s=8.0))
    yield "fleet/crash-simulated", lambda: _crashed_fleet_digest(
        lambda c: _fleet(crash=c, verify=1.0), fwl, False,
        crash_of("fleet/crash-simulated"))
    yield "fleet/crash-replayed", lambda: _crashed_fleet_digest(
        lambda c: _fleet(crash=c, verify=0.5), fwl, True,
        crash_of("fleet/crash-replayed"))
    yield "fleet/all-down", lambda: _fleet_digest(
        _fleet(workers=1, crash=_crash(0, 1e-5, 1.0)),
        _workload(n=12, matrices=("ldoor",)))
    yield "fleet/admit-bound", lambda: _fleet_digest(
        _fleet(workers=2, admit_bound=12), fwl)
    scaler = AutoscalerPolicy(period=5e-4, max_workers=4)
    yield "fleet/autoscale", lambda: _fleet_digest(
        _fleet(workers=1, autoscaler=scaler), fwl)
    yield "fleet/autoscale-crash", lambda: _crashed_fleet_digest(
        lambda c: _fleet(workers=1, autoscaler=scaler, crash=c), fwl, True,
        crash_of("fleet/autoscale-crash"))


def serve_digests(pinned: dict) -> dict:
    return {label: thunk() for label, thunk in serve_cases(pinned)}


def test_serving_matches_pinned_corpus():
    pinned = _pinned()
    assert serve_digests(pinned) == pinned


if __name__ == "__main__":
    rows = serve_digests(_pinned())
    with open(SERVE_DIGESTS, "w") as f:
        json.dump(rows, f, indent=1, sort_keys=True)
        f.write("\n")
