"""Chaos tests: the resilience invariant under seeded fault sweeps.

The invariant (see ``docs/FAULTS.md``): every resilient solve under an
arbitrary fault plan either returns a correct solution (residual at or
below the tolerance) or raises a diagnosable typed error — never a silent
wrong answer.  The sweep is the ``kind="chaos"`` family of
:mod:`repro.check.fuzz`: :func:`~repro.check.fuzz.chaos_cases` enumerates
the cells and :func:`~repro.check.fuzz.run_case` runs each one.  The
``smoke`` test runs a reduced sweep quickly (used by the CI smoke job); the
full sweep covers every fault kind on all three algorithms.

tests/corpus/chaos_digests.json pins every cell's outcome of the full
sweep and the seed-7 sweep: status, tier, error type, residual and
virtual time as ``float.hex``, and the fault-event count.  Regenerate
(only for an intended change of fault or resilience behaviour) with
``PYTHONPATH=src python -m tests.test_chaos``.
"""

import json
import os

import pytest

import repro.check.fuzz
from repro.check import CaseResult, FuzzCase, chaos_cases, run_case
from repro.check.fuzz import CHAOS_KINDS, GENERATORS, TYPED_ERRORS
from repro.comm import FaultPlan
from repro.core import Resilience, ResilienceExhausted, SpTRSVSolver
from repro.matrices import make_rhs
from repro.numfact import solve_residual

SMOKE_SEED = 2023  # fixed: CI must test the same schedules as local runs

CHAOS_DIGESTS = os.path.join(os.path.dirname(__file__), "corpus",
                             "chaos_digests.json")

ALGORITHMS = ("new3d", "baseline3d", "2d")


def _sweep(*algorithms, **kw) -> list[CaseResult]:
    return [run_case(c) for c in chaos_cases(algorithms, **kw)]


def _breaches(results) -> list[str]:
    return [r.summary() for r in results if not r.ok]


@pytest.fixture(scope="module")
def full_sweep():
    return _sweep(*ALGORITHMS, rates=(0.0, 0.05), seeds=(SMOKE_SEED,))


# The chaos family's matrix, on the grids chaos_cases gives each algorithm.
@pytest.fixture(scope="module")
def solver3d():
    return SpTRSVSolver(GENERATORS["poisson2d"][0](12), 2, 1, 2,
                        max_supernode=8)


@pytest.fixture(scope="module")
def solver2d():
    return SpTRSVSolver(GENERATORS["poisson2d"][0](12), 2, 2, 1,
                        max_supernode=8)


def test_chaos_smoke_invariant():
    """Reduced sweep for CI: every cell correct or typed-error."""
    results = _sweep("new3d", "2d", kinds=("drop", "corrupt", "crash"),
                     rates=(0.0, 0.05), seeds=(SMOKE_SEED,))
    assert not _breaches(results)
    assert len(results) == 2 * 3 * 2
    statuses = [r.status for r in results]
    assert statuses.count("exact") >= 6  # all rate-0 cells at least
    assert all(r.checks == 1 for r in results)
    assert "chaos[" in results[0].summary()


def test_chaos_full_sweep_all_kinds(full_sweep):
    """Every fault kind, all three algorithms, two rates, one seed."""
    assert not _breaches(full_sweep)
    assert {(r.case.algorithm, r.case.fault_kind) for r in full_sweep} == {
        (a, k) for a in ALGORITHMS for k in CHAOS_KINDS}
    # Benign kinds (duplicate/delay/reorder) must not force degradation
    # below the requested algorithm: recovery yes, silent corruption never.
    for r in full_sweep:
        if r.case.fault_kind in ("duplicate", "delay") and r.status not in (
                "typed-error",):
            assert r.residual is not None and r.residual <= 1e-10


def test_chaos_identical_seeds_identical_runs():
    """Same seed -> same fault schedule, clocks, statuses (determinism)."""
    kw = dict(kinds=("drop", "corrupt"), rates=(0.05,), seeds=(7,))
    r1 = _sweep("new3d", **kw)
    r2 = _sweep("new3d", **kw)
    assert len(r1) == len(r2)
    for a, b in zip(r1, r2):
        assert (a.status, a.tier, a.error) == (b.status, b.tier, b.error)
        assert a.virtual_time == b.virtual_time
        assert a.fault_events == b.fault_events
        assert a.residual == b.residual


def test_chaos_reliable_completes_in_tier(solver3d, solver2d):
    """reliable=True + nonzero drop: 2D and new-3D finish without fallback."""
    res = Resilience(reliable=True, checksums=False, residual_tol=1e-10)
    b3 = make_rhs(solver3d.n, 1)
    b2 = make_rhs(solver2d.n, 1)
    for alg, solver, rhs in (("new3d", solver3d, b3), ("2d", solver2d, b2)):
        plan = FaultPlan.uniform(seed=SMOKE_SEED, drop=0.05)
        out = solver.solve(rhs, algorithm=alg, faults=plan, resilience=res)
        rr = out.resilience
        assert rr.tier == alg, f"{alg} degraded to {rr.tier}"
        assert len(rr.attempts) == 1
        assert solve_residual(solver.A, out.x, rhs) <= 1e-10
        counts = out.report.sim.fault_counts()
        assert counts.get("drop", 0) >= 1
        assert counts.get("retransmit", 0) == counts.get("drop", 0)


def test_chaos_unreliable_drop_degrades_but_solves(solver3d):
    """Without the envelope, heavy drop falls back — still a correct x."""
    b = make_rhs(solver3d.n, 1)
    plan = FaultPlan.uniform(seed=SMOKE_SEED, drop=0.3)
    res = Resilience(residual_tol=1e-10, retries_per_tier=0)
    out = solver3d.solve(b, algorithm="new3d", faults=plan, resilience=res)
    rr = out.resilience
    assert solve_residual(solver3d.A, out.x, b) <= 1e-10
    assert rr.degraded
    assert rr.tier == "reference"
    # The failed attempts are all typed and diagnosable.
    for a in rr.attempts:
        if a.status != "ok":
            assert a.status in ("error", "bad-residual")
    assert any(a.error for a in rr.attempts)


def test_chaos_run_classification(monkeypatch):
    """A typed error passes the invariant; a wrong answer that does not
    raise, or an untyped error, is a breach."""
    case, = chaos_cases(("new3d",), kinds=("drop",), rates=(0.05,),
                        seeds=(SMOKE_SEED,))
    assert FuzzCase.from_json(case.to_json()) == case
    assert all(issubclass(t, Exception) for t in TYPED_ERRORS)
    solve = SpTRSVSolver.solve

    def failing(exc):
        def faulted_solve(self, b, **kw):
            if kw.get("faults") is not None:
                raise exc
            return solve(self, b, **kw)
        return faulted_solve

    monkeypatch.setattr(SpTRSVSolver, "solve",
                        failing(ResilienceExhausted([])))
    typed = run_case(case)
    assert typed.ok and typed.status == "typed-error"
    assert typed.error == "ResilienceExhausted"

    monkeypatch.setattr(SpTRSVSolver, "solve", failing(KeyError("boom")))
    untyped = run_case(case)
    assert not untyped.ok and "crashed: KeyError" in untyped.mismatches[0]

    monkeypatch.setattr(SpTRSVSolver, "solve", solve)
    calls = []

    def lying_residual(A, x, b):  # lossless solve honest, chaos solve not
        calls.append(1)
        return solve_residual(A, x, b) if len(calls) == 1 else 1.0

    monkeypatch.setattr(repro.check.fuzz, "solve_residual", lying_residual)
    wrong = run_case(case)
    assert wrong.status == "silent-wrong" and not wrong.ok
    assert "silent wrong answer" in wrong.mismatches[0]


def chaos_digests(full=None) -> dict:
    """Per-cell outcome of the full sweep and the seed-7 sweep."""
    if full is None:
        full = _sweep(*ALGORITHMS, rates=(0.0, 0.05), seeds=(SMOKE_SEED,))
    det = _sweep("new3d", kinds=("drop", "corrupt"), rates=(0.05,),
                 seeds=(7,))
    return {f"{c.algorithm}/{c.fault_kind}@{c.fault_rate:g}/seed{c.seed}": {
        "status": r.status, "tier": r.tier, "error": r.error,
        "residual": None if r.residual is None else r.residual.hex(),
        "virtual_time": r.virtual_time.hex(),
        "fault_events": r.fault_events}
        for r in full + det for c in (r.case,)}


def test_chaos_matches_pinned_corpus(full_sweep):
    with open(CHAOS_DIGESTS) as f:
        pinned = json.load(f)
    assert chaos_digests(full_sweep) == pinned


if __name__ == "__main__":
    with open(CHAOS_DIGESTS, "w") as f:
        json.dump(chaos_digests(), f, indent=1, sort_keys=True)
        f.write("\n")
