"""Tests for the multi-backend zoo and the cost-model planner.

Covers the two new backends (communication-avoiding block TRSM and the
structurally-filtered inter-grid allreduce), the planner's static pricing
against measured virtual times, decision caching, ``algorithm="auto"``
bit-identity, the measured-feedback correction path at a deliberately
cliff-adjacent machine point, and the serving-tier integration.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.comm.costmodel import CORI_HASWELL, MACHINES
from repro.core import SpTRSVSolver
from repro.matrices import get_matrix, make_rhs
from repro.planner import (
    DEFAULT_PLANNER,
    Planner,
    candidates,
    predict_time,
    schedule_time,
)

GRIDS = [(1, 1, 1), (2, 1, 2), (2, 2, 2), (1, 2, 4)]


@pytest.fixture(scope="module")
def A():
    return get_matrix("s2D9pt2048", scale="tiny")


def make_solver(A, grid, machine=None):
    px, py, pz = grid
    return SpTRSVSolver(A, px, py, pz, machine=machine or CORI_HASWELL,
                        max_supernode=8)


# -- backend correctness -----------------------------------------------------

@pytest.mark.parametrize("grid", GRIDS)
def test_ca_trsm_exact(A, grid):
    solver = make_solver(A, grid)
    b = make_rhs(A.shape[0], nrhs=3, seed=5)
    out = solver.solve(b, algorithm="ca_trsm")
    ref = solver.solve(b, algorithm="new3d")
    assert np.allclose(out.x, ref.x, rtol=0, atol=1e-12)
    assert np.max(np.abs(A @ out.x - b)) < 1e-10


@pytest.mark.parametrize("grid", [(2, 1, 2), (2, 2, 2), (1, 2, 4)])
def test_sparse_allreduce_v2_bit_identical_to_new3d(A, grid):
    """The structural filter drops only messages that carry exact zeros,
    so v2 must reproduce new3d's solution bit for bit."""
    solver = make_solver(A, grid)
    b = make_rhs(A.shape[0], nrhs=2, seed=6)
    x_v2 = solver.solve(b, algorithm="sparse_allreduce_v2").x
    x_ref = solver.solve(b, algorithm="new3d").x
    assert np.array_equal(x_v2, x_ref)


# -- static pricing ----------------------------------------------------------

@pytest.mark.parametrize("grid", [(2, 1, 2), (2, 2, 2)])
def test_predictions_match_measured_virtual_times(A, grid):
    """On the stock machines every SpTRSV kernel is memory-bound, so the
    planner's segment aggregation is lossless and its predicted makespan
    must equal the simulator's measured one."""
    solver = make_solver(A, grid)
    b = make_rhs(A.shape[0], nrhs=1, seed=7)
    for alg in candidates(solver):
        predicted = predict_time(solver, alg, nrhs=1)
        measured = solver.solve(b, algorithm=alg).report.total_time
        assert predicted == pytest.approx(measured, rel=1e-9), alg


def test_schedule_time_rejects_incomplete(A):
    from repro.analyze.extract import solver_schedule

    solver = make_solver(A, (2, 1, 2))
    sched = solver_schedule(solver, algorithm="new3d", nrhs=1)
    incomplete = dataclasses.replace(sched, complete=False)
    with pytest.raises(ValueError, match="incomplete"):
        schedule_time(incomplete, CORI_HASWELL)


# -- planning, caching, and auto ---------------------------------------------

def test_planner_pick_matches_measured_ranking(A):
    solver = make_solver(A, (2, 1, 2))
    b = make_rhs(A.shape[0], nrhs=1, seed=8)
    planner = Planner()
    d = planner.choose(solver)
    measured = {alg: solver.solve(b, algorithm=alg).report.total_time
                for alg in candidates(solver)}
    best = min(measured, key=lambda a: (measured[a],
                                        candidates(solver).index(a)))
    assert d.algorithm == best
    assert set(d.predicted) == set(candidates(solver))


def test_decision_cache_hits(A):
    solver = make_solver(A, (2, 1, 2))
    planner = Planner()
    d1 = planner.choose(solver, nrhs=2)
    d2 = planner.choose(solver, nrhs=2)
    assert d1 is d2
    assert planner.decisions() == [d1]
    # A different batch width is a different problem.
    d3 = planner.choose(solver, nrhs=3)
    assert d3 is not d1


def test_matrix_is_hashed_once_per_solver(A, monkeypatch):
    """The decision key holds the matrix digest; the solver keeps it, so a
    cached lookup does not re-hash the CSR arrays."""
    import repro.matrices

    solver = make_solver(A, (2, 1, 2))
    reference = Planner().choose(make_solver(A, (2, 1, 2)), nrhs=2)
    calls = []
    real = repro.matrices.matrix_fingerprint

    def counting(M):
        calls.append(M)
        return real(M)

    monkeypatch.setattr(repro.matrices, "matrix_fingerprint", counting)
    planner = Planner()
    d1 = planner.choose(solver, nrhs=2)
    d2 = planner.choose(solver, nrhs=2)
    assert len(calls) == 1 and d1 is d2
    assert (d1.key, d1.algorithm, d1.predicted) == (
        reference.key, reference.algorithm, reference.predicted)


@pytest.fixture
def extractions(monkeypatch):
    """Backend name of every schedule whose rank programs were driven."""
    from repro.analyze import extract

    names = []

    def counting(*args, name, **kwargs):
        names.append(name.split()[0].split("[")[0])
        return real(*args, name=name, **kwargs)

    real = extract.extract_schedule
    monkeypatch.setattr(extract, "extract_schedule", counting)
    return names


def test_six_widths_cost_two_extractions_per_candidate(A, extractions):
    solver = make_solver(A, (2, 1, 2))
    planner = Planner()
    for nrhs in (4, 1, 2, 3, 6, 16):
        planner.choose(solver, nrhs=nrhs)
    assert len(planner.decisions()) == 6
    assert sorted(extractions) == sorted(2 * candidates(solver))


def test_repricing_on_another_machine_extracts_nothing(A, extractions):
    solver = make_solver(A, (2, 1, 2))
    planner = Planner()
    d = planner.choose(solver, nrhs=4)
    assert len(extractions) == len(candidates(solver))
    del extractions[:]
    other = planner.choose(solver, nrhs=4, machine=MACHINES["perlmutter-cpu"])
    assert extractions == []
    assert other is not d and other.predicted != d.predicted
    fresh = make_solver(A, (2, 1, 2))
    assert other.predicted == {
        alg: predict_time(fresh, alg, 4, MACHINES["perlmutter-cpu"])
        for alg in candidates(fresh)}


@pytest.mark.parametrize("grid", [(2, 2, 1), (2, 1, 2), (1, 2, 4)])
def test_auto_bit_identical_to_direct(A, grid):
    solver = make_solver(A, grid)
    b = make_rhs(A.shape[0], nrhs=2, seed=9)
    auto = solver.solve(b, algorithm="auto")
    direct = solver.solve(b, algorithm=auto.report.algorithm)
    assert np.array_equal(auto.x, direct.x)
    assert auto.report.total_time == direct.report.total_time


def test_auto_requires_cpu(A):
    solver = make_solver(A, (2, 1, 2))
    b = make_rhs(A.shape[0], nrhs=1, seed=10)
    with pytest.raises(ValueError, match="auto"):
        solver.solve(b, algorithm="auto", device="gpu")


# -- measured-feedback correction (the mispredict cliff) ---------------------

def _cliff_machine():
    """A bandwidth/latency point adjacent to the new3d/baseline3d cost
    cliff: fat messages (beta x256) but cheap startup (alpha x0.25).

    Here the planner's lower-bound compute aggregation prices the
    z-phase algorithms close enough that the model picks onesided_put
    while the simulator measures new3d ~2% faster — a genuine,
    deterministic misprediction the feedback path must absorb.
    """
    m = CORI_HASWELL
    net = dataclasses.replace(
        m.net,
        beta_intra=m.net.beta_intra * 256.0,
        beta_inter=m.net.beta_inter * 256.0,
        alpha_intra=m.net.alpha_intra * 0.25,
        alpha_inter=m.net.alpha_inter * 0.25)
    return m.with_(net=net, name="cori-haswell-cliff")


def test_mispredict_is_corrected_by_measured_feedback(A):
    machine = _cliff_machine()
    solver = make_solver(A, (2, 1, 2))
    b = make_rhs(A.shape[0], nrhs=4, seed=11)
    planner = Planner()

    d = planner.choose(solver, nrhs=4, machine=machine)
    measured = {alg: solver.solve(b, algorithm=alg,
                                  machine=machine).report.total_time
                for alg in candidates(solver)}
    best = min(measured, key=measured.get)

    # The cliff is real: the model picks one backend, the measurement
    # ranks another strictly better.
    assert d.algorithm == "onesided_put"
    assert best == "new3d"
    assert measured[best] < measured[d.algorithm]

    corrected = planner.observe(solver, measured, nrhs=4, machine=machine)
    assert corrected is d
    assert d.corrected
    assert d.algorithm == best
    assert len(planner.corrections) == 1
    corr = planner.corrections[0]
    assert corr.predicted_pick == "onesided_put"
    assert corr.measured_pick == "new3d"
    # The cache now serves the corrected pick.
    assert planner.choose(solver, nrhs=4, machine=machine).algorithm == best
    # Re-observing the same measurements is idempotent.
    planner.observe(solver, measured, nrhs=4, machine=machine)
    assert len(planner.corrections) == 1


def test_observe_without_better_measurement_keeps_pick(A):
    solver = make_solver(A, (2, 1, 2))
    planner = Planner()
    d = planner.choose(solver)
    planner.observe(solver, {d.algorithm: 1.0})
    assert not d.corrected
    assert not planner.corrections


# -- serving-tier integration ------------------------------------------------

def test_service_planner_routes_and_verifies():
    from repro.serve import (
        BatchPolicy,
        ServiceConfig,
        SolveService,
        WorkloadSpec,
        generate_workload,
    )

    spec = WorkloadSpec(seed=3, rate=2000.0, n_requests=8,
                        mix=(("s2D9pt2048", "tiny", 1.0),),
                        deadline=0.1)
    wl = generate_workload(spec)
    kw = dict(px=1, py=1, pz=2, machine="cori-haswell", max_supernode=8)
    pol = BatchPolicy(max_batch=4, max_wait=1e-3)
    svc = SolveService(ServiceConfig(planner=True, **kw), pol,
                       verify_fraction=1.0)
    planned = svc.run(wl)
    assert planned.slo.n_completed == len(wl)
    # The planner-routed service answers with some cached CPU pick and the
    # verifier (which re-solves on the same resolved backend) stays quiet:
    # the bit-identity contract is planner-transparent.
    assert planned.n_verified > 0
    assert planned.integrity_failures == []


def test_service_planner_requires_cpu():
    from repro.serve import ServiceConfig

    with pytest.raises(ValueError, match="planner"):
        ServiceConfig(px=1, py=1, pz=2, device="gpu", planner=True)


def test_service_skips_replay_for_nonreplayable_backends(A):
    # The replay compiler does not cover every backend; a serve run pinned
    # to one it does not must fall back to the simulator on cache-hit
    # batches instead of crashing in the schedule compiler.
    from repro.serve import (
        BatchPolicy,
        ServiceConfig,
        SolveService,
        WorkloadSpec,
        generate_workload,
    )

    spec = WorkloadSpec(seed=5, rate=2000.0, n_requests=8,
                        mix=(("s2D9pt2048", "tiny", 1.0),),
                        deadline=0.1)
    wl = generate_workload(spec)
    pol = BatchPolicy(max_batch=4, max_wait=1e-3)
    svc = SolveService(ServiceConfig(px=1, py=1, pz=2,
                                     machine="cori-haswell",
                                     max_supernode=8, algorithm="ca_trsm"),
                       pol)
    res = svc.run(wl)
    assert res.slo.n_completed == len(wl)
    assert res.n_replayed == 0
    assert res.slo.cache_hits > 0  # the skip mattered: hits did occur


def test_replay_rejects_nonreplayable_backend(A):
    from repro.replay import REPLAYABLE, ReplayError

    assert "ca_trsm" not in REPLAYABLE
    solver = make_solver(A, (2, 1, 2))
    b = make_rhs(A.shape[0], 1, seed=0)
    with pytest.raises(ReplayError, match="replay does not support"):
        solver.solve(b, algorithm="ca_trsm", replay=True)


def test_cli_planner_log_is_deterministic(tmp_path, capsys):
    from repro.cli import main

    argv = ["planner", "--matrix", "s2D9pt2048", "--scale", "tiny",
            "--max-supernode", "8", "--grids", "2x2x1,2x1x2"]
    out1 = tmp_path / "a.log"
    out2 = tmp_path / "b.log"
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_text() == out2.read_text()
    assert "pick " in out1.read_text()


# -- predictions pinned across commits -----------------------------------------
#
# tests/corpus/planner_decisions.json holds every candidate's predict_time as
# float.hex(), each from a fresh solver, so every pinned value was priced on
# a schedule the extractor really drove at that width.  It was generated at
# PR 21, before solvers kept their schedules.  The test recomputes the table
# on ONE solver per (matrix, grid), in two width orders, so every width after
# the second is derived from the first two — a systematic drift in the
# derivation cannot hide behind "two runs of one commit agree".  Regenerate
# (only for an intended model change) with
# ``PYTHONPATH=src python -m tests.test_planner``.

DECISIONS = os.path.join(os.path.dirname(__file__), "corpus",
                         "planner_decisions.json")
PIN_MATRICES = ("s2D9pt2048", "nlpkkt80", "ldoor")
PIN_GRIDS = ((2, 2, 1), (2, 1, 2), (2, 2, 2), (1, 2, 4), (1, 1, 4))
PIN_WIDTHS = (1, 2, 3, 4, 6, 16)
PIN_MACHINES = ("cori-haswell", "perlmutter-cpu")


def _pin_pipeline(name):
    A = get_matrix(name, scale="tiny")
    s = SpTRSVSolver(A, 1, 1, 4, max_supernode=8)
    return A, s.tree, s.sym, s.lu


def _pin_predictions(solver, name, grid, nrhs):
    at = f"{name} {'x'.join(map(str, grid))} nrhs={nrhs}"
    return {f"{at} {m}": {
                alg: predict_time(solver, alg, nrhs, MACHINES[m]).hex()
                for alg in candidates(solver)}
            for m in PIN_MACHINES}


def planner_decisions():
    out = {}
    for name in PIN_MATRICES:
        pipe = _pin_pipeline(name)
        for grid in PIN_GRIDS:
            for nrhs in PIN_WIDTHS:
                fresh = SpTRSVSolver.from_pipeline(*pipe, *grid)
                out.update(_pin_predictions(fresh, name, grid, nrhs))
    return out


@pytest.mark.parametrize("name", PIN_MATRICES)
def test_predictions_match_pinned_corpus_in_any_width_order(name):
    with open(DECISIONS) as f:
        pinned = json.load(f)
    pipe = _pin_pipeline(name)
    for order in (PIN_WIDTHS, (16,) + PIN_WIDTHS[:-1]):
        for grid in PIN_GRIDS:
            solver = SpTRSVSolver.from_pipeline(*pipe, *grid)
            for nrhs in order:
                for key, preds in _pin_predictions(solver, name, grid,
                                                   nrhs).items():
                    assert preds == pinned[key], (key, order)


if __name__ == "__main__":
    with open(DECISIONS, "w") as f:
        json.dump(planner_decisions(), f, indent=1, sort_keys=True)
        f.write("\n")
