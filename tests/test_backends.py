"""The backend table is total: every row, on every grid shape, either does
what it declares or refuses the way it declares.

Parametrised from :data:`repro.core.backends.BACKENDS` itself, so a new
row is covered the moment it is added (the seed of the generated
backend x feature matrix).  Also home of the structural guard that keeps
name ladders from growing back, and of the regression tests for the three
defects the per-site ladders had drifted into.
"""

from __future__ import annotations

import ast
import pathlib
import re

import numpy as np
import pytest

import repro
from repro.analyze import (
    ScheduleDerivationError,
    expected_syncs,
    extract_schedule,
    solver_schedule,
    verify_schedule,
)
from repro.analyze.extract import derive_schedule
from repro.cli import build_parser
from repro.comm import PERLMUTTER_GPU
from repro.core import Resilience, SpTRSVSolver
from repro.core.backends import (
    AUTO,
    BACKENDS,
    FAMILIES,
    Z_REDUCTIONS,
    planner_candidates,
)
from repro.grids.grid3d import Grid3D
from repro.matrices import make_rhs, poisson2d
from repro.numfact import solve_residual
from repro.planner import candidates
from repro.replay import REPLAYABLE, ReplayError
from tests.conftest import fresh_store, schedule_fields

GRIDS = [(2, 2, 1), (1, 1, 2), (2, 1, 4)]
CELLS = [pytest.param(g, b, id=f"{'x'.join(map(str, g))}-{b.name}")
         for g in GRIDS for b in BACKENDS.values()]


@pytest.fixture(scope="module")
def A():
    return poisson2d(12, stencil=9, seed=1)


@pytest.fixture(scope="module")
def solvers(A):
    return {g: SpTRSVSolver(A, *g, max_supernode=8) for g in GRIDS}


@pytest.fixture(scope="module")
def b(A):
    return make_rhs(A.shape[0], 2, kind="random", seed=3)


@pytest.mark.parametrize("grid,backend", CELLS)
def test_row_solves_or_raises_its_grid_error(A, solvers, b, grid, backend):
    solver = solvers[grid]
    if not backend.grid_ok(solver.grid):
        for call in (lambda: solver.solve(b, algorithm=backend.name),
                     lambda: solver_schedule(solver, algorithm=backend.name)):
            with pytest.raises(ValueError,
                               match=re.escape(backend.grid_error)):
                call()
        return
    out = solver.solve(b, algorithm=backend.name, profile=True)
    assert solve_residual(A, out.x, b) <= 1e-10
    assert out.report.algorithm == backend.name

    # One sync count, four witnesses: declared, profiled, static, API.
    rep = verify_schedule(solver_schedule(solver, algorithm=backend.name))
    assert rep.ok
    pz = solver.grid.pz
    assert (backend.syncs(pz) == out.report.metrics.nsyncs == rep.nsyncs
            == expected_syncs(backend.name, pz))

    if backend.bit_identical_to is not None:
        ref = solver.solve(b, algorithm=backend.bit_identical_to)
        assert np.array_equal(out.x, ref.x)


GPU_GRIDS = [(px, 1, pz) for px in (1, 2, 4) for pz in (1, 2, 4)]
GPU_CELLS = [pytest.param(g, bk, nrhs, id=f"{'x'.join(map(str, g))}-"
                                           f"{bk.name}-nrhs{nrhs}")
             for g in GPU_GRIDS for bk in BACKENDS.values()
             if bk.gpu and bk.grid_ok(Grid3D(*g)) for nrhs in (1, 3, 16)]


@pytest.fixture(scope="module")
def gpu_solvers(A):
    return {g: SpTRSVSolver(A, *g, max_supernode=8, machine=PERLMUTTER_GPU)
            for g in GPU_GRIDS}


@pytest.mark.parametrize("grid,backend,nrhs", GPU_CELLS)
def test_gpu_rows_solve_bit_identically_to_the_cpu(A, gpu_solvers, grid,
                                                   backend, nrhs):
    """A ``gpu`` row's GPU solve and its CPU solve give the same bits on
    every ``Py == 1`` grid and width."""
    solver = gpu_solvers[grid]
    b = make_rhs(A.shape[0], nrhs, kind="random", seed=nrhs)
    gpu = solver.solve(b, algorithm=backend.name, device="gpu")
    assert np.array_equal(gpu.x, solver.solve(b, algorithm=backend.name).x)


@pytest.mark.parametrize("grid,backend", CELLS)
def test_replayable_flag_is_the_replay_contract(solvers, b, grid, backend):
    solver = solvers[grid]
    if not backend.grid_ok(solver.grid):
        return
    if not backend.replayable:
        with pytest.raises(ReplayError, match="replay does not support"):
            solver.solve(b, algorithm=backend.name, replay=True)
        return
    sim = solver.solve(b, algorithm=backend.name)
    solver.solve(b, algorithm=backend.name, replay=True)        # records
    hot = solver.solve(b, algorithm=backend.name, replay=True)
    assert np.array_equal(hot.x, sim.x)
    assert np.array_equal(hot.report.sim.clocks, sim.report.sim.clocks)


@pytest.mark.parametrize("bases", [(1, 2), (5, 2)], ids=str)
@pytest.mark.parametrize("rendezvous", [False, True],
                         ids=["eager", "rendezvous"])
@pytest.mark.parametrize("grid,backend", CELLS)
def test_derived_widths_equal_fresh_extractions(solvers, grid, backend,
                                                rendezvous, bases):
    """The solver's store extracts two widths and derives the rest; a
    derived schedule is a fresh extraction, field for field."""
    if not backend.grid_ok(solvers[grid].grid):
        return
    kw = dict(algorithm=backend.name, rendezvous=rendezvous)
    store = fresh_store(solvers[grid])
    extracted = [solver_schedule(store, nrhs=w, **kw) for w in bases]
    for w in (3, 4, 16):
        derived = solver_schedule(store, nrhs=w, **kw)
        fresh = solver_schedule(fresh_store(solvers[grid]), nrhs=w, **kw)
        assert schedule_fields(derived) == schedule_fields(fresh)
        rep = verify_schedule(derived)
        assert rep.summary() == verify_schedule(fresh).summary()
        if not rendezvous:
            assert rep.ok
            assert rep.nsyncs == expected_syncs(backend.name,
                                                store.grid.pz)
        # Derived widths are handed out, not retained: the two extracted
        # ones are still what the store serves.
        assert solver_schedule(store, nrhs=w, **kw) is not derived
    assert all(solver_schedule(store, nrhs=w, **kw) is kept
               for w, kept in zip(bases, extracted))


def test_derivation_refuses_a_program_that_branches_on_nrhs():
    """One message per column: the skeleton moves with the width, so two
    widths determine nothing — a typed error, never a guess."""

    def program(nrhs):
        def fn(ctx):
            for j in range(nrhs):
                if ctx.rank == 0:
                    yield ctx.send(1, np.zeros(3), tag=("col", j))
                else:
                    yield ctx.recv(src=0, tag=("col", j))
        return fn

    widths = {w: extract_schedule(2, program(w)) for w in (1, 2)}
    with pytest.raises(ScheduleDerivationError, match="depends on nrhs"):
        derive_schedule(widths, 3)

    def paired(nrhs):
        def fn(ctx):
            if ctx.rank == 0:
                yield ctx.send(1, np.zeros((nrhs + 1) // 2), tag="pairs")
            else:
                yield ctx.recv(src=0, tag="pairs")
        return fn

    # Same skeleton at every width, but 8 B at width 1 and 16 B at width 4
    # put 10.67 B at width 2: sizes that are not integer-affine are refused.
    widths = {w: extract_schedule(2, paired(w)) for w in (1, 4)}
    with pytest.raises(ScheduleDerivationError, match="no exact integer"):
        derive_schedule(widths, 2)


def test_rows_reference_only_rows():
    for backend in BACKENDS.values():
        assert set(backend.fallback) <= set(BACKENDS), backend.name
        assert backend.name not in backend.fallback
        assert backend.bit_identical_to in (None, *BACKENDS), backend.name
        assert backend.z_reduction in (None, *Z_REDUCTIONS), backend.name
        assert backend.family in FAMILIES.values()
        assert backend.grid_ok(Grid3D(1, 1, 1)) or backend.grid_error
        assert backend.replayable <= (
            backend.family.compile_values is not None)


def test_derived_views_keep_membership_and_order(solvers):
    # Row order is the planner's tie-break; these two lists pin it.
    assert planner_candidates(Grid3D(2, 2, 1)) == ["2d", "ca_trsm"]
    assert planner_candidates(Grid3D(2, 1, 2)) == [
        "new3d", "baseline3d", "sparse_allreduce_v2", "onesided_put",
        "ca_trsm"]
    for solver in solvers.values():
        assert candidates(solver) == planner_candidates(solver.grid)
    assert REPLAYABLE == ("2d", "new3d", "baseline3d",
                          "sparse_allreduce_v2", "onesided_put")
    assert REPLAYABLE == tuple(b.name for b in BACKENDS.values()
                               if b.replayable)


def test_cli_algorithm_choices_are_table_views():
    sub = next(a for a in build_parser()._actions
               if isinstance(a.choices, dict))
    names = tuple(BACKENDS)
    want = {"solve": (*names, AUTO), "profile": (*names, AUTO),
            "serve": (*names, AUTO), "tune": names, "fleet": names,
            "analyze": names, "replay": REPLAYABLE}
    got = {cmd: tuple(a.choices) for cmd, p in sub.choices.items()
           for a in p._actions if a.dest == "algorithm"}
    assert got == want


def test_no_backend_name_comparisons_outside_the_table():
    """AST guard: outside ``core/backends.py`` nothing in ``src/repro``
    compares against (``==``, ``!=``, ``in``, ``not in``) a backend-name
    string literal — that is how the per-site ladders started."""
    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path == root / "core" / "backends.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Compare):
                continue
            literals = {c.value for part in (node.left, *node.comparators)
                        for c in ast.walk(part)
                        if isinstance(c, ast.Constant)
                        and isinstance(c.value, str)}
            if literals & set(BACKENDS):
                offenders.append(f"{path.relative_to(root)}:{node.lineno}: "
                                 f"{ast.unparse(node)}")
    assert not offenders, "\n".join(offenders)


# -- regressions: the defects the drifted copies had -------------------------


def test_resilience_does_not_mask_usage_errors(solvers, b):
    """A backend invalid on the grid is a configuration error, not a failed
    attempt to be retried and answered by the reference tier."""
    solver = solvers[(1, 1, 2)]
    with pytest.raises(ValueError, match="requires pz == 1"):
        solver.solve(b, algorithm="2d", resilience=Resilience())
    with pytest.raises(ValueError, match="unknown allreduce_impl"):
        solver.solve(b, allreduce_impl="bogus", resilience=Resilience())


def test_expected_syncs_rejects_unknown_names_on_every_pz():
    for pz in (1, 4):
        with pytest.raises(ValueError, match="unknown algorithm 'nonsense'"
                                             ".*known: 2d, new3d"):
            expected_syncs("nonsense", pz)


@pytest.mark.parametrize("kwargs,message", [
    (dict(algorithm="nonsense", replay=True), "unknown algorithm"),
    (dict(algorithm="nonsense", device="gpu"), "unknown algorithm"),
    (dict(device="tpu", replay=True), "unknown device 'tpu'"),
    (dict(algorithm="nonsense", device="tpu"), "unknown device 'tpu'"),
])
def test_unknown_names_are_rejected_as_what_they_are(solvers, b, kwargs,
                                                     message):
    """Not blamed on whichever feature gate happened to look first; and
    ``ReplayError`` stays reserved for *known* non-replayable backends."""
    with pytest.raises(ValueError, match=message) as err:
        solvers[(1, 1, 2)].solve(b, **kwargs)
    assert not isinstance(err.value, ReplayError)
