"""The one backend table.

Every algorithm name :meth:`SpTRSVSolver.solve` accepts is a row of
:data:`BACKENDS`, and everything that used to branch on the name — solver
dispatch, resilience tiers, schedule extraction, declared sync counts,
replay, the planner's candidates, the serving gate, the fuzzer, the CLI —
reads the row.  The table has the shape of the paper's claim: the proposed
algorithm's variants share one implementation :class:`Family` and differ
only in the inter-grid reduction (:data:`Z_REDUCTIONS`), hence in the sync
count they declare (1 vs ``ceil(log2 Pz)`` vs 0).

Adding a backend is one row plus its rank program (``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.ca_trsm import (
    build_ca_trsm_setup,
    ca_trsm_rank_fn,
    collect_solution_ca,
)
from repro.core.sparse_allreduce import (
    naive_allreduce,
    onesided_allreduce,
    sparse_allreduce,
    sparse_allreduce_v2,
    structural_nonzeros,
)
from repro.core.sptrsv3d_baseline import (
    baseline3d_rank_fn,
    build_baseline3d_setup,
    collect_solution_baseline,
)
from repro.core.sptrsv3d_new import (
    build_new3d_setup,
    collect_solution,
    new3d_rank_fn,
)
from repro.grids.grid3d import Grid3D
from repro.util import ilog2

#: Not a row: ``solve`` hands it to :mod:`repro.planner`, which picks one.
AUTO = "auto"
DEVICES = ("cpu", "gpu")


class Table(dict):
    """``name -> row``, in declaration order.  Indexing is the single place
    an unknown name is rejected — as a ``ValueError`` (a bad argument, not a
    missing key) that lists the known names."""

    def __init__(self, what: str, rows):
        super().__init__((row.name, row) for row in rows)
        self.what = what

    def __missing__(self, name):
        raise ValueError(f"unknown {self.what} {name!r}; "
                         f"known: {', '.join(self)}")


# -- inter-grid (Z) reductions of the proposed algorithm ---------------------


@dataclass(frozen=True)
class ZReduction:
    name: str
    make: Callable              # New3DSetup -> generator fn(ctx, values)
    replayable: bool = False    # same solution bits as the compiled "sparse"


def _plain(fn):
    return lambda s: lambda ctx, values: fn(
        ctx, s.grid, s.layout, s.part, values, category="z")


def _structure_filtered(s):
    # Shared symbolic structure, computed once for all ranks.
    nz_sets = structural_nonzeros(s.lu, s.grid_sns, s.sn_owner_grid)
    return lambda ctx, values: sparse_allreduce_v2(
        ctx, s.grid, s.layout, s.part, values, nz_sets, category="z")


Z_REDUCTIONS = Table("allreduce_impl", (
    ZReduction("sparse", _plain(sparse_allreduce), replayable=True),
    ZReduction("sparse_v2", _structure_filtered, replayable=True),
    ZReduction("naive", _plain(naive_allreduce)),   # the ablation's foil
    ZReduction("onesided", _plain(onesided_allreduce), replayable=True),
))


# -- implementation families ------------------------------------------------


def _value_compiler(fn_name: str):
    """Deferred reference into :mod:`repro.replay.program`, which imports
    ``repro.core`` and so cannot be imported while this module loads."""
    def compile_values(em, setup, n):
        from repro.replay import program

        getattr(program, fn_name)(em, setup, n)
    return compile_values


@dataclass(frozen=True)
class Family:
    """How one implementation is set up, run, collected and compiled."""

    name: str
    tree_kind: str | None       # default communication trees (None: no trees)
    build: Callable             # (lu, layout, grid, tree_kind) -> setup
    rank_fn: Callable           # (setup, b_perm, nrhs, Resolved) -> program
    collect: Callable           # (setup, results, n, nrhs) -> x_perm
    compile_values: Callable | None = None  # (emitter, setup, n) | no replay
    reduces_z: bool = False     # Z phase is a pluggable Z_REDUCTIONS entry


FAMILIES = Table("implementation family", (
    Family("new3d", "auto", build_new3d_setup,
           lambda s, b, nrhs, run: new3d_rank_fn(
               s, b, nrhs, allreduce_impl=run.z.name),
           collect_solution, _value_compiler("_compile_new3d"),
           reduces_z=True),
    Family("baseline3d", "flat", build_baseline3d_setup,
           lambda s, b, nrhs, run: baseline3d_rank_fn(
               s, b, nrhs, level_sync=run.level_sync),
           collect_solution_baseline, _value_compiler("_compile_baseline3d")),
    Family("ca_trsm", None,
           lambda lu, layout, grid, tree_kind: build_ca_trsm_setup(lu, grid),
           lambda s, b, nrhs, run: ca_trsm_rank_fn(s, b, nrhs),
           collect_solution_ca),
))


# -- the table ---------------------------------------------------------------


def _single_grid(grid: Grid3D) -> bool:
    return grid.pz == 1


def _multi_grid(grid: Grid3D) -> bool:
    return grid.pz > 1


def _any_grid(grid: Grid3D) -> bool:
    return True


def _no_sync(pz: int) -> int:
    return 0


def _one_sync(pz: int) -> int:
    return int(pz > 1)


@dataclass(frozen=True)
class Backend:
    """One algorithm name and everything the system knows about it."""

    name: str
    family: Family
    syncs: Callable[[int], int]         # declared inter-grid sync points at Pz
    z_reduction: str | None = None      # forced; None: caller's allreduce_impl
    grid_ok: Callable[[Grid3D], bool] = _any_grid
    grid_error: str = ""                # raised (ValueError) when not grid_ok
    # Resilience tiers tried after this one; the sequential reference solve
    # is always the implicit last tier.
    fallback: tuple[str, ...] = ()
    replayable: bool = False            # repro.replay compiles + records it
    # Runs under device="gpu", with the same solution bits as its CPU
    # solve: the GPU dataflow sums every column in the same canonical order.
    gpu: bool = False
    bit_identical_to: str | None = None  # same solution bits wherever both run
    plannable: Callable[[Grid3D], bool] = _multi_grid   # planner candidate?


_NEW3D, _BASELINE3D, _CA_TRSM = FAMILIES.values()

#: Row order is load-bearing: it is the planner's tie-break
#: (:func:`planner_candidates`) and the order of every derived view.
BACKENDS = Table("algorithm", (
    # The CSC'18 2D solver is exactly the proposed algorithm on one grid.
    Backend("2d", _NEW3D, _no_sync, grid_ok=_single_grid,
            grid_error="algorithm='2d' requires pz == 1",
            replayable=True, gpu=True, bit_identical_to="new3d",
            plannable=_single_grid),
    Backend("new3d", _NEW3D, _one_sync, fallback=("baseline3d",),
            replayable=True, gpu=True),
    # ICS'19: one sync per elimination-tree level (pz is a power of two,
    # so ilog2 is ceil(log2 Pz)).
    Backend("baseline3d", _BASELINE3D, ilog2, replayable=True),
    Backend("sparse_allreduce_v2", _NEW3D, _one_sync, z_reduction="sparse_v2",
            fallback=("baseline3d",), replayable=True,
            bit_identical_to="new3d"),
    # RMA primitives refuse to run under injected faults (no typed recovery
    # for half-applied epochs), so a faulty run falls back two-sided first.
    Backend("onesided_put", _NEW3D, _one_sync, z_reduction="onesided",
            fallback=("new3d", "baseline3d"), replayable=True,
            bit_identical_to="new3d"),
    # Flattens the grids into one rank pool: no inter-grid structure at all.
    Backend("ca_trsm", _CA_TRSM, _no_sync, plannable=_any_grid),
))

#: Rows the schedule compiler covers (``repro.replay.REPLAYABLE``).
REPLAYABLE = tuple(b.name for b in BACKENDS.values() if b.replayable)


def is_replayable(name: str) -> bool:
    """False too for names that are not rows (``"auto"``)."""
    return name in REPLAYABLE


def planner_candidates(grid: Grid3D) -> list[str]:
    return [b.name for b in BACKENDS.values() if b.plannable(grid)]


def sweep_names(grid: Grid3D) -> list[str]:
    """Rows that are distinct programs on ``grid``: a row that only swaps
    the Z reduction is its parent when there is nothing to reduce."""
    return [b.name for b in BACKENDS.values()
            if b.grid_ok(grid) and (grid.pz > 1 or b.z_reduction is None)]


# -- resolution: a row bound to one solve's options -------------------------


@dataclass(frozen=True)
class Resolved:
    """What ``solve`` resolves once and hands down instead of the caller's
    ``(algorithm, tree_kind, baseline_level_sync, allreduce_impl)``."""

    backend: Backend
    tree_kind: str | None       # effective (None: the family has no trees)
    z: ZReduction | None        # effective (None: the family has no Z phase)
    level_sync: bool
    # The backend's resilience tiers under the same options, resolved (so
    # grid-checked) together with it: a bad tier is a configuration error
    # raised here, never a failed attempt.
    fallback: tuple["Resolved", ...]

    @property
    def name(self) -> str:
        return self.backend.name

    @property
    def impl(self) -> str:
        return self.backend.family.name

    def rank_fn(self, setup, b_perm, nrhs: int):
        return self.backend.family.rank_fn(setup, b_perm, nrhs, self)


def resolve(name: str, grid: Grid3D, tree_kind: str | None = None,
            allreduce_impl: str = "sparse",
            level_sync: bool = True) -> Resolved:
    """Look ``name`` up, check it against ``grid``, bind the options."""
    backend = BACKENDS[name]
    if not backend.grid_ok(grid):
        raise ValueError(backend.grid_error)
    fam = backend.family
    z = (Z_REDUCTIONS[backend.z_reduction or allreduce_impl]
         if fam.reduces_z else None)
    return Resolved(
        backend, fam.tree_kind and (tree_kind or fam.tree_kind), z,
        bool(level_sync),
        tuple(resolve(t, grid, tree_kind, allreduce_impl, level_sync)
              for t in backend.fallback))
