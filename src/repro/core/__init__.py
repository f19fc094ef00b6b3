"""The paper's contribution: 2D and 3D SpTRSV algorithms.

Public entry point is :class:`repro.core.solver.SpTRSVSolver`, which wires
the substrates together (ordering → symbolic → numeric LU → 3D layout →
distributed solves) and exposes every algorithm variant of the paper as
``solve(algorithm=...)``.  The variants and everything the system knows
about each — implementation, grid constraint, declared sync count,
resilience fallbacks, replay/GPU capability — are the rows of the one
backend table, :data:`repro.core.backends.BACKENDS`;
``algorithm="auto"`` lets the cost-model planner (:mod:`repro.planner`)
pick a row per (structure, grid, machine).

GPU execution (Algorithms 4-5) lives in :mod:`repro.gpu`.
"""

from repro.core.ca_trsm import CaTrsmSetup, build_ca_trsm_setup
from repro.core.levelset import LevelSetResult, solve_levelset
from repro.core.plan2d import RankPlan, build_2d_plans, u_blockrows
from repro.core.solver import (
    AttemptRecord,
    PerfReport,
    Resilience,
    ResilienceExhausted,
    ResilienceReport,
    SolveOutcome,
    SpTRSVSolver,
)
from repro.core.sparse_allreduce import sparse_allreduce, sparse_allreduce_v2
from repro.core.sptrsv2d import sptrsv_2d

__all__ = [
    "SpTRSVSolver",
    "SolveOutcome",
    "PerfReport",
    "Resilience",
    "ResilienceReport",
    "ResilienceExhausted",
    "AttemptRecord",
    "build_2d_plans",
    "RankPlan",
    "u_blockrows",
    "sptrsv_2d",
    "sparse_allreduce",
    "sparse_allreduce_v2",
    "CaTrsmSetup",
    "build_ca_trsm_setup",
    "solve_levelset",
    "LevelSetResult",
]
