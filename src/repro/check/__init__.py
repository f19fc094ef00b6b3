"""``repro.check`` — differential fuzzing and runtime invariant checking.

The reproduction's headline claims (bit-identical multi-RHS batching,
exactly one inter-grid sync for the proposed algorithm vs
``ceil(log2 Pz)`` for the baseline, typed load shedding) are pinned by
hand-picked example tests; this package holds the line as the codebase
grows by checking them *systematically*:

- :mod:`~repro.check.invariants` — always-on runtime invariants over
  :class:`~repro.comm.simulator.SimResult`,
  :class:`~repro.obs.metrics.MetricsRegistry` and
  :class:`~repro.serve.service.ServeResult` /
  :class:`~repro.serve.cache.FactorizationCache` state (clock and time
  conservation, message conservation, serve-loop request conservation,
  cache byte accounting).  Pluggable via ``Simulator(invariants=True)``
  and ``SolveService(invariants=True)``.
- :mod:`~repro.check.fuzz` — a seeded differential fuzzer drawing random
  solver and serving configurations, running every applicable execution
  path plus the scipy/dense reference, and cross-checking solutions,
  sync counts and replay determinism; plus the enumerated chaos family
  (:func:`~repro.check.fuzz.chaos_cases`): resilient solves under a
  sweep of seeded fault plans, each a correct answer or a typed error.
- :mod:`~repro.check.reduce` — a shrinking reducer that minimizes a
  failing case before writing a replayable repro file to
  ``tests/corpus/``.

Entry point: the ``repro fuzz`` CLI subcommand; the guided tour is
``docs/CHECKING.md``.
"""

from repro.check.fuzz import (
    CaseResult,
    FuzzCase,
    FuzzReport,
    chaos_cases,
    draw_case,
    run_case,
)
from repro.check.invariants import (
    InvariantViolation,
    check_cache,
    check_fleet,
    check_metrics,
    check_serve,
    check_sim,
    check_solve,
)
from repro.check.reduce import shrink, write_repro

__all__ = [
    "CaseResult",
    "FuzzCase",
    "FuzzReport",
    "InvariantViolation",
    "check_cache",
    "check_fleet",
    "check_metrics",
    "check_serve",
    "check_sim",
    "check_solve",
    "chaos_cases",
    "draw_case",
    "run_case",
    "shrink",
    "write_repro",
]
