"""Static analysis of communication schedules and runtime code.

Four layers (see ``docs/ANALYSIS.md``):

- :mod:`repro.analyze.extract` — run rank programs under a zero-cost
  symbolic harness and record per-rank ordered event lists
  (:class:`~repro.analyze.schedule.Schedule`), one-sided operations
  included.
- :mod:`repro.analyze.verify` — check an extracted schedule statically:
  wait-for-cycle deadlock detection with a minimal cycle witness,
  unmatched/over-matched endpoints, a message-race detector over
  wildcard receives, and sync-point counting without the cost model.
- :mod:`repro.analyze.rma` — epoch-based certification of one-sided
  traffic: conflicting-access races with minimal two-op witnesses,
  unapplied-put/fence-mismatch issues, and static window-buffer
  resource bounds that match the runtime's measured peaks exactly.
- :mod:`repro.analyze.lint` — AST lint over the runtime source
  (rules ``RPR001``–``RPR008``, suppressible with
  ``# repro: allow[RULE]``).

Where :mod:`repro.check` tests executions *dynamically* (one seeded run
at a time), this package certifies the communication *schedule itself*:
a verified schedule is deadlock-free and match-deterministic under any
causal reordering of message arrivals, not just the one the simulator
happened to produce.
"""

from repro.analyze.extract import (
    ExtractionLimit,
    ScheduleDerivationError,
    allreduce_schedule,
    extract_schedule,
    gpu_schedules,
    solver_schedule,
)
from repro.analyze.lint import Finding, run_lint
from repro.analyze.rma import (
    RMAIssue,
    RMARace,
    RMAReport,
    RMAResources,
    delete_op,
    verify_rma,
)
from repro.analyze.schedule import (
    FenceEvent,
    FlushEvent,
    PutEvent,
    ReadEvent,
    RecvEvent,
    Schedule,
    SendEvent,
)
from repro.analyze.verify import (
    DeadlockWitness,
    EndpointIssue,
    RaceWitness,
    VerifyReport,
    expected_syncs,
    verify_schedule,
)

__all__ = [
    "DeadlockWitness",
    "EndpointIssue",
    "ExtractionLimit",
    "FenceEvent",
    "Finding",
    "FlushEvent",
    "PutEvent",
    "RMAIssue",
    "RMARace",
    "RMAReport",
    "RMAResources",
    "RaceWitness",
    "ReadEvent",
    "RecvEvent",
    "Schedule",
    "ScheduleDerivationError",
    "SendEvent",
    "VerifyReport",
    "allreduce_schedule",
    "delete_op",
    "expected_syncs",
    "extract_schedule",
    "gpu_schedules",
    "run_lint",
    "solver_schedule",
    "verify_rma",
    "verify_schedule",
]
