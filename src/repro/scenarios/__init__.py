"""``repro.scenarios`` — seeded adversarial & degraded-mode episodes.

The robustness counterpart to ``repro.serve``: a catalog of named,
replayable attack scenarios (flash crowds, poison inputs, duplicate
storms, byzantine fabric faults, ...) that drive the serving tier and
machine-check a *degradation contract* over the deterministic SLO
report — shed gracefully with typed rejections, never corrupt an
accepted answer, recover within bounded virtual time.

Entry points: the ``repro scenarios`` CLI subcommand, :func:`run_all`,
and the differential fuzzer's ``kind="scenario"`` cases.  Fault phases
speak the coordinates of the solver-level chaos cases
(:func:`repro.comm.faults.plan_for`).  The guided tour is ``docs/SCENARIOS.md``.
"""

from repro.scenarios.catalog import CATALOG, get_scenario, scenario_names
from repro.scenarios.runner import (
    build_fault_schedule,
    build_service,
    build_workload,
    evaluate_contract,
    run_all,
    run_scenario,
)
from repro.scenarios.spec import (
    SCENARIO_VERSION,
    DegradationContract,
    FaultPhaseSpec,
    PhaseSpec,
    Scenario,
    ScenarioReport,
)

__all__ = [
    "CATALOG",
    "DegradationContract",
    "FaultPhaseSpec",
    "PhaseSpec",
    "SCENARIO_VERSION",
    "Scenario",
    "ScenarioReport",
    "build_fault_schedule",
    "build_service",
    "build_workload",
    "evaluate_contract",
    "get_scenario",
    "run_all",
    "run_scenario",
    "scenario_names",
]
