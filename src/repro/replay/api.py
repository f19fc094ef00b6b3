"""Replay cache + solve entry points.

One :class:`ReplayState` lives on each :class:`~repro.core.solver.SpTRSVSolver`
(lazily, so solvers built via ``from_pipeline`` get one too).  Because the
serving tier's :class:`~repro.serve.cache.FactorizationCache` stores whole
solvers, compiled programs are cached alongside the factorization and keyed
by the same ``(matrix_fingerprint, grid, algorithm)`` identity.

Two artifact tiers:

- value programs (``(impl, tree_kind)``) — nrhs- and machine-independent;
- timing tapes (``(impl, tree_kind, Z reduction, level_sync, machine,
  nrhs)``) — one instrumented recording run each, validated byte-for-byte
  against its own simulation before being cached (see
  :mod:`repro.replay.tape`).  Backends that differ only in the Z reduction
  share a value program (the table declares them bit-identical and the
  recording run checks it) but never a tape.

The **recording run is a normal simulated solve** (observation hooks are
bit-neutral, pinned by PR 2's tests), so the first ``replay=True`` solve
returns exactly what ``replay=False`` would; every later solve of the same
shape executes the flat program and copies the validated timing result —
no coroutines, no mailbox, no per-message dispatch.

A hot solve's timing (:func:`replay_hot`) and values (:func:`run_program`)
are separable: a service may defer a hot batch's values and compute many
batches of one program as one wide panel (every arena op is
column-independent).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.backends import REPLAYABLE, Resolved, resolve
from repro.obs.metrics import MetricsRegistry
from repro.replay.program import ValueProgram, compile_program
from repro.replay.tape import TapeRecorder, from_recorder, validate_tape


class ReplayError(ValueError):
    """The requested solve cannot take the replay fast path."""


class ReplayMismatch(AssertionError):
    """A compiled artifact disagreed with its own recording run."""


@dataclass
class ReplayStats:
    """Counters over one solver's replay cache."""

    compiles: int = 0   # value programs compiled
    records: int = 0    # tapes recorded + validated (cold solves)
    replays: int = 0    # fast-path executions (hot solves)


@dataclass
class CompiledTape:
    """What a validated tape leaves behind: the reusable timing/metrics
    artifacts and the stream's size.  The op streams themselves are dropped
    once :func:`~repro.replay.tape.validate_tape` has replayed them."""

    base: object                # private SimResult template (never aliased)
    # Populated registry of the recording run; only a tape someone solved
    # with ``profile=True`` has one.
    metrics: MetricsRegistry | None
    n_messages: int
    total_bytes: float
    n_ops: int


@dataclass
class ReplayState:
    """Compiled artifacts cached on one solver."""

    programs: dict[tuple, ValueProgram] = field(default_factory=dict)
    tapes: dict[tuple, CompiledTape] = field(default_factory=dict)
    stats: ReplayStats = field(default_factory=ReplayStats)


def replay_state(solver) -> ReplayState:
    """The solver's replay cache (created on first use; ``from_pipeline``
    bypasses ``__init__``, hence the lazy attribute)."""
    st = solver.__dict__.get("_replay")
    if st is None:
        st = ReplayState()
        solver.__dict__["_replay"] = st
    return st


def _copy_result(base):
    """Fresh SimResult so callers (e.g. ``solve_blocked``'s clock shift)
    can never mutate the cached template."""
    from repro.comm.simulator import SimResult

    return SimResult(clocks=base.clocks.copy(),
                     times=[dict(t) for t in base.times],
                     sent_msgs=[dict(t) for t in base.sent_msgs],
                     sent_bytes=[dict(t) for t in base.sent_bytes],
                     marks=[dict(m) for m in base.marks],
                     results=[None] * len(base.results),
                     rma_put_bytes=base.rma_put_bytes,
                     rma_applied_bytes=base.rma_applied_bytes,
                     rma_peak_bytes=list(base.rma_peak_bytes),
                     unapplied_puts=list(base.unapplied_puts))


def _tape_key(run: Resolved, machine, nrhs: int) -> tuple:
    return (run.impl, run.tree_kind, run.z and run.z.name, run.level_sync,
            machine.name, nrhs)


def replay_hot(solver, run: Resolved, nrhs: int, machine, profile: bool):
    """The hot half of a replay solve: ``(program, report)`` when this
    shape's timing record is cached, else ``None`` (the solve is cold).

    Counts the replay and copies the timing record; the caller computes
    the values with :func:`run_program`, now or inside a wider panel.
    """
    from repro.core.solver import PerfReport

    st = replay_state(solver)
    ct = st.tapes.get(_tape_key(run, machine, nrhs))
    if ct is None or (profile and ct.metrics is None):
        return None
    st.stats.replays += 1
    report = PerfReport(sim=_copy_result(ct.base), algorithm=run.name,
                        grid=solver.grid, nrhs=nrhs,
                        metrics=ct.metrics if profile else None)
    return st.programs[(run.impl, run.tree_kind)], report


def run_program(solver, prog: ValueProgram, b_perm: np.ndarray,
                nrhs: int) -> np.ndarray:
    """Execute ``prog`` on permuted-order ``b_perm``; ``x`` in the original
    order."""
    x_perm = prog.execute(b_perm, nrhs)
    x = np.empty_like(x_perm)
    x[solver.perm] = x_perm
    return x


def replay_solve(solver, run: Resolved, b_perm: np.ndarray, nrhs: int,
                 was1d: bool, machine, profile: bool):
    """The ``solve(replay=True)`` path; returns a ``SolveOutcome``.

    Cache miss: run the instrumented simulation (the answer the caller
    gets), compile + validate the artifacts, cache them.  Cache hit:
    execute the flat value program and copy the validated timing result.
    """
    from repro.core.solver import PerfReport, SolveOutcome

    if not run.backend.replayable:
        raise ReplayError(
            f"replay does not support algorithm {run.name!r}; the schedule "
            f"compiler covers {REPLAYABLE} — solve without replay=True")
    if run.z is not None and not run.z.replayable:
        raise ReplayError(
            "replay compiles the sparse allreduce and the reductions "
            "bit-identical to it; the naive ablation "
            f"(allreduce_impl={run.z.name!r}) stays on the simulator")
    hot = replay_hot(solver, run, nrhs, machine, profile)
    if hot is not None:
        x = run_program(solver, hot[0], b_perm, nrhs)
        return SolveOutcome(x=x[:, 0] if was1d else x, report=hot[1])

    algorithm, impl, kind = run.name, run.impl, run.tree_kind
    st = replay_state(solver)
    pkey = (impl, kind)
    prog = st.programs.get(pkey)
    if prog is None:
        prog = compile_program(solver.setup(impl, kind), impl, kind,
                               solver.n)
        st.programs[pkey] = prog
        st.stats.compiles += 1

    # Cold: one recording run.  A registry rides along only when this
    # solve is profiled (a later profiled solve of an unprofiled tape
    # records again); both hooks are bit-neutral for clocks and values.
    reg = MetricsRegistry() if profile else None
    rec = TapeRecorder(solver.grid.nranks)
    x, res = solver._solve_cpu(
        run, b_perm, nrhs, machine,
        sim_kwargs={"metrics": reg, "recorder": rec})
    tape = from_recorder(rec, machine)
    validate_tape(tape, res)
    x_prog = run_program(solver, prog, b_perm, nrhs)
    if not np.array_equal(x_prog, x):
        raise ReplayMismatch(
            f"compiled value program for {algorithm!r} disagrees with "
            f"its recording run (max abs diff "
            f"{float(np.max(np.abs(x_prog - x))):.3e})")
    st.tapes[_tape_key(run, machine, nrhs)] = CompiledTape(
        base=_copy_result(res), metrics=reg, n_messages=tape.n_messages,
        total_bytes=tape.total_bytes(), n_ops=tape.n_ops)
    st.stats.records += 1
    report = PerfReport(sim=res, algorithm=algorithm, grid=solver.grid,
                        nrhs=nrhs, metrics=reg)
    return SolveOutcome(x=x[:, 0] if was1d else x, report=report)


def replay_info(solver, algorithm: str = "new3d",
                tree_kind: str | None = None, machine=None, nrhs: int = 1,
                baseline_level_sync: bool = True) -> dict:
    """Compile (matrix, grid, algorithm) and summarize the artifacts.

    Backs ``repro replay --info``.  Triggers one recording solve (RHS of
    ones) if the tape is not cached yet.
    """
    machine = machine or solver.machine
    run = resolve(algorithm, solver.grid, tree_kind,
                  level_sync=baseline_level_sync)
    impl, kind = run.impl, run.tree_kind
    b = np.ones((solver.n, nrhs))
    solver.solve(b, algorithm=algorithm, tree_kind=tree_kind,
                 machine=machine, baseline_level_sync=baseline_level_sync,
                 replay=True)
    st = replay_state(solver)
    prog = st.programs[(impl, kind)]
    ct = st.tapes[_tape_key(run, machine, nrhs)]
    return {
        "algorithm": algorithm,
        "impl": impl,
        "tree_kind": kind,
        "grid": f"{solver.grid.px}x{solver.grid.py}x{solver.grid.pz}",
        "machine": machine.name,
        "nrhs": nrhs,
        "instructions": len(prog.instrs),
        "kernels": prog.kernel_count,
        "registers": prog.nregs,
        "op_counts": prog.op_counts(),
        "messages": ct.n_messages,
        "message_bytes": ct.total_bytes,
        "tape_ops": ct.n_ops,
        "est_virtual_time": float(ct.base.clocks.max()),
    }
