"""Outside-in span tracer for hostbench.

Layers are measured from outside the program: :func:`install` rebinds
wrappers, in this process only, around the public callables listed in
:data:`TARGETS`; ``src/`` is not edited and the untraced run installs
nothing.  Two wrapper kinds:

- a **span** records ``[name, start, end, parent, op, stage]`` — one
  record per call, parent = the span open when it started, op = the index
  of the benchmark op it ran under;
- a **leaf** is for hot callables (``util.matmul_columns`` runs ~10^4
  times per solve): no record per call, only ``calls / seconds / work``
  accumulated on the span that was open, so the leaf's time can still be
  subtracted from its parent.

A layer's self time is its spans' duration minus the child spans and
leaves they cover, so self times partition the root span exactly; what is
left on the root is time no named layer accounts for.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# Span record fields.
NAME, START, END, PARENT, OP, STAGE, LEAVES, COUNTS = range(8)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.stage = ""
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.op, self.stage,
               None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, stage: str):
        """Root span of one stage (``setup`` / ``pass``): its self time is
        the benchmark's own loop plus anything no layer claims."""
        self.stage = stage
        rec = self._open(f"hostbench.{stage}")
        try:
            yield rec
        finally:
            self._close(rec)
            self.op = -1

    def span(self, fn, name: str, count=None):
        """Wrap ``fn`` as a span; ``count(result, args)`` may return
        deterministic counters to add to the record."""
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    rec[COUNTS] = count(result, args)
                return result
            finally:
                self._close(rec)
        return wrapper

    def leaf(self, fn, name: str, work=None):
        """Wrap a hot callable: aggregate onto the open span, no record.
        ``work(args)`` is a computed amount of work per call (flops)."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                if stack:
                    rec = spans[stack[-1]]
                    leaves = rec[LEAVES]
                    if leaves is None:
                        leaves = rec[LEAVES] = {}
                    agg = leaves.get(name)
                    if agg is None:
                        agg = leaves[name] = [0, 0.0, 0]
                    agg[0] += 1
                    agg[1] += dt
                    if work is not None:
                        agg[2] += work(args)
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Rebind every :data:`TARGETS` callable to its wrapper.

        A function is rebound under every module-global name that refers
        to it (``from x import f`` copies the reference), over the loaded
        ``repro`` modules plus ``extra_modules``; a method is rebound on
        its class.  Wrapped callables must be plain functions — a span
        around a generator function would time its creation only.
        """
        if self._undo:
            raise RuntimeError("tracer already installed")
        # Resolving imports the owners, so the module scan sees them all.
        owners = [_resolve(t["owner"]) for t in TARGETS]
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "repro" or n.startswith("repro."))]
        mods.extend(extra_modules)
        for t, owner in zip(TARGETS, owners):
            orig = vars(owner)[t["attr"]]
            make = self.leaf if t["kind"] == "leaf" else self.span
            wrapped = make(orig, t["name"], t.get("hook"))
            if isinstance(owner, type):
                self._bind(owner, t["attr"], wrapped)
                continue
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._bind(mod, key, wrapped)

    def _bind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- analysis -----------------------------------------------------------

    def layer_table(self, stage: str) -> dict[str, dict]:
        """``{layer: {calls, self_s, work, counts}}`` over one stage.

        Self time of a span = duration − child spans − leaves; a leaf's
        seconds are its own self time.  The values sum to the stage's
        root-span duration (``hostbench.<stage>`` holds the remainder).
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                covered[s[PARENT]] += s[END] - s[START]
        table: dict[str, dict] = {}

        def row(name: str) -> dict:
            return table.setdefault(
                name, {"calls": 0, "self_s": 0.0, "work": 0, "counts": {}})

        for i, s in enumerate(spans):
            if s[STAGE] != stage:
                continue
            leaf_s = 0.0
            for lname, (calls, secs, work) in (s[LEAVES] or {}).items():
                r = row(lname)
                r["calls"] += calls
                r["self_s"] += secs
                r["work"] += work
                leaf_s += secs
            r = row(s[NAME])
            r["calls"] += 1
            r["self_s"] += s[END] - s[START] - covered[i] - leaf_s
            for k, v in (s[COUNTS] or {}).items():
                r["counts"][k] = r["counts"].get(k, 0) + v
        return table

    def count_spans(self, stage: str) -> int:
        return sum(1 for s in self.spans if s[STAGE] == stage)

    def solve_classes(self, stage: str) -> dict[str, list[float]]:
        """Classify ``core.solver.solve`` spans by what ran under them:
        ``record`` (simulator and value program: the cold ``replay=True``
        solve), ``replay`` (value program only), ``simulated`` (simulator
        only).  Values are inclusive durations.
        """
        by_parent: dict[int, set[str]] = {}
        for s in self.spans:
            by_parent.setdefault(s[PARENT], set()).add(s[NAME])
        out: dict[str, list[float]] = {"record": [], "replay": [],
                                       "simulated": []}
        for i, s in enumerate(self.spans):
            if s[STAGE] != stage or s[NAME] != "core.solver.solve":
                continue
            kids = by_parent.get(i, set())
            sim = "comm.simulator.run" in kids
            prog = "replay.program.execute" in kids
            if sim and prog:
                out["record"].append(s[END] - s[START])
            elif prog:
                out["replay"].append(s[END] - s[START])
            elif sim:
                out["simulated"].append(s[END] - s[START])
        return out

    def to_json(self) -> dict:
        """Spans with times relative to the first one, for the trace file."""
        t0 = self.spans[0][START] if self.spans else 0.0
        return {
            "fields": ["name", "start_s", "end_s", "parent", "op", "stage",
                       "leaves", "counts"],
            "spans": [[s[NAME], s[START] - t0, s[END] - t0, s[PARENT],
                       s[OP], s[STAGE], s[LEAVES], s[COUNTS]]
                      for s in self.spans],
        }


def _resolve(path: str):
    """``"pkg.mod"`` → module, ``"pkg.mod:Class"`` → class."""
    modname, _, cls = path.partition(":")
    __import__(modname)
    mod = sys.modules[modname]
    return getattr(mod, cls) if cls else mod


# -- counter hooks (deterministic, read off arguments/results) ---------------


def _matmul_flops(args) -> int:
    M, Y = args[0], args[1]
    n = Y.shape[1] if Y.ndim == 2 else 1
    return 2 * M.shape[0] * M.shape[1] * n


def _sim_counts(result, args) -> dict:
    return {"msgs": int(result.msgs_by()), "bytes": float(result.bytes_by())}


def _execute_counts(result, args) -> dict:
    return {"instructions": len(args[0].instrs)}


def _tape_counts(result, args) -> dict:
    return {"ops": int(args[0].n_ops)}


def _extract_counts(result, args) -> dict:
    return {"events": int(result.nevents)}


_SCHED = "repro.serve.scheduler:BatchingScheduler"
_CACHE = "repro.serve.cache:FactorizationCache"

#: The public callables measured, outermost layers first.  ``owner`` is a
#: module (function rebound wherever it is referenced) or ``module:Class``.
TARGETS: list[dict] = [
    # setup pipeline, staged as benchmarks/common.pipeline stages it
    dict(kind="span", owner="repro.matrices.suite", attr="get_matrix",
         name="matrices.generate"),
    dict(kind="span", owner="repro.ordering.nested_dissection",
         attr="nested_dissection", name="ordering.nd"),
    dict(kind="span", owner="repro.symbolic.fill", attr="symbolic_factor",
         name="symbolic.factor"),
    dict(kind="span", owner="repro.numfact.lu", attr="lu_factorize",
         name="numfact.lu"),
    dict(kind="span", owner="repro.ordering.layout",
         attr="build_layout_tree", name="ordering.layout"),
    dict(kind="span", owner="repro.core.plan2d", attr="build_2d_plans",
         name="core.plan2d.build"),
    # solve path
    dict(kind="span", owner="repro.core.solver:SpTRSVSolver", attr="solve",
         name="core.solver.solve"),
    dict(kind="span", owner="repro.comm.simulator:Simulator", attr="run",
         name="comm.simulator.run", hook=_sim_counts),
    dict(kind="leaf", owner="repro.util", attr="matmul_columns",
         name="util.matmul_columns", hook=_matmul_flops),
    dict(kind="span", owner="repro.gpu.solver3d", attr="solve_new3d_gpu",
         name="gpu.solver3d"),
    dict(kind="span", owner="repro.gpu.dataflow", attr="run_gpu_2d_solve",
         name="gpu.dataflow.run"),
    # replay
    dict(kind="span", owner="repro.replay.program", attr="compile_program",
         name="replay.program.compile"),
    dict(kind="span", owner="repro.replay.program:ValueProgram",
         attr="execute", name="replay.program.execute",
         hook=_execute_counts),
    dict(kind="span", owner="repro.replay.tape", attr="replay_tape",
         name="replay.tape.replay", hook=_tape_counts),
    # serve
    dict(kind="span", owner="repro.serve.service:SolveService", attr="run",
         name="serve.service.run"),
    *[dict(kind="leaf", owner=_SCHED, attr=a, name="serve.scheduler")
      for a in ("depth", "offer", "expire", "drain", "ready_group",
                "next_trigger", "pop_batch")],
    dict(kind="leaf", owner=_CACHE, attr="get", name="serve.cache.get"),
    dict(kind="leaf", owner=_CACHE, attr="put", name="serve.cache.put"),
    # planner + analyze
    dict(kind="span", owner="repro.planner.choose:Planner", attr="choose",
         name="planner.choose"),
    dict(kind="span", owner="repro.planner.cost", attr="schedule_time",
         name="planner.cost.schedule_time"),
    dict(kind="span", owner="repro.analyze.extract", attr="solver_schedule",
         name="analyze.extract", hook=_extract_counts),
    dict(kind="span", owner="repro.analyze.verify", attr="verify_schedule",
         name="analyze.verify"),
    dict(kind="span", owner="repro.analyze.rma", attr="verify_rma",
         name="analyze.rma"),
    # fleet
    dict(kind="span", owner="repro.fleet.service:FleetService", attr="run",
         name="fleet.service.run"),
    dict(kind="leaf", owner="repro.fleet.ring:HashRing", attr="route",
         name="fleet.ring.route"),
    dict(kind="span", owner="repro.fleet.report:FleetReport",
         attr="to_json", name="fleet.report.to_json"),
]
