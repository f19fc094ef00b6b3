"""Custom AST lint over the runtime source (``repro lint``).

Nine rules, each catching a pattern that has already bitten this codebase
(see ``docs/ANALYSIS.md`` for the catalog with examples):

- **RPR001** ``untagged-wildcard-recv`` — ``recv(src=ANY)`` with no tag
  filter.  A bare double wildcard matches *anything*, so overlapping
  protocol phases silently steal each other's messages; the kernels scope
  every ANY-source receive with a ``tag_salt`` predicate for exactly this
  reason.
- **RPR002** ``unlabeled-collective`` — ``bcast``/``reduce``/
  ``allreduce``/``barrier`` called without ``sync=``.  Unlabeled
  collectives are invisible to the sync-point accounting that pins the
  paper's 1 vs ``ceil(log2 Pz)`` claim.
- **RPR003** ``noncanonical-accumulation`` — raw ``@`` / ``.dot`` in the
  RHS-panel kernel modules, bypassing ``util.matmul_columns``.  Wide
  GEMMs tile their summation differently than column GEMMs, which breaks
  the per-column bit-reproducibility contract the serving tier batches
  under.
- **RPR004** ``wallclock-or-unseeded-rng`` — ``time.time``-family calls,
  ``random``/unseeded ``numpy.random`` draws.  Everything in the runtime
  must be deterministic and virtual-clocked; wall clocks and ambient RNGs
  make replays diverge.
- **RPR005** ``mutable-default-arg`` — list/dict/set literals (or
  constructor calls) as parameter defaults; the shared-instance trap.
- **RPR006** ``hardcoded-scenario-seed`` — a literal constant seed fed to
  workload / fault / RNG construction inside a ``scenarios/`` module.
  The scenario subsystem's replay contract is that the *only* randomness
  root is ``Scenario.seed``; a literal anywhere downstream silently forks
  the replay coordinate, so two runs that claim the same scenario+seed
  can diverge.  (``Scenario(seed=...)`` itself — the declared spec — is
  exactly where the literal belongs and is not flagged.)
- **RPR007** ``direct-backend-construction`` — building a solver backend
  by hand (``*_rank_fn`` / ``build_*_setup`` calls) outside the runtime
  packages that own them.  Application code that constructs backends
  directly bypasses ``SpTRSVSolver``'s setup caches, the planner's
  algorithm resolution, and the resilience tiering — three layers of
  behavior the solve contract depends on.
- **RPR008** ``unfenced-put`` — a ``ctx.put(...)`` with no later
  ``ctx.flush``/``ctx.fence`` lexically in the same function.  A put is
  only applied to the target window at its origin's next flush or fence;
  a rank program that ends an epochless put leaks an in-flight write the
  runtime never delivers (``sim.rma-conservation``) and the static
  certifier rejects (``unapplied-put``).
- **RPR009** ``arithmetic-outside-kernels`` — ``matmul_columns`` or
  ``np.zeros``/``empty``/``array``/``concatenate`` in a rank program
  (a generator function of a rank-program module, closures included),
  bypassing ``ctx.kernels`` and so the extractor's shape-only set.

Suppression: a ``# repro: allow[RPR003]`` comment on the flagged line or
the line directly above silences that rule there (comma-separate several
rules; ``allow[*]`` silences all).
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass

#: rule id -> (slug, fix hint)
RULES: dict[str, tuple[str, str]] = {
    "RPR001": (
        "untagged-wildcard-recv",
        "pass an explicit tag or a tag predicate (e.g. the kernel's "
        "tag_salt closure) so overlapping protocol phases cannot steal "
        "each other's messages",
    ),
    "RPR002": (
        "unlabeled-collective",
        "pass sync=<label> so profiled runs attribute the collective to a "
        "named synchronization point (the paper's sync-count accounting)",
    ),
    "RPR003": (
        "noncanonical-accumulation",
        "use repro.util.matmul_columns (or buffer contributions and sum "
        "them in canonical order) so multi-RHS columns stay bit-identical "
        "to single-RHS solves",
    ),
    "RPR004": (
        "wallclock-or-unseeded-rng",
        "deterministic paths must not read wall clocks or ambient RNGs; "
        "use the simulator's virtual clock and thread a seeded "
        "numpy.random.Generator instead",
    ),
    "RPR005": (
        "mutable-default-arg",
        "default to None and initialize inside the function body; a "
        "mutable default is one shared instance across all calls",
    ),
    "RPR006": (
        "hardcoded-scenario-seed",
        "derive every seed in a scenario module from the Scenario's "
        "declared seed (e.g. np.random.default_rng([scenario.seed, "
        "phase_index])); a literal here forks the replay coordinate so "
        "scenario+seed no longer pins the run",
    ),
    "RPR007": (
        "direct-backend-construction",
        "go through SpTRSVSolver.solve(algorithm=...) (or the planner's "
        "'auto') instead of constructing backend rank programs by hand; "
        "direct construction skips the setup caches, the planner, and "
        "the resilience tiers",
    ),
    "RPR008": (
        "unfenced-put",
        "issue ctx.flush(dst) or ctx.fence() after the last ctx.put in "
        "the same function; an unfenced put is never applied to the "
        "target window (the static certifier reports it as "
        "unapplied-put and the runtime leaks it as an in-flight write)",
    ),
    "RPR009": (
        "arithmetic-outside-kernels",
        "compute through ctx.kernels (repro.kernels) so the schedule "
        "extractor's shape-only kernel set can skip the arithmetic",
    ),
}

#: Modules under the RPR003 contract: RHS panels flow through these, so any
#: matmul here must preserve per-column bit-reproducibility.
KERNEL_MODULE_SUFFIXES = (
    "core/sptrsv2d.py",
    "core/sparse_allreduce.py",
    "core/ca_trsm.py",
    "core/sptrsv3d_new.py",
    "core/sptrsv3d_baseline.py",
    "gpu/dataflow.py",
    "gpu/solver3d.py",
    "numfact/lu.py",
)

#: Modules under the RPR009 contract: their generator functions are rank
#: programs, whose arithmetic belongs to ``ctx.kernels``.
RANK_PROGRAM_SUFFIXES = KERNEL_MODULE_SUFFIXES[:5]
_ARRAY_BUILDERS = {"zeros", "empty", "array", "concatenate"}

#: Call targets under the RPR006 contract: inside ``scenarios/`` modules,
#: these constructors/draws must receive seeds derived from
#: ``Scenario.seed``, never literal constants.  ``Scenario(...)`` itself is
#: deliberately absent — the declared spec is where the literal lives.
SEEDED_SCENARIO_CALLS = {
    "WorkloadSpec",
    "generate_workload",
    "FaultPlan",
    "uniform",
    "make_rhs",
    "default_rng",
}

#: Backend constructors under the RPR007 contract...
BACKEND_CONSTRUCTORS = {
    "new3d_rank_fn",
    "baseline3d_rank_fn",
    "ca_trsm_rank_fn",
    "build_new3d_setup",
    "build_baseline3d_setup",
    "build_ca_trsm_setup",
}

#: ...and the path fragments allowed to call them: the runtime packages
#: that own backend construction (solver facade, kernels, static
#: analysis, replay compiler, GPU engine, planner) plus the test suites
#: and benchmarks that exercise them directly.
BACKEND_OWNER_FRAGMENTS = (
    "repro/core/",
    "repro/analyze/",
    "repro/replay/",
    "repro/gpu/",
    "repro/planner/",
    "tests/",
    "benchmarks/",
)

_COLLECTIVES = {"bcast", "reduce", "allreduce", "barrier"}
#: Attribute bases whose methods merely share a collective's name
#: (functools.reduce, numpy ufunc .reduce, ...).
_NON_COLLECTIVE_BASES = {"np", "numpy", "functools", "operator"}

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_*,\s]+)\]")


@dataclass(frozen=True)
class Finding:
    """One lint hit: location, rule, what, and how to fix it."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    @property
    def slug(self) -> str:
        return RULES[self.rule][0]

    @property
    def hint(self) -> str:
        return RULES[self.rule][1]

    def describe(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: {self.rule} "
                f"[{self.slug}] {self.message}\n    fix: {self.hint}")


def _allowed_rules(line_text: str) -> set[str]:
    out: set[str] = set()
    for m in _ALLOW_RE.finditer(line_text):
        out.update(p.strip() for p in m.group(1).split(","))
    return out


def _is_suppressed(finding: Finding, lines: list[str]) -> bool:
    for ln in (finding.line, finding.line - 1):
        if 1 <= ln <= len(lines):
            allowed = _allowed_rules(lines[ln - 1])
            if "*" in allowed or finding.rule in allowed:
                return True
    return False


def _name_of(node: ast.AST) -> str | None:
    """Trailing identifier of a Name/Attribute chain (``a.b.c`` -> "c")."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _base_name(node: ast.AST) -> str | None:
    """Leading identifier of a Name/Attribute chain (``a.b.c`` -> "a")."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _is_any(node: ast.AST | None) -> bool:
    return node is not None and _name_of(node) == "ANY"


def _literal_seed(node: ast.AST | None) -> bool:
    """True when ``node`` is a compile-time numeric seed (incl. -N and
    list/tuple of such, the ``default_rng([a, b])`` spawn-key form)."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(
            node.value, bool)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _literal_seed(node.operand)
    if isinstance(node, (ast.List, ast.Tuple)):
        return bool(node.elts) and all(_literal_seed(e) for e in node.elts)
    return False


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str, kernel_module: bool,
                 scenario_module: bool = False,
                 backend_owner: bool = True, rank_module: bool = False):
        self.path = path
        self.kernel_module = kernel_module
        self.scenario_module = scenario_module
        self.backend_owner = backend_owner
        self.rank_module = rank_module
        self.generators: list[bool] = []   # enclosing defs, innermost last
        self.findings: list[Finding] = []

    def _add(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(Finding(self.path, node.lineno, node.col_offset,
                                     rule, message))

    # -- RPR001 / RPR002 / RPR004: call-site rules -------------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = _name_of(node.func)
        kwargs = {kw.arg for kw in node.keywords if kw.arg is not None}

        if name == "recv":
            src = node.args[0] if node.args else next(
                (kw.value for kw in node.keywords if kw.arg == "src"), None)
            tag = (node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "tag"), None))
            src_wild = src is None or _is_any(src)
            tag_wild = tag is None or _is_any(tag)
            if src_wild and tag_wild:
                self._add(node, "RPR001",
                          "wildcard recv without a tag filter: matches any "
                          "message from any rank")

        if (name in _COLLECTIVES and "sync" not in kwargs
                and not (isinstance(node.func, ast.Attribute)
                         and _base_name(node.func) in _NON_COLLECTIVE_BASES)):
            self._add(node, "RPR002",
                      f"collective {name}() called without a sync= label")

        self._check_rng(node, name)
        if self.scenario_module and name in SEEDED_SCENARIO_CALLS:
            seed = next((kw.value for kw in node.keywords
                         if kw.arg == "seed"), None)
            if seed is None and name == "default_rng" and node.args:
                seed = node.args[0]
            if _literal_seed(seed):
                self._add(seed, "RPR006",
                          f"literal seed passed to {name}() in a scenario "
                          "module; only Scenario.seed may root randomness")
        if self.kernel_module and name == "dot":
            self._add(node, "RPR003",
                      ".dot() in a kernel module bypasses the canonical "
                      "per-column accumulation")
        if not self.backend_owner and name in BACKEND_CONSTRUCTORS:
            self._add(node, "RPR007",
                      f"direct backend construction {name}() outside the "
                      "runtime packages that own it")
        if (self.rank_module and any(self.generators)
                and (name == "matmul_columns"
                     or (name in _ARRAY_BUILDERS
                         and _base_name(node.func) in {"np", "numpy"}))):
            self._add(node, "RPR009",
                      f"{name}() in a rank program bypasses ctx.kernels")
        self.generic_visit(node)

    def _check_rng(self, node: ast.Call, name: str | None) -> None:
        func = node.func
        base = _base_name(func) if isinstance(func, ast.Attribute) else None
        if base == "time" and name in {"time", "time_ns", "perf_counter",
                                       "perf_counter_ns", "monotonic",
                                       "monotonic_ns"}:
            self._add(node, "RPR004", f"wall-clock read time.{name}()")
        elif base == "random":
            self._add(node, "RPR004",
                      f"ambient RNG draw random.{name}()")
        elif name in {"now", "utcnow"} and base in {"datetime", "dt"}:
            self._add(node, "RPR004", f"wall-clock read {base}.{name}()")
        elif (base in {"np", "numpy"} and isinstance(func, ast.Attribute)
              and isinstance(func.value, ast.Attribute)
              and func.value.attr == "random"):
            if name == "default_rng":
                if not node.args and not node.keywords:
                    self._add(node, "RPR004",
                              "unseeded numpy default_rng() draws from "
                              "OS entropy")
            else:
                self._add(node, "RPR004",
                          f"ambient numpy RNG draw np.random.{name}()")

    # -- RPR003: raw matmul in kernel modules ------------------------------

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if self.kernel_module and isinstance(node.op, ast.MatMult):
            self._add(node, "RPR003",
                      "raw @ matmul in a kernel module bypasses the "
                      "canonical per-column accumulation")
        self.generic_visit(node)

    # -- RPR005: mutable defaults ------------------------------------------

    # -- RPR008: puts with no later flush/fence in the same function -------

    @staticmethod
    def _walk_local(node) -> list[ast.AST]:
        """All descendants of ``node``, not descending into nested defs."""
        out: list[ast.AST] = []
        stack = list(ast.iter_child_nodes(node))
        while stack:
            child = stack.pop()
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            out.append(child)
            stack.extend(ast.iter_child_nodes(child))
        return out

    def _check_unfenced_puts(self, node) -> None:
        puts: list[ast.Call] = []
        closers: list[tuple[int, int]] = []
        for child in self._walk_local(node):
            if not isinstance(child, ast.Call):
                continue
            if _base_name(child.func) != "ctx":
                continue
            name = _name_of(child.func)
            if name == "put":
                puts.append(child)
            elif name in ("flush", "fence"):
                closers.append((child.lineno, child.col_offset))
        for p in puts:
            if not any(c > (p.lineno, p.col_offset) for c in closers):
                self._add(p, "RPR008",
                          f"ctx.put() in {node.name}() with no later "
                          f"ctx.flush/ctx.fence in the same function")

    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for d in defaults:
            mutable = isinstance(d, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                                     ast.DictComp, ast.SetComp))
            if (isinstance(d, ast.Call)
                    and _name_of(d.func) in {"list", "dict", "set"}):
                mutable = True
            if mutable:
                self._add(d, "RPR005",
                          f"mutable default argument in {node.name}()")

    def visit_FunctionDef(self, node) -> None:
        self._check_defaults(node)
        self._check_unfenced_puts(node)
        self.generators.append(any(
            isinstance(n, (ast.Yield, ast.YieldFrom))
            for n in self._walk_local(node)))
        self.generic_visit(node)
        self.generators.pop()

    visit_AsyncFunctionDef = visit_FunctionDef


def lint_source(source: str, path: str) -> list[Finding]:
    """Lint one module's source text; returns unsuppressed findings."""
    norm = path.replace(os.sep, "/")
    kernel = any(norm.endswith(sfx) for sfx in KERNEL_MODULE_SUFFIXES)
    scenario = "scenarios/" in norm or norm.endswith("scenarios.py")
    owner = any(frag in norm for frag in BACKEND_OWNER_FRAGMENTS)
    rank = any(norm.endswith(sfx) for sfx in RANK_PROGRAM_SUFFIXES)
    tree = ast.parse(source, filename=path)
    v = _Visitor(path, kernel, scenario, backend_owner=owner,
                 rank_module=rank)
    v.visit(tree)
    lines = source.splitlines()
    return sorted((f for f in v.findings if not _is_suppressed(f, lines)),
                  key=lambda f: (f.path, f.line, f.col, f.rule))


def lint_file(path: str) -> list[Finding]:
    with open(path, encoding="utf-8") as fh:
        return lint_source(fh.read(), path)


def run_lint(paths: list[str]) -> list[Finding]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    files: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            for root, dirs, names in os.walk(p):
                dirs.sort()
                files += [os.path.join(root, n) for n in sorted(names)
                          if n.endswith(".py")]
        elif p.endswith(".py"):
            files.append(p)
        else:
            raise ValueError(f"not a Python file or directory: {p!r}")
    findings: list[Finding] = []
    for f in files:
        findings.extend(lint_file(f))
    return findings
