"""Tests for the custom AST lint (repro lint, rules RPR001-RPR009)."""

from __future__ import annotations

import textwrap

from repro.analyze import run_lint
from repro.analyze.lint import RULES, lint_source


def _rules(source: str, path: str = "x.py") -> list[str]:
    return [f.rule for f in lint_source(textwrap.dedent(source), path)]


# ---------------------------------------------------------------------------
# Per-rule fixtures: each fires on the bad form, stays quiet on the good one.
# ---------------------------------------------------------------------------


def test_rpr001_untagged_wildcard_recv():
    assert _rules("yield ctx.recv()") == ["RPR001"]
    assert _rules("yield ctx.recv(src=ANY)") == ["RPR001"]
    assert _rules("yield ctx.recv(src=ANY, tag=ANY)") == ["RPR001"]
    assert _rules("yield ctx.recv(src=ANY, tag='t')") == []
    assert _rules("yield ctx.recv(src=ANY, tag=my_pred)") == []
    assert _rules("yield ctx.recv(src=3)") == []


def test_rpr002_unlabeled_collective():
    assert _rules("yield from barrier(ctx, members, tag=0)") == ["RPR002"]
    assert _rules("yield from bcast(ctx, members, 0, v)") == ["RPR002"]
    assert _rules(
        "yield from allreduce(ctx, members, v, sync='allreduce')") == []
    # Same-named non-collectives are not flagged.
    assert _rules("functools.reduce(add, xs)") == []
    assert _rules("np.add.reduce(xs)") == []


def test_rpr003_noncanonical_matmul_scoped_to_kernels():
    kernel = "src/repro/core/sptrsv2d.py"
    assert _rules("y = A @ x", path=kernel) == ["RPR003"]
    assert _rules("y = A.dot(x)", path=kernel) == ["RPR003"]
    assert _rules("y = matmul_columns(A, x)", path=kernel) == []
    # Outside the kernel modules raw matmul is fine.
    assert _rules("y = A @ x", path="src/repro/perf/roofline.py") == []


def test_rpr009_arithmetic_outside_kernels_in_rank_programs():
    rank = "src/repro/core/sptrsv3d_baseline.py"
    gen = "def prog(ctx):\n    {}\n    yield ctx.send(0, x)"
    for call in ("x = np.zeros((3, 2))", "x = np.empty(3)",
                 "x = np.array(b[0:3], copy=True)",
                 "x = np.concatenate(parts, axis=0)",
                 "x = matmul_columns(A, y)", "x = util.matmul_columns(A, y)"):
        assert _rules(gen.format(call), path=rank) == ["RPR009"], call
    # A closure of a rank program is part of it.
    closure = ("def prog(ctx):\n"
               "    def materialize():\n"
               "        return np.zeros((3, 1))\n"
               "    yield ctx.send(0, materialize())")
    assert _rules(closure, path=rank) == ["RPR009"]
    # Through the kernel set, in a plain function, or in another module:
    # not this rule's business.
    assert _rules(gen.format("x = ctx.kernels.zeros(3, 2)"), path=rank) == []
    assert _rules(gen.format("x = kz.pack(parts)"), path=rank) == []
    assert _rules("def collect():\n    return np.empty((3, 2))",
                  path=rank) == []
    assert _rules(gen.format("x = np.zeros(3)"),
                  path="src/repro/comm/collectives.py") == []
    assert _rules(gen.format("x = np.zeros(3)  # repro: allow[RPR009]"),
                  path=rank) == []


def test_rpr004_wallclock_and_rng():
    assert _rules("t = time.time()") == ["RPR004"]
    assert _rules("t = time.perf_counter()") == ["RPR004"]
    assert _rules("x = random.random()") == ["RPR004"]
    assert _rules("x = np.random.rand(3)") == ["RPR004"]
    assert _rules("rng = np.random.default_rng()") == ["RPR004"]
    assert _rules("rng = np.random.default_rng(42)") == []
    assert _rules("now = datetime.now()") == ["RPR004"]
    assert _rules("t = ctx.clock") == []


def test_rpr005_mutable_default():
    assert _rules("def f(x=[]):\n    pass") == ["RPR005"]
    assert _rules("def f(x={}):\n    pass") == ["RPR005"]
    assert _rules("def f(*, x=list()):\n    pass") == ["RPR005"]
    assert _rules("def f(x=None):\n    pass") == []
    assert _rules("def f(x=()):\n    pass") == []


def test_rpr006_literal_seed_scoped_to_scenario_modules():
    sc = "src/repro/scenarios/custom.py"
    assert _rules("rng = np.random.default_rng(1234)", path=sc) == ["RPR006"]
    assert _rules("w = generate_workload(spec, seed=7)", path=sc) == ["RPR006"]
    assert _rules("f = FaultPlan(drop=0.1, seed=-3)", path=sc) == ["RPR006"]
    assert _rules("b = make_rhs(n, 1, seed=99)", path=sc) == ["RPR006"]
    # Spawn-key form with all-literal elements is still a literal seed.
    assert _rules("rng = np.random.default_rng([1, 2])", path=sc) == ["RPR006"]
    # Seeds derived from the scenario's declared seed are the contract.
    assert _rules("rng = np.random.default_rng([seed, i])", path=sc) == []
    assert _rules("w = generate_workload(spec, seed=sc.seed)", path=sc) == []
    # The Scenario spec itself is where the literal belongs.
    assert _rules("s = Scenario(name='x', seed=101)", path=sc) == []
    # Outside scenarios/ the same code is not RPR006's business.
    assert _rules("rng = np.random.default_rng(1234)",
                  path="src/repro/serve/workload.py") == []


def test_rpr006_suppression():
    sc = "src/repro/scenarios/custom.py"
    src = "w = generate_workload(spec, seed=7)  # repro: allow[RPR006]"
    assert _rules(src, path=sc) == []


# ---------------------------------------------------------------------------
# Suppression.
# ---------------------------------------------------------------------------


def test_suppression_same_line_and_line_above():
    assert _rules("t = time.time()  # repro: allow[RPR004]") == []
    assert _rules("# repro: allow[RPR004]\nt = time.time()") == []
    # The wrong rule id does not suppress.
    assert _rules("t = time.time()  # repro: allow[RPR001]") == ["RPR004"]


def test_suppression_lists_and_star():
    src = "def f(x=[]):  # repro: allow[RPR005, RPR004]\n    pass"
    assert _rules(src) == []
    assert _rules("t = time.time()  # repro: allow[*]") == []


def test_findings_carry_hints_and_slugs():
    [f] = lint_source("t = time.time()", "m.py")
    assert f.rule == "RPR004"
    assert f.slug == RULES["RPR004"][0]
    text = f.describe()
    assert "m.py:1:" in text and "fix:" in text


# ---------------------------------------------------------------------------
# The gate the CI job enforces: the runtime itself lints clean.
# ---------------------------------------------------------------------------


def test_src_tree_has_zero_unsuppressed_findings():
    findings = run_lint(["src"])
    assert findings == [], "\n".join(f.describe() for f in findings)
