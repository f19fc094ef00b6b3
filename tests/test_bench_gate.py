"""The BENCH_*.json regression gate (tools/check_bench_regression.py)."""

import copy
import importlib.util
import json
import os

import pytest

_TOOLS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools")
_TOOL = os.path.join(_TOOLS, "check_bench_regression.py")


def _load(path):
    name = os.path.splitext(os.path.basename(path))[0]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load(_TOOL)


BASE = {
    "benchmark": "planner-accuracy",
    "schema_version": 1,
    "config": {"scale": "tiny"},
    "sweep": {
        "m/2x2x1": {"measured_best_s": 1.0e-3},
        "m/2x1x2": {"measured_best_s": 2.0e-3},
    },
    "headline": {
        "points": 2,
        "planner_hit_rate": 1.0,
        "acceptance_floor": 0.9,
    },
}


@pytest.fixture
def artifacts(tmp_path):
    def write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)
    return write


def test_identical_artifacts_pass(artifacts, capsys):
    p = artifacts("base.json", BASE)
    assert gate.main([_TOOL, p, p]) == 0
    assert "ok" in capsys.readouterr().out


def test_virtual_time_drift_fails(artifacts, capsys):
    cand = copy.deepcopy(BASE)
    cand["sweep"]["m/2x2x1"]["measured_best_s"] = 1.1e-3   # > 1%
    rc = gate.main([_TOOL, artifacts("cand.json", cand),
                    artifacts("base.json", BASE)])
    assert rc == 1
    assert "functional change" in capsys.readouterr().out


def test_missing_candidate_point_fails(artifacts, capsys):
    cand = copy.deepcopy(BASE)
    del cand["sweep"]["m/2x1x2"]
    rc = gate.main([_TOOL, artifacts("cand.json", cand),
                    artifacts("base.json", BASE)])
    assert rc == 1
    assert "missing from candidate sweep" in capsys.readouterr().out


def test_candidate_axis_drift_fails(artifacts, capsys):
    # A sweep point the baseline has never seen (new or renamed axis
    # value) must be rejected, not silently skipped: otherwise renaming
    # a point dodges the virtual-determinism comparison entirely.
    cand = copy.deepcopy(BASE)
    cand["sweep"]["m/4x4x1"] = {"measured_best_s": 5.0e-3}
    rc = gate.main([_TOOL, artifacts("cand.json", cand),
                    artifacts("base.json", BASE)])
    assert rc == 1
    assert "sweep axis drifted" in capsys.readouterr().out


def test_renamed_point_is_double_reported(artifacts, capsys):
    cand = copy.deepcopy(BASE)
    cand["sweep"]["m/8x1x1"] = cand["sweep"].pop("m/2x1x2")
    rc = gate.main([_TOOL, artifacts("cand.json", cand),
                    artifacts("base.json", BASE)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "sweep axis drifted" in out
    assert "missing from candidate sweep" in out


def test_scale_mismatch_skips_axis_checks(artifacts, capsys):
    cand = copy.deepcopy(BASE)
    cand["config"]["scale"] = "small"
    cand["sweep"]["m/4x4x1"] = {"measured_best_s": 5.0e-3}
    rc = gate.main([_TOOL, artifacts("cand.json", cand),
                    artifacts("base.json", BASE)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "skipping" in out


def test_headline_floor_fails(artifacts, capsys):
    cand = copy.deepcopy(BASE)
    cand["headline"]["planner_hit_rate"] = 0.5
    rc = gate.main([_TOOL, artifacts("cand.json", cand),
                    artifacts("base.json", BASE)])
    assert rc == 1
    assert "acceptance floor" in capsys.readouterr().out


def test_checked_in_planner_artifact_passes_against_itself():
    bench = os.path.join(os.path.dirname(_TOOL), os.pardir,
                         "BENCH_planner.json")
    assert gate.main([_TOOL, bench, bench]) == 0


# -- tools/hostbench_pairs.py: the paired-run verdict (choosing-metrics §8) ----

pairs = _load(os.path.join(_TOOLS, "hostbench_pairs.py"))

PARENT = [4.3, 4.7, 4.5, 4.4, 4.6, 4.5, 4.2, 4.8, 4.5, 4.4]


def test_pairs_gain_needs_nine_wins_and_a_gap_beyond_parent_quartiles():
    change = [3 * p for p in PARENT]
    assert pairs.verdict(PARENT, change, "higher", 0.25) == ("gain", 10)
    # Lower-is-better metrics flip the direction.
    assert pairs.verdict(change, PARENT, "lower", 0.25) == ("gain", 10)
    # Nine wins of ten still count, eight do not.
    change[0] = 1.0
    assert pairs.verdict(PARENT, change, "higher", 0.25) == ("gain", 9)
    change[1] = 1.0
    assert pairs.verdict(PARENT, change, "higher", 0.25)[0] != "gain"
    # Every pair won, but by less than the parent's own quartile distance.
    nudged = [p + 0.01 for p in PARENT]
    assert pairs.verdict(PARENT, nudged, "higher", 0.25) == ("no worse", 10)


def test_pairs_ties_count_for_neither_side():
    assert pairs.verdict(PARENT, PARENT, "higher", 0.25) == ("no worse", 0)


def test_pairs_regression_beyond_bound():
    slow = [0.7 * p for p in PARENT]
    assert pairs.verdict(PARENT, slow, "higher", 0.25) == ("REGRESSED", 0)
    assert pairs.verdict(PARENT, slow, "higher", 0.35) == ("no worse", 0)
    grown = [1.2 * p for p in PARENT]
    assert pairs.verdict(PARENT, grown, "lower", 0.1) == ("REGRESSED", 0)


def test_pairs_noisy_parent_is_unresolved_not_unchanged():
    noisy = [2.0, 6.0, 3.0, 5.0, 2.5, 5.5, 3.5, 4.5, 2.2, 5.8]
    same = [4.0] * 10
    assert pairs.verdict(noisy, same, "higher", 0.25)[0] == "unresolved"
    # ... unless every run of the change beats every run of the parent.
    clear = [6.5] * 10
    assert pairs.verdict(noisy, clear, "higher", 0.25)[0] in ("gain",
                                                              "no worse")


def test_pairs_exact_rows_fail_unless_declared_beforehand():
    name = "util.matmul_columns.calls@static_plan"
    assert pairs.exact_row(name, 108940, 108940) == (None, False)
    line, failed = pairs.exact_row(name, 108940, 54470)
    assert failed and "CHANGED (exact)" in line
    line, failed = pairs.exact_row(name, 108940, 54470, declared=[name])
    assert not failed
    assert line == f"{name}: moved (declared) 108940 -> 54470"
    # Declaring one row excuses no other: not the same metric on another
    # workload, not another metric on the same workload.
    for other in ("util.matmul_columns.calls@serve_auto",
                  "virtual_time_s@static_plan"):
        assert pairs.exact_row(other, 1.0, 2.0, declared=[name])[1]
    # A declared row that did not move is simply equal.
    assert pairs.exact_row(name, 7, 7, declared=[name]) == (None, False)
