"""Smoke tests of the benchmark itself (not collected by tier-1).

    PYTHONPATH=src python -m pytest -q benchmarks/hostbench/test_hostbench.py

They run every workload in ``--quick`` mode, so they take a minute or two.
"""

import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    MANIFEST = json.load(f)
with open(os.path.join(HERE, "spec.json")) as f:
    SPEC = json.load(f)
NAMES = [w["name"] for w in MANIFEST["workloads"]]


def run_py(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *args], stdout=subprocess.PIPE, text=True,
                          cwd=ROOT)


def driver_line(name: str, trace: int) -> dict:
    proc = run_py("--workload", name, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stdout
    return json.loads(proc.stdout.rstrip("\n").rsplit("\n", 1)[-1])


def test_manifest_matches_spec():
    assert MANIFEST["command"] == SPEC["command"]
    assert MANIFEST["run_seconds"] == SPEC["run_seconds"]
    assert NAMES == list(SPEC["workloads"])
    for scope in ("end_to_end", "per_layer"):
        listed = {m["name"]: m for m in MANIFEST[scope]}
        want = {k: m for k, m in SPEC["metrics"].items()
                if m["driver"] == scope}
        assert list(listed) == list(want)
        for k, m in listed.items():
            assert m["unit"] == want[k]["unit"], k
            assert m["better"] == want[k]["better"], k
            if scope == "end_to_end":
                assert m["bound"] == want[k]["bound"], k
    for wspec in SPEC["workloads"].values():
        assert set(wspec["metrics"]) <= set(SPEC["metrics"])
    for layer in SPEC["layers"]:
        assert set(layer["metrics"]) <= set(SPEC["metrics"])


def test_spec_op_counts_match_the_workloads():
    for name, wspec in SPEC["workloads"].items():
        wl = workloads.WORKLOADS[name](0, False)
        if not hasattr(wl, "ops_per_pass"):
            wl.build()              # static_plan counts its ops as it builds
        assert wl.ops_per_pass == wspec["ops"], name


@pytest.mark.parametrize("name", NAMES)
def test_driver_lines_name_every_metric_and_repeat_exactly(name):
    """Every declared metric appears with its declared unit; deterministic
    counts and every ``virtual_*`` number are identical across two runs."""
    line = driver_line(name, 0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    assert {k: m["unit"] for k, m in line["metrics"].items()} == want
    assert all(m["value"] > 0 for m in line["metrics"].values())

    first, second = driver_line(name, 1), driver_line(name, 1)
    want = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
    assert {k: m["unit"] for k, m in first["metrics"].items()} == want
    assert first["failed"] == second["failed"] == 0
    for k in SPEC["workloads"][name]["metrics"]:
        if SPEC["metrics"][k]["driver"] == "per_layer":
            assert k in first["metrics"]
    for k, m in first["metrics"].items():
        if SPEC["metrics"][k]["compare"] == "exact":
            assert m["value"] == second["metrics"][k]["value"], k
    assert first["metrics"]["trace.unattributed_share"]["value"] < 0.05


def test_isolation_the_workloads_were_chosen_for():
    traced = {name: driver_line(name, 1)["metrics"]
              for name in ("replay_steady", "static_plan", "serve_auto")}
    assert traced["replay_steady"]["comm.simulator.run.calls"]["value"] == 0
    assert traced["replay_steady"]["replay.hit_ratio"]["value"] == 1
    assert traced["static_plan"]["comm.simulator.run.calls"]["value"] == 0
    assert traced["serve_auto"]["serve.replayed_share"]["value"] == 0


def test_all_workloads_command_and_compare(tmp_path):
    out = str(tmp_path)
    proc = run_py("--quick", "--seed", "5", "--out", out)
    assert proc.returncode == 0, proc.stdout
    path = os.path.join(out, "hostbench_quick_seed5.json")
    with open(path) as f:
        doc = json.load(f)
    assert sorted(doc["workloads"]) == sorted(NAMES)
    assert doc["host"]["nproc"] >= 1 and doc["host"]["numpy"]
    for name in NAMES:
        for k in SPEC["workloads"][name]["metrics"]:
            assert doc["workloads"][name]["metrics"][k]["unit"] \
                == SPEC["metrics"][k]["unit"]
            assert f"{k} " in proc.stdout

    cmp_py = [sys.executable, os.path.join(HERE, "compare.py")]
    assert subprocess.run(cmp_py + [path, path],
                          stdout=subprocess.DEVNULL).returncode == 0
    moved = copy.deepcopy(doc)
    moved["workloads"]["sim_narrow"]["metrics"]["virtual_time_s"][
        "value"] *= 1.0 + 1e-12
    other = os.path.join(out, "moved.json")
    with open(other, "w") as f:
        json.dump(moved, f)
    res = subprocess.run(cmp_py + [path, other], stdout=subprocess.PIPE,
                         text=True)
    assert res.returncode == 1 and "CHANGED" in res.stdout


def test_compare_verdicts():
    host = {"compare": "relative", "better": "higher", "bound": 0.1}
    assert compare.judge(host, 100.0, 95.0, 0.02) == "unchanged"
    assert compare.judge(host, 100.0, 95.0, 0.2) == "unresolved"
    assert compare.judge(host, 100.0, 85.0, 0.02) == "REGRESSED"
    assert compare.judge(host, 100.0, 120.0, 0.02) == "improved"
    lower = {"compare": "relative", "better": "lower", "bound": 0.1}
    assert compare.judge(lower, 1.0, 1.2, 0.0) == "REGRESSED"
    exact = {"compare": "exact"}
    assert compare.judge(exact, 0.5, 0.5, 0.0) == "same"
    assert compare.judge(exact, 0.5, 0.5000001, 0.0) == "CHANGED"
    share = {"compare": "absolute"}
    assert compare.judge(share, 0.0, 0.01, 0.0) == "REGRESSED"


def test_injected_wrong_answers_count_as_failed_ops():
    wl = workloads.sim_narrow(0, True)
    wl.build()
    outs = [op() for op in wl.ops]
    assert wl.verify(outs) == []
    # A wrong answer: the residual check must catch it.
    outs[0].x[0] += 1.0
    # A right answer with one bit flipped: only bit-identity can catch it.
    i = wl.configs.index(("nlpkkt80", "onesided_put", 1))
    outs[i].x[0] = np.nextafter(outs[i].x[0], np.inf)
    # An op that raised is counted by run.py, not a second time here.
    outs[2] = workloads.OpError(RuntimeError("boom"))
    failures = wl.verify(outs)
    assert len(failures) == 2
    assert "residual" in failures[0] and "bit-identical" in failures[1]


def test_a_raising_op_is_recorded_and_the_pass_goes_on():
    import run

    class Two:
        ops = [lambda: 1 / 0, lambda: "fine"]

    _, times, outs = run.run_pass(Two())
    assert len(times) == 2 and outs[1] == "fine"
    assert "ZeroDivisionError" in outs[0].message
