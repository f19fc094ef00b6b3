"""Observability layer: metrics registry, sync points, critical path.

These tests pin the three contracts of ``repro.obs``:

1. the recorded counters equal hand-counted (or independently counted)
   message/byte/time totals,
2. metrics collection never perturbs virtual clocks (bit-identical runs),
3. the sync-point counter mechanically verifies the paper's headline
   claim: 1 inter-grid synchronization for the proposed algorithm,
   ``ceil(log2(Pz))`` for the baseline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.costmodel import CORI_HASWELL, PERLMUTTER_GPU
from repro.comm.simulator import Simulator
from repro.comm.trees import binary_tree, flat_tree
from repro.core.solver import SpTRSVSolver
from repro.core.sparse_allreduce import ancestor_supernodes
from repro.matrices import make_rhs, poisson2d
from repro.obs import (MetricsRegistry, analyze_critical_path,
                       format_profile, phase_table, sync_table,
                       utilization_summary)
from repro.util import ilog2

MACHINE = CORI_HASWELL


def tree_bcast_fn(tree, payload_words: int):
    """Broadcast a payload from the tree root along its edges."""

    def rank_fn(ctx):
        ctx.set_phase("l")
        if ctx.rank == tree.root:
            value = np.ones(payload_words)
        else:
            _, _, value = yield ctx.recv(src=tree.parent(ctx.rank),
                                         tag="bc", category="xy")
        for c in tree.children(ctx.rank):
            yield ctx.send(c, value, tag="bc", category="xy")
        return value

    return rank_fn


@pytest.mark.parametrize("make_tree", [binary_tree, flat_tree])
def test_tree_broadcast_hand_count(make_tree):
    """msgs == edge count, bytes == edges * payload size, exactly."""
    members = list(range(7))
    tree = make_tree(members, root=0)
    words = 13
    reg = MetricsRegistry()
    res = Simulator(len(members), MACHINE, metrics=reg).run(
        tree_bcast_fn(tree, words))
    edges = tree.edges()
    assert len(edges) == len(members) - 1
    st = reg.stats(phase="l", category="xy")
    assert st.msgs == len(edges)
    assert st.bytes == len(edges) * words * 8
    # Every recorded message is a tree edge, delivered once.
    assert sorted((m.src, m.dst) for m in reg.messages.values()) \
        == sorted(edges)
    assert all(m.delivered for m in reg.messages.values())
    # Counters agree with the simulator's own accounting.
    assert st.msgs == res.msgs_by(category="xy")
    assert st.bytes == res.bytes_by(category="xy")


def test_sparse_allreduce_two_grid_hand_count():
    """pz=2, 1 rank per grid: the allreduce is one reduce + one broadcast
    message, each carrying exactly the replicated (ancestor) rows."""
    A = poisson2d(12, stencil=5, seed=3)
    b = make_rhs(A.shape[0], 1)
    s = SpTRSVSolver(A, px=1, py=1, pz=2)
    out = s.solve(b, profile=True)
    reg = out.report.metrics
    sync = reg.sync_points()
    assert list(sync) == ["allreduce"]

    # Hand count: with one rank per grid and depth 1 there is exactly one
    # pairwise exchange each way, carrying all ancestor rows once.
    anc = ancestor_supernodes(s.layout, s.lu.partition, z=0)
    rows = sum(s.lu.partition.size(K) for K in anc[0])
    assert rows > 0
    assert sync["allreduce"].msgs == 2
    assert sync["allreduce"].bytes == 2 * rows * 8
    assert sync["allreduce"].ranks == {0, 1}
    zst = reg.stats(category="z")
    assert zst.msgs == 2
    assert zst.bytes == 2 * rows * 8


def chain_fn(ctx):
    """0 computes then sends to 1; 1 computes then sends to 2."""
    ctx.set_phase("l")
    r = ctx.rank
    if r == 0:
        yield ctx.compute(5e-6, flops=10)
        yield ctx.send(1, np.zeros(4), tag="c", category="xy")
    elif r == 1:
        yield ctx.recv(0, "c", category="xy")
        yield ctx.compute(3e-6, flops=10)
        yield ctx.send(2, np.zeros(4), tag="c", category="xy")
    else:
        yield ctx.recv(1, "c", category="xy")


def test_critical_path_three_rank_chain():
    reg = MetricsRegistry()
    res = Simulator(3, MACHINE, metrics=reg).run(chain_fn)
    cp = analyze_critical_path(reg)
    assert cp.makespan == res.makespan
    # The chain is contiguous and complete: durations sum to the makespan.
    assert cp.coverage() == pytest.approx(1.0, abs=1e-15)
    for a, b in zip(cp.steps, cp.steps[1:]):
        assert b.t0 == pytest.approx(a.t1, abs=1e-15)
    assert cp.cross_rank_hops == 2
    assert cp.ranks_touched == [0, 1, 2]
    # Both compute blocks are on the path.
    assert cp.kind_time["compute"] == pytest.approx(8e-6)
    # Rank 2's entire runtime is the chain, so nothing has zero slack
    # except through its own wait; ranks 0/1 finish early.
    assert cp.slack.shape == (3,)


def test_critical_path_rejects_incomplete_registry():
    reg = MetricsRegistry()
    reg.start_run(2, MACHINE)
    reg.add_external(0, "u", "fp", compute_time=1.0)
    with pytest.raises(ValueError, match="timeline"):
        analyze_critical_path(reg)


@pytest.fixture(scope="module")
def pz4_solver():
    A = poisson2d(16, stencil=9, seed=5)
    return SpTRSVSolver(A, px=2, py=1, pz=4)


def test_sync_count_new3d_is_one(pz4_solver):
    b = make_rhs(pz4_solver.n, 1)
    out = pz4_solver.solve(b, algorithm="new3d", profile=True)
    reg = out.report.metrics
    assert reg.nsyncs == 1
    assert list(reg.sync_points()) == ["allreduce"]


def test_sync_count_baseline_is_log_pz(pz4_solver):
    b = make_rhs(pz4_solver.n, 1)
    out = pz4_solver.solve(b, algorithm="baseline3d", profile=True)
    reg = out.report.metrics
    depth = ilog2(pz4_solver.grid.pz)
    assert reg.nsyncs == depth
    assert list(reg.sync_points()) == [f"level-{k}" for k in range(depth)]


def test_sync_count_naive_allreduce_per_node(pz4_solver):
    """The straw-man pays one rendezvous per shared tree node (> 1)."""
    b = make_rhs(pz4_solver.n, 1)
    out = pz4_solver.solve(b, algorithm="new3d", allreduce_impl="naive",
                           profile=True)
    assert out.report.metrics.nsyncs > 1


@pytest.mark.parametrize("algorithm", ["new3d", "baseline3d"])
def test_profile_clocks_bit_identical(pz4_solver, algorithm):
    """Metrics collection must not perturb the virtual clocks at all."""
    b = make_rhs(pz4_solver.n, 1)
    on = pz4_solver.solve(b, algorithm=algorithm, profile=True)
    off = pz4_solver.solve(b, algorithm=algorithm)
    assert np.array_equal(on.report.sim.clocks, off.report.sim.clocks)
    assert np.array_equal(on.x, off.x)


def test_registry_totals_match_sim_result(pz4_solver):
    """Per-(phase, category) times/messages equal SimResult's accounting."""
    b = make_rhs(pz4_solver.n, 1)
    out = pz4_solver.solve(b, profile=True)
    reg = out.report.metrics
    sim = out.report.sim
    for phase in ("l", "z", "u"):
        for cat in ("fp", "xy", "z"):
            st = reg.stats(phase=phase, category=cat)
            t = st.compute_time + st.overhead_time + st.wait_time
            # Same intervals, different summation order: equality is exact
            # up to float re-association.
            assert t == pytest.approx(
                float(sim.time_by(phase=phase, category=cat).sum()),
                rel=1e-12)
    total = reg.stats()
    assert total.msgs == sim.msgs_by()
    assert total.bytes == sim.bytes_by()
    assert reg.makespan == sim.makespan
    assert np.array_equal(reg.finish_times() <= sim.makespan + 1e-18,
                          np.ones(reg.nranks, dtype=bool))


def test_metrics_under_faults_and_transport(pz4_solver):
    """Retransmits and acks are counted; clocks stay identical to the same
    faulty run without metrics."""
    from repro.comm.faults import FaultPlan

    b = make_rhs(pz4_solver.n, 1)
    plan = FaultPlan.uniform(seed=7, drop=0.02)
    from repro.core.solver import Resilience

    resil = Resilience(reliable=True, checksums=False,
                       retries_per_tier=2)
    on = pz4_solver.solve(b, faults=plan, resilience=resil, profile=True)
    off = pz4_solver.solve(b, faults=plan, resilience=resil)
    assert np.array_equal(on.report.sim.clocks, off.report.sim.clocks)
    reg = on.report.metrics
    counts = on.report.sim.fault_counts()
    assert reg.stats().retransmits == counts.get("retransmit", 0)
    # Reliable transport acks every delivery.
    assert reg.stats().acks > 0


def test_gpu_profile_counters_without_timeline():
    A = poisson2d(10, stencil=5, seed=9)
    b = make_rhs(A.shape[0], 1)
    s = SpTRSVSolver(A, px=1, py=1, pz=2, machine=PERLMUTTER_GPU)
    out = s.solve(b, device="gpu", profile=True)
    reg = out.report.metrics
    assert reg.complete_timeline is False
    assert reg.nsyncs == 1
    assert reg.stats(phase="u", category="fp").compute_time > 0
    with pytest.raises(ValueError):
        analyze_critical_path(reg)
    text = format_profile(reg)
    assert "critical path: unavailable" in text


def test_render_sections(pz4_solver):
    b = make_rhs(pz4_solver.n, 1)
    out = pz4_solver.solve(b, profile=True)
    reg = out.report.metrics
    assert "inter-grid synchronization points: 1" in sync_table(reg)
    tbl = phase_table(reg)
    assert "L-solve" in tbl and "U-solve" in tbl and "inter-grid" in tbl
    assert "rank utilization" in utilization_summary(reg)
    full = format_profile(reg)
    assert "critical path:" in full


def test_trace_flow_annotations(tmp_path, pz4_solver):
    """metrics= adds one s/f flow pair per delivered message."""
    import json

    from repro.comm.trace_export import to_chrome_trace

    b = make_rhs(pz4_solver.n, 1)
    out = pz4_solver.solve(b, profile=True, trace=True)
    path = tmp_path / "trace.json"
    to_chrome_trace(out.report.sim, str(path), metrics=out.report.metrics)
    data = json.loads(path.read_text())
    flows = [e for e in data["traceEvents"] if e["ph"] in ("s", "f")]
    delivered = sum(1 for m in out.report.metrics.messages.values()
                    if m.delivered)
    assert len(flows) == 2 * delivered
    names = [e for e in data["traceEvents"] if e["ph"] == "M"]
    assert len(names) == pz4_solver.grid.nranks


def test_any_subset_of_observers_leaves_every_pinned_run_unchanged():
    """Pure-observer property over the ``sim_digests.json`` programs: with
    any subset of {metrics, trace, recorder} attached, everything the
    scheduler decides (clocks, label tables, marks, fault events, crashes,
    leftovers — or the error and its diagnostics) is what the bare run
    decides — one-sided programs included: puts, flushes and fences are
    recorded like everything else."""
    from itertools import combinations

    from repro.replay import TapeRecorder
    from tests.test_simulator import _digest, sim_cases

    names = ("metrics", "trace", "recorder")
    subsets = [c for k in range(4) for c in combinations(names, k)]
    for key, (n, machine, kw, program) in sim_cases().items():
        outcomes = {}
        for subset in subsets:
            attach = {"metrics": MetricsRegistry(), "trace": True,
                      "recorder": TapeRecorder(n)}
            observers = {name: attach[name] for name in subset}
            try:
                res = Simulator(n, machine, **kw, **observers).run(program())
                outcomes[subset] = _digest(res, trace=False)
            except Exception as e:
                outcomes[subset] = _digest(err=e)
        assert len(outcomes) == len(subsets)
        assert set(outcomes.values()) == {outcomes[()]}, (key, outcomes)
