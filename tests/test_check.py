"""Tests for repro.check: invariants, the fuzzer plumbing, the reducer."""

import json

import numpy as np
import pytest

from repro.check import (
    FuzzCase,
    InvariantViolation,
    check_cache,
    check_serve,
    check_sim,
    draw_case,
    run_case,
    shrink,
    write_repro,
)
from repro.comm import CORI_HASWELL, Simulator
from repro.serve import (
    BatchPolicy,
    FactorizationCache,
    ServiceConfig,
    SolveService,
    WorkloadSpec,
    generate_workload,
)


# -- invariant layer: accepts clean state, rejects corrupted state -----------

def _sim_result():
    def fn(ctx):
        other = 1 - ctx.rank
        ctx.set_phase("l")
        yield ctx.compute(1.0, category="fp")
        yield ctx.send(other, np.zeros(2), tag=0, category="xy")
        yield ctx.recv(src=other, tag=0, category="xy")

    return Simulator(2, CORI_HASWELL).run(fn)


def test_check_sim_accepts_clean_run():
    assert check_sim(_sim_result()) > 0


def test_check_sim_rejects_negative_clock():
    res = _sim_result()
    res.clocks[0] = -1.0
    with pytest.raises(InvariantViolation, match="clock-sane"):
        check_sim(res)


def test_check_sim_rejects_uncharged_time():
    res = _sim_result()
    res.times[0][("ghost", "fp")] = 5.0   # label time with no clock advance
    with pytest.raises(InvariantViolation, match="time-conservation"):
        check_sim(res)
    # ... unless conservation is gated off (merged GPU summaries).
    check_sim(res, conservation=False)


def test_check_sim_rejects_mailbox_leak_only_when_fault_free():
    from repro.comm.simulator import UnconsumedMessage

    res = _sim_result()
    res.unconsumed_msgs.append(
        UnconsumedMessage(dst=1, src=0, tag="x", arrival=0.5, nbytes=16))
    with pytest.raises(InvariantViolation, match="message-conservation"):
        check_sim(res)
    check_sim(res, faulted=True)          # faulted runs may leak legitimately


def test_check_cache_rejects_drifted_bytes():
    c = FactorizationCache()

    class S:
        def storage_nbytes(self):
            return 64

        def factor_time_estimate(self, machine=None):
            return 1.0

    from repro.serve.cache import CacheKey

    k = CacheKey(fingerprint="f", px=1, py=1, pz=1, machine="m",
                 max_supernode=16, symbolic_mode="detect", ordering="nd")
    c.put(k, S())
    assert check_cache(c) > 0
    c.stats.resident_bytes += 1
    with pytest.raises(InvariantViolation, match="byte-conservation"):
        check_cache(c)


CFG = ServiceConfig(px=1, py=1, pz=1)
POLICY = BatchPolicy(max_batch=4, max_wait=1e-3)


def _serve_result():
    wl = generate_workload(WorkloadSpec(seed=3, rate=2000.0, n_requests=4,
                                        deadline=10.0))
    svc = SolveService(CFG, POLICY)
    return wl, svc, svc.run(wl)


def test_check_serve_accepts_clean_run():
    wl, svc, res = _serve_result()
    assert check_serve(wl, res, service=svc) > 0


def test_check_serve_rejects_lost_request():
    wl, svc, res = _serve_result()
    lost = res.completions.pop()
    del res.solutions[lost.request.id]
    res.slo.n_completed -= 1
    with pytest.raises(InvariantViolation, match="request-conservation"):
        check_serve(wl, res, service=svc)


def test_check_serve_rejects_double_completion():
    wl, svc, res = _serve_result()
    res.completions.append(res.completions[0])
    with pytest.raises(InvariantViolation, match="single-completion"):
        check_serve(wl, res, service=svc)


def test_check_serve_rejects_early_deadline_shed():
    from repro.serve.scheduler import Rejection, RejectReason

    wl, svc, res = _serve_result()
    victim = res.completions.pop()
    del res.solutions[victim.request.id]
    res.slo.n_completed -= 1
    res.slo.n_shed += 1
    res.slo.shed_by_reason["deadline-passed"] = 1
    # Shed stamped AT the deadline violates the strict deadline < t rule.
    res.rejections.append(Rejection(victim.request,
                                    RejectReason.DEADLINE_PASSED,
                                    victim.request.deadline))
    with pytest.raises(InvariantViolation, match="deadline-boundary"):
        check_serve(wl, res)


# -- fuzz cases: drawing, round-tripping, running ----------------------------

def _draws(seed, n=10):
    rng = np.random.default_rng([seed, 0xF022])
    return [draw_case(rng, i) for i in range(n)]


def test_draw_stream_deterministic():
    assert _draws(5) == _draws(5)
    assert _draws(5) != _draws(6)


def test_draw_respects_constraints():
    for case in _draws(1, 60):
        if case.kind != "solve":
            continue
        if case.ordering == "mmd":
            assert case.pz == 1
        if case.device == "gpu":
            assert case.py == 1
            assert case.machine == "perlmutter-gpu"
            assert not case.faulted


def test_case_json_round_trip():
    for case in _draws(2, 4):
        again = FuzzCase.from_json(case.to_json())
        assert again == case
        assert again.digest() == case.digest()


def test_case_json_version_check():
    with pytest.raises(ValueError, match="version"):
        FuzzCase.from_json('{"version": 999}')


def test_run_case_reports_unknown_kind_as_failure():
    result = run_case(FuzzCase(index=0, seed=1, kind="bogus"))
    assert not result.ok
    assert "unknown" in result.mismatches[0]


def test_old_corpus_json_without_strict_match_field_loads():
    """PR 5 added strict_match; pre-existing corpus files must still parse."""
    case = FuzzCase(index=0, seed=1, kind="solve")
    doc = json.loads(case.to_json())
    del doc["strict_match"]
    again = FuzzCase.from_json(json.dumps(doc))
    assert again.strict_match is False


def test_strict_match_case_runs_clean():
    """The strict-match draw cross-checks the dynamic detector against the
    static analyzer: on the real kernels it must complete bit-identically."""
    case = FuzzCase(index=0, seed=7, kind="solve", generator="poisson2d",
                    size=10, px=2, py=2, pz=2, strict_match=True)
    assert "strict" in case.describe()
    result = run_case(case)
    assert result.ok, result.summary()


# -- the reducer -------------------------------------------------------------

def test_shrink_minimizes_while_preserving_failure():
    case = FuzzCase(index=0, seed=1, kind="solve", generator="poisson2d",
                    size=16, px=2, py=2, pz=4, nrhs=4, drop=0.05,
                    ordering="nd", symbolic_mode="fixed")

    def failing(c):
        return c.pz >= 2            # synthetic predicate: pz is the culprit

    small = shrink(case, failing)
    assert failing(small)
    assert small.pz == 2            # halved as far as the failure allows
    assert small.px == 1 and small.py == 1 and small.nrhs == 1
    assert not small.faulted
    assert small.symbolic_mode == "detect"
    assert small.size == min(s for s in (8, 10, 12, 16))


def test_shrink_returns_original_when_nothing_simpler_fails():
    case = FuzzCase(index=0, seed=1, kind="solve", generator="poisson2d",
                    size=8, px=1, py=1, pz=1, nrhs=1)
    assert shrink(case, lambda c: c == case) == case


def test_write_repro_round_trip(tmp_path):
    case = FuzzCase(index=0, seed=42, kind="solve", generator="blocktri",
                    size=4, pz=2)
    path = write_repro(case, corpus_dir=str(tmp_path))
    assert case.digest() in path
    with open(path) as f:
        assert FuzzCase.from_json(f.read()) == case


def test_check_fuzz_names_the_module():
    """The package does not shadow its ``fuzz`` submodule with the
    function of that name: the dotted name binds the module."""
    import inspect

    import repro.check.fuzz as fuzz_module

    assert inspect.ismodule(fuzz_module)
    assert inspect.isfunction(fuzz_module.fuzz)
