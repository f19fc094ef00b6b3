"""Unit and integration tests for the GPU execution model (Algs. 4-5)."""

import numpy as np
import pytest

from repro.comm import CRUSHER_GPU, PERLMUTTER_CPU, PERLMUTTER_GPU
from repro.core import SpTRSVSolver
from repro.core.plan2d import build_2d_plans
from repro.gpu import run_gpu_2d_solve, solve_new3d_gpu
from repro.grids import BlockCyclicMap, Grid3D
from repro.matrices import make_rhs, poisson2d, random_spd_like
from repro.numfact import solve_residual


def run_gpu_lsolve(lu, px, b, nrhs, machine=PERLMUTTER_GPU, u_solve=False):
    grid = Grid3D(px, 1, 1)
    phase = "U" if u_solve else "L"
    plan = build_2d_plans(lu, grid, 0, phase, list(range(lu.nsup)))
    part = lu.partition
    cmap = BlockCyclicMap(grid)
    rhs = {r: {} for r in range(px)}
    for K in range(lu.nsup):
        r = cmap.diag_owner_rank(K, 0)
        rhs[r][K] = np.array(b[part.first(K):part.last(K)])
    res = run_gpu_2d_solve(plan, machine, rhs, nrhs, u_solve=u_solve)
    x = np.empty((part.n, nrhs))
    for K in range(lu.nsup):
        r = cmap.diag_owner_rank(K, 0)
        x[part.first(K):part.last(K)] = res.values[r][K]
    return x, res


@pytest.mark.parametrize("px", [1, 2, 4])
def test_gpu_lsolve_matches_reference(poisson_problem, px):
    lu = poisson_problem["lu"]
    b = make_rhs(lu.n, 2)
    x, _ = run_gpu_lsolve(lu, px, b, 2)
    assert np.allclose(x, lu.solve_L(b), atol=1e-10)


@pytest.mark.parametrize("px", [1, 2, 4])
def test_gpu_usolve_matches_reference(poisson_problem, px):
    lu = poisson_problem["lu"]
    y = make_rhs(lu.n, 2, "random", seed=4)
    x, _ = run_gpu_lsolve(lu, px, y, 2, u_solve=True)
    assert np.allclose(x, lu.solve_U(y), atol=1e-10)


def test_gpu_unstructured_matrix(random_problem):
    lu = random_problem["lu"]
    b = make_rhs(lu.n, 1, "random", seed=2)
    x, _ = run_gpu_lsolve(lu, 2, b, 1)
    assert np.allclose(x, lu.solve_L(b), atol=1e-10)


def test_gpu_requires_py1(poisson_problem):
    lu = poisson_problem["lu"]
    grid = Grid3D(2, 2, 1)
    plan = build_2d_plans(lu, grid, 0, "L", list(range(lu.nsup)))
    with pytest.raises(ValueError, match="Py == 1"):
        run_gpu_2d_solve(plan, PERLMUTTER_GPU, {}, 1)


def test_gpu_requires_gpu_model(poisson_problem):
    lu = poisson_problem["lu"]
    grid = Grid3D(1, 1, 1)
    plan = build_2d_plans(lu, grid, 0, "L", list(range(lu.nsup)))
    with pytest.raises(ValueError, match="no GPU model"):
        run_gpu_2d_solve(plan, PERLMUTTER_CPU, {}, 1)


def test_single_gpu_no_messages(poisson_problem):
    """Px = Py = 1: Algorithm 4, no intra-grid communication at all."""
    lu = poisson_problem["lu"]
    b = make_rhs(lu.n, 1)
    _, res = run_gpu_lsolve(lu, 1, b, 1)
    assert res.nvshmem_msgs == 0


def test_multi_gpu_sends_messages(poisson_problem):
    lu = poisson_problem["lu"]
    b = make_rhs(lu.n, 1)
    _, res = run_gpu_lsolve(lu, 4, b, 1)
    assert res.nvshmem_msgs > 0
    assert res.nvshmem_bytes > 0


def test_occupied_time_below_finish_time(poisson_problem):
    """Occupied wall time (union of compute intervals) fits in the elapsed
    window; SM-seconds (busy) may exceed it thanks to concurrency."""
    lu = poisson_problem["lu"]
    b = make_rhs(lu.n, 1)
    _, res = run_gpu_lsolve(lu, 2, b, 1)
    for r in res.busy:
        assert res.occupied[r] <= res.finish[r] + 1e-12
        assert res.occupied[r] <= res.busy[r] + 1e-12


def test_start_times_offset_finish(poisson_problem):
    lu = poisson_problem["lu"]
    part = lu.partition
    grid = Grid3D(1, 1, 1)
    plan = build_2d_plans(lu, grid, 0, "L", list(range(lu.nsup)))
    b = make_rhs(lu.n, 1)
    rhs = {0: {K: np.array(b[part.first(K):part.last(K)])
               for K in range(lu.nsup)}}
    r0 = run_gpu_2d_solve(plan, PERLMUTTER_GPU, rhs, 1)
    r1 = run_gpu_2d_solve(plan, PERLMUTTER_GPU, rhs, 1,
                          start_times={0: 5.0})
    assert r1.finish[0] == pytest.approx(r0.finish[0] + 5.0, rel=1e-9)


def test_sm_limit_serializes():
    """With one SM, the solve time approaches the serial sum of task costs."""
    A = poisson2d(10, stencil=9, seed=3)
    from tests.conftest import build_problem

    prob = build_problem(A, pz=1, max_supernode=4)
    lu = prob["lu"]
    b = make_rhs(lu.n, 1)
    many = PERLMUTTER_GPU
    one = PERLMUTTER_GPU.with_(gpu=PERLMUTTER_GPU.gpu.__class__(
        **{**PERLMUTTER_GPU.gpu.__dict__, "num_sms": 1}))
    _, res_many = run_gpu_lsolve(lu, 1, b, 1, machine=many)
    _, res_one = run_gpu_lsolve(lu, 1, b, 1, machine=one)
    assert res_one.finish[0] >= res_many.finish[0]
    assert res_one.finish[0] == pytest.approx(res_one.busy[0], rel=1e-9)


def test_usolve_penalty_slower(poisson_problem):
    """The modeled U-solve coalescing penalty makes U slower than L."""
    lu = poisson_problem["lu"]
    b = make_rhs(lu.n, 1)
    _, rl = run_gpu_lsolve(lu, 1, b, 1)
    _, ru = run_gpu_lsolve(lu, 1, b, 1, u_solve=True)
    assert ru.busy[0] > rl.busy[0]


# ---- full 3D GPU solver ------------------------------------------------------

@pytest.mark.parametrize("px,pz", [(1, 1), (1, 4), (2, 2), (4, 4)])
def test_gpu3d_solution_exact(px, pz):
    A = poisson2d(14, stencil=9, seed=5)
    s = SpTRSVSolver(A, px, 1, pz, max_supernode=8, machine=PERLMUTTER_GPU)
    b = make_rhs(A.shape[0], 2)
    out = s.solve(b, device="gpu")
    assert solve_residual(A, out.x, b) < 1e-10


def test_gpu3d_matches_cpu_solution():
    A = random_spd_like(150, avg_degree=5, seed=6)
    s = SpTRSVSolver(A, 2, 1, 2, max_supernode=8, machine=PERLMUTTER_GPU)
    b = make_rhs(A.shape[0], 3, "random", seed=1)
    x_gpu = s.solve(b, device="gpu").x
    x_cpu = s.solve(b, device="cpu").x
    assert np.array_equal(x_gpu, x_cpu)


def test_gpu3d_report_phases():
    A = poisson2d(12, stencil=9, seed=7)
    s = SpTRSVSolver(A, 2, 1, 2, max_supernode=8, machine=PERLMUTTER_GPU)
    out = s.solve(make_rhs(A.shape[0], 1), device="gpu")
    rep = out.report
    assert rep.total_time > 0
    assert rep.per_rank(phase="l").sum() > 0
    assert rep.per_rank(phase="u").sum() > 0
    assert rep.per_rank(category="z").sum() > 0  # pz=2: allreduce happened
    assert rep.algorithm.endswith("-gpu")


def test_gpu_crusher_single_gpu_grids_work():
    A = poisson2d(12, stencil=9, seed=8)
    s = SpTRSVSolver(A, 1, 1, 4, max_supernode=8, machine=CRUSHER_GPU)
    b = make_rhs(A.shape[0], 1)
    out = s.solve(b, device="gpu")
    assert solve_residual(A, out.x, b) < 1e-10


def test_gpu_crusher_multi_gpu_grid_rejected():
    A = poisson2d(12, stencil=9, seed=8)
    s = SpTRSVSolver(A, 2, 1, 2, max_supernode=8, machine=CRUSHER_GPU)
    with pytest.raises(ValueError, match="sub-communicators"):
        s.solve(make_rhs(A.shape[0], 1), device="gpu")


def test_gpu_rejects_baseline_and_bad_device():
    A = poisson2d(10, seed=9)
    s = SpTRSVSolver(A, 1, 1, 2, max_supernode=8, machine=PERLMUTTER_GPU)
    b = make_rhs(A.shape[0], 1)
    with pytest.raises(ValueError):
        s.solve(b, algorithm="baseline3d", device="gpu")
    with pytest.raises(ValueError):
        s.solve(b, device="tpu")


def test_gpu_multirhs_amortizes_overhead():
    """50 RHS must cost far less than 50x the 1-RHS time (paper's GEMM win)."""
    A = poisson2d(16, stencil=9, seed=10)
    s = SpTRSVSolver(A, 1, 1, 1, max_supernode=8, machine=PERLMUTTER_GPU)
    t1 = s.solve(make_rhs(A.shape[0], 1), device="gpu").report.total_time
    t50 = s.solve(make_rhs(A.shape[0], 50), device="gpu").report.total_time
    assert t50 < 10 * t1


def test_single_kernel_mode_correct_and_slower(poisson_problem):
    """two_kernel=False (the pre-WAIT/SOLVE NVSHMEM schedule) produces the
    same numerics but never runs faster; U direction works too."""
    lu = poisson_problem["lu"]
    part = lu.partition
    for u_solve in (False, True):
        b = make_rhs(lu.n, 2, "random", seed=12)
        grid = Grid3D(2, 1, 1)
        phase = "U" if u_solve else "L"
        plan = build_2d_plans(lu, grid, 0, phase, list(range(lu.nsup)))
        cmap = BlockCyclicMap(grid)
        rhs = {r: {} for r in range(2)}
        for K in range(lu.nsup):
            rhs[cmap.diag_owner_rank(K, 0)][K] = np.array(
                b[part.first(K):part.last(K)])
        two = run_gpu_2d_solve(plan, PERLMUTTER_GPU, rhs, 2, u_solve=u_solve)
        one = run_gpu_2d_solve(plan, PERLMUTTER_GPU, rhs, 2, u_solve=u_solve,
                               two_kernel=False)
        for r in two.values:
            for K in two.values[r]:
                assert np.array_equal(two.values[r][K], one.values[r][K])
        assert max(one.finish.values()) >= max(two.finish.values()) * 0.999
