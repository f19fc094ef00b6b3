"""The GPU dataflow path, pinned across commits.

tests/corpus/gpu_digests.json holds one SHA-256 per row:

- ``solve(device="gpu")`` on the paper matrices at ``tiny`` scale, every
  ``Py == 1`` grid with ``px, pz`` in {1, 2, 4}, at widths {1, 3, 16}, on
  ``perlmutter-gpu`` and (single-GPU grids only, the one-sided library has
  no sub-communicators) on ``crusher-gpu``: the solution bytes plus the
  merged ``SimResult`` (per-rank clocks, time labels, message and byte
  counts, marks), floats as ``float.hex`` and keys sorted;
- ``run_gpu_2d_solve(..., two_kernel=False)`` called directly on the L and
  U plans of the ``pz == 1`` grids: per-GPU busy, occupied and finish
  times, the NVSHMEM message and byte totals, and every solved value.

Solution bits are in on purpose: GPU solves are declared bit-identical to
the CPU ``new3d`` solver, so a change of the GPU engine must reproduce
every bit, not only every virtual number.  Like ``chaos_digests.json`` the
bits depend on the host's BLAS.  Regenerate (only for an intended change
of the GPU model) with ``PYTHONPATH=src python -m tests.test_gpu_corpus``.
"""

import hashlib
import json
import os

import numpy as np

from repro.comm import CRUSHER_GPU, PERLMUTTER_GPU
from repro.core import SpTRSVSolver
from repro.gpu import run_gpu_2d_solve
from repro.matrices import get_matrix, make_rhs

GPU_DIGESTS = os.path.join(os.path.dirname(__file__), "corpus",
                           "gpu_digests.json")

MATRICES = ("s2D9pt2048", "nlpkkt80", "ldoor")
GRIDS = [(px, 1, pz) for px in (1, 2, 4) for pz in (1, 2, 4)]
WIDTHS = (1, 3, 16)


def _hex(v):
    return float.hex(float(v)) if isinstance(v, float) else repr(v)


def _table(d):
    return [(k, _hex(v)) for k, v in sorted(d.items())]


def _solve_digest(x, sim):
    h = hashlib.sha256(np.ascontiguousarray(x).tobytes())
    h.update(repr((
        [_hex(c) for c in sim.clocks],
        [_table(d) for d in sim.times],
        [_table(d) for d in sim.sent_msgs],
        [_table(d) for d in sim.sent_bytes],
        [_table(d) for d in sim.marks],
    )).encode())
    return h.hexdigest()


def _direct_digest(res):
    h = hashlib.sha256(repr((
        _table(res.busy), _table(res.occupied), _table(res.finish),
        res.nvshmem_msgs, _hex(res.nvshmem_bytes))).encode())
    for r in sorted(res.values):
        for K in sorted(res.values[r]):
            h.update(repr((r, K)).encode())
            h.update(np.ascontiguousarray(res.values[r][K]).tobytes())
    return h.hexdigest()


def _single_kernel_rows(key, solver, nrhs):
    """Both 2D solves of a one-grid solver under the single-kernel policy,
    the U-solve from per-GPU start offsets."""
    setup = solver.setup("new3d", "binary")
    rng = np.random.default_rng(nrhs)
    for phase, plan in (("L", setup.plans_L[0]), ("U", setup.plans_U[0])):
        ranks = plan.grid.grid_ranks(0)
        rhs = {r: {K: rng.standard_normal((plan.sn_size(K), nrhs))
                   for K in plan.plan_of(r).solve_cols} for r in ranks}
        start = {r: 1e-6 * (i + 1) for i, r in enumerate(ranks)}
        res = run_gpu_2d_solve(plan, PERLMUTTER_GPU, rhs, nrhs,
                               u_solve=phase == "U", two_kernel=False,
                               start_times=start if phase == "U" else None)
        yield f"single-kernel/{key}/{phase}", _direct_digest(res)


def gpu_digests():
    out = {}
    for name in MATRICES:
        A = get_matrix(name, "tiny")
        for grid in GRIDS:
            solver = SpTRSVSolver(A, *grid, machine=PERLMUTTER_GPU)
            machines = [PERLMUTTER_GPU]
            if grid[0] == 1:
                machines.append(CRUSHER_GPU)
            for nrhs in WIDTHS:
                key = f"{name}/{'x'.join(map(str, grid))}/nrhs{nrhs}"
                b = make_rhs(A.shape[0], nrhs, "random", seed=nrhs)
                for machine in machines:
                    sol = solver.solve(b, device="gpu", machine=machine)
                    out[f"{key}/{machine.name}"] = _solve_digest(
                        sol.x, sol.report.sim)
                if grid[2] == 1:
                    out.update(_single_kernel_rows(key, solver, nrhs))
    return out


def test_gpu_digests_match_pinned_corpus():
    with open(GPU_DIGESTS) as f:
        pinned = json.load(f)
    assert gpu_digests() == pinned


if __name__ == "__main__":
    with open(GPU_DIGESTS, "w") as f:
        json.dump(gpu_digests(), f, indent=1, sort_keys=True)
        f.write("\n")
