"""GPU execution model: the paper's Algorithms 4 (single-GPU) and 5
(NVSHMEM multi-GPU) as a resource-constrained dataflow simulation.

The CUDA kernels assign one thread block per supernode column; thread 0
spin-waits on the column's dependency counter (``fmod``) or on the arrival
flag of a one-sided NVSHMEM message, then the block performs the diagonal
solve and the column's GEMV/GEMMs with all threads.  The dataflow simulator
reproduces exactly that schedule: a column task becomes ready when its
dependencies or its message arrive, at most ``num_sms`` tasks compute
concurrently per GPU, and NVSHMEM messages hop down the binary broadcast
trees with intra-node (NVLink) or inter-node (Slingshot) latency/bandwidth.

The event loop is timing only; the values come from one sweep per 2D solve
in the CPU solver's canonical summation order, so a GPU solve is
bit-identical to the CPU ``new3d`` solve.
"""

from repro.gpu.dataflow import GpuSolveResult, run_gpu_2d_solve
from repro.gpu.solver3d import Gpu3DResult, solve_new3d_gpu

__all__ = [
    "run_gpu_2d_solve",
    "GpuSolveResult",
    "solve_new3d_gpu",
    "Gpu3DResult",
]
