"""Resource-constrained dataflow simulation of the GPU 2D solves.

Executes one 2D triangular solve (L or U) over the GPUs of one 2D grid.
The grid must have ``Py == 1`` (the paper's choice for NVSHMEM solves:
reduction trees are slower than broadcast trees on GPUs, §4.2.2), which
makes every supernode *row* local to a single GPU — only the broadcast of
solved subvectors crosses GPUs, exactly Algorithm 5.

Task model per GPU (one thread block per supernode column, as in the CUDA
kernels):

- ``DIAG(K)`` on K's owner: ready when ``fmod(K)`` hits zero; computes
  ``value(K)``, fires the NVSHMEM sends down K's broadcast tree at the
  moment the value exists, then applies the GPU's own blocks of column K.
- ``RECV(K)`` on a non-root tree member: ready when the one-sided message
  arrives; forwards to its tree children, then applies local blocks.

At most ``num_sms`` tasks compute concurrently per GPU (the WAIT/SOLVE
two-kernel trick means *waiting* columns do not occupy SMs, so only running
tasks count).  Real numpy numerics run inside the tasks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.comm.costmodel import Machine, gemm_bytes, gemm_flops
from repro.core.plan2d import Plan2D
from repro.util import matmul_columns


@dataclass
class GpuSolveResult:
    """Outcome of one dataflow solve over the GPUs of a 2D grid.

    Keys of the per-rank dicts are global simulator rank ids.
    ``busy``: seconds of SM compute; ``finish``: completion clock (includes
    spin waits); ``values``: solved subvectors at their diagonal owners.
    """

    values: dict[int, dict[int, np.ndarray]]
    busy: dict[int, float]       # SM-seconds (sum of task durations)
    occupied: dict[int, float]   # wall seconds with >= 1 task computing
    finish: dict[int, float]
    nvshmem_msgs: int
    nvshmem_bytes: float


class _Solve:
    """The event loop and task model both admission policies share; a
    policy says when a column whose dependencies are met (:meth:`ready`)
    gets an SM and what a finished task frees (:meth:`done`)."""

    stall = "GPU dataflow deadlock"

    def __init__(self, plan2d: Plan2D, machine: Machine, rhs, nrhs: int,
                 u_solve: bool, start_times: dict[int, float]):
        self.machine, self.gpu = machine, machine.gpu
        self.rhs, self.nrhs, self.u_solve = rhs, nrhs, u_solve
        self.size, self.diag_inv = plan2d.sn_size, plan2d.diag_inv
        self.ranks = ranks = plan2d.grid.grid_ranks(plan2d.z)
        self.plans = {r: plan2d.plan_of(r) for r in ranks}
        # Contributions are buffered per (row, producer column) and summed
        # in canonical column order at solve time (not in event-completion
        # order, which shifts with ``nrhs``) so each solved column is
        # bit-identical to a single-RHS solve — see
        # ``repro.util.matmul_columns``.
        self.contribs: dict[int, dict[int, dict[int, np.ndarray]]] = {
            r: {} for r in ranks}
        self.values: dict[int, dict[int, np.ndarray]] = {r: {} for r in ranks}
        self.fmod = {r: dict(self.plans[r].fmod0) for r in ranks}
        self.my_diag = {r: set(self.plans[r].solve_cols) for r in ranks}
        self.start = {r: start_times.get(r, 0.0) for r in ranks}
        self.busy = {r: 0.0 for r in ranks}
        self.occupied = {r: 0.0 for r in ranks}
        self.finish = dict(self.start)
        self.nvshmem_msgs = 0
        self.nvshmem_bytes = 0.0
        self.events: list = []  # (time, seq, kind, payload)
        self.seq = 0

    def push(self, t: float, kind: str, payload) -> None:
        heapq.heappush(self.events, (t, self.seq, kind, payload))
        self.seq += 1

    def apply_cost(self, r: int, J: int) -> float:
        """One thread block processes all local blocks of column J at once."""
        fl = bt = 0.0
        for _I, blk in self.plans[r].consumer_blocks.get(J, ()):
            m, k = blk.shape
            fl += gemm_flops(m, self.nrhs, k)
            bt += gemm_bytes(m, self.nrhs, k)
        return self.gpu.op_time(fl, bt, u_solve=self.u_solve) if fl else 0.0

    def send_tree(self, t: float, r: int, J: int, val: np.ndarray) -> None:
        """Fire one-sided sends to this GPU's children in J's bcast tree."""
        tree = self.plans[r].bcast_trees.get(J)
        if tree is None or not tree.contains(r):
            return
        for c in tree.children(r):
            lat = self.gpu.msg_latency(val.nbytes,
                                       self.machine.same_node(r, c))
            self.nvshmem_msgs += 1
            self.nvshmem_bytes += val.nbytes
            self.push(t + lat, "arrive", (c, J, val))

    def run_task(self, t: float, r: int, J: int) -> None:
        """Column J's thread block computes on GPU r from time t: a diagonal
        owner solves ``value(J)`` first; everyone forwards the value down
        J's tree the moment it exists, then applies the local blocks."""
        dur = 0.0
        if J in self.my_diag[r]:
            w, nrhs = self.size(J), self.nrhs
            settled = np.zeros((w, nrhs))
            row = self.contribs[r].pop(J, {})
            for K in sorted(row):   # canonical column order
                settled += row[K]
            self.values[r][J] = matmul_columns(self.diag_inv[J],
                                               self.rhs[r][J] - settled)
            dur = self.gpu.op_time(gemm_flops(w, nrhs, w),
                                   gemm_bytes(w, nrhs, w),
                                   u_solve=self.u_solve)
        # else the value was stored by the message event
        self.send_tree(t + dur, r, J, self.values[r][J])
        dur += self.apply_cost(r, J)
        self.busy[r] += dur
        self.push(t + dur, "done", (r, J))

    def post_contributions(self, t: float, r: int, J: int) -> None:
        """Apply column J's local blocks (numerics) and release new tasks."""
        for I, blk in self.plans[r].consumer_blocks.get(J, ()):
            row = self.contribs[r].setdefault(I, {})
            arr = matmul_columns(blk, self.values[r][J])
            row[J] = row[J] + arr if J in row else arr
            self.fmod[r][I] -= 1
            if self.fmod[r][I] == 0 and I in self.my_diag[r]:
                self.ready(t, r, I)

    def run(self) -> GpuSolveResult:
        for r in self.ranks:
            for K in self.plans[r].solve_cols:
                if self.fmod[r].get(K, 0) == 0:
                    self.ready(self.start[r], r, K)
            self.admit(self.start[r], r)
        while self.events:
            t, _, kind, payload = heapq.heappop(self.events)
            if kind == "arrive":
                r, J, val = payload
                self.values[r][J] = val
                self.ready(t, r, J)
            else:
                r, J = payload
                self.finish[r] = max(self.finish[r], t)
                self.done(t, r, J)
                self.post_contributions(t, r, J)
                self.admit(t, r)
        # Sanity: every solve column must have produced a value.
        for r in self.ranks:
            missing = self.my_diag[r] - set(self.values[r])
            if missing:  # pragma: no cover - indicates a dependency bug
                raise RuntimeError(
                    f"{self.stall} on rank {r}: {sorted(missing)[:5]}")
        # Strip non-diag-owned received values so callers see owner values
        # only.
        return GpuSolveResult(
            values={r: {K: self.values[r][K] for K in self.my_diag[r]}
                    for r in self.ranks},
            busy=self.busy, occupied=self.occupied, finish=self.finish,
            nvshmem_msgs=self.nvshmem_msgs, nvshmem_bytes=self.nvshmem_bytes)


class _TwoKernel(_Solve):
    """WAIT/SOLVE (§3.4): waiting columns hold no SM, so any *ready* column
    may compute, at most ``num_sms`` at a time; the rest queue by readiness.
    ``occupied`` integrates the time with at least one task computing."""

    def __init__(self, *args):
        super().__init__(*args)
        self.running = {r: 0 for r in self.ranks}
        self.waiting: dict[int, list] = {r: [] for r in self.ranks}
        self.last_t = dict(self.start)

    def ready(self, t: float, r: int, J: int) -> None:
        if self.running[r] < self.gpu.num_sms:
            self.occupy(t, r)
            self.running[r] += 1
            self.run_task(t, r, J)
        else:
            kind = "diag" if J in self.my_diag[r] else "recv"
            heapq.heappush(self.waiting[r], (t, self.seq, kind, J))

    def occupy(self, t: float, r: int) -> None:
        """Advance the occupancy integral for GPU r up to time t."""
        if self.running[r] > 0:
            self.occupied[r] += max(0.0, t - self.last_t[r])
        self.last_t[r] = t

    def admit(self, t: float, r: int) -> None:
        if self.waiting[r] and self.running[r] < self.gpu.num_sms:
            self.ready(t, r, heapq.heappop(self.waiting[r])[3])

    def done(self, t: float, r: int, J: int) -> None:
        self.occupy(t, r)
        self.running[r] -= 1


class _SingleKernel(_Solve):
    """Pre-WAIT/SOLVE NVSHMEM execution model (§3.4's limitation).

    At most ``num_sms`` thread blocks are resident per GPU, admitted in
    topological column order (ascending for L, descending for U); a
    resident block spin-waiting on dependencies *occupies its SM* until its
    work completes.  Admission order is topological across GPUs too, so no
    deadlock arises — only the concurrency loss the two-kernel fix removes.
    """

    stall = "single-kernel GPU schedule stalled"

    def __init__(self, *args):
        super().__init__(*args)
        # Admission order: every column this GPU has a thread block for.
        self.admission = {
            r: sorted(set(p.consumer_blocks) | set(p.solve_cols),
                      reverse=self.u_solve) for r, p in self.plans.items()}
        self.cursor = {r: 0 for r in self.ranks}
        self.resident = {r: 0 for r in self.ranks}
        self.resident_at: dict[tuple[int, int], float] = {}
        self.ready_at: dict[tuple[int, int], float] = {}

    def ready(self, t: float, r: int, J: int) -> None:
        if (r, J) not in self.ready_at:
            self.ready_at[(r, J)] = t
            self.maybe_start(t, r, J)

    def maybe_start(self, t: float, r: int, J: int) -> None:
        """Run task (r, J) to completion once it is both resident and ready
        (called when it becomes either, so the second call starts it)."""
        key = (r, J)
        if key in self.resident_at and key in self.ready_at:
            self.run_task(max(self.resident_at[key], self.ready_at[key], t),
                          r, J)

    def admit(self, t: float, r: int) -> None:
        """Admit further columns up to the SM residency cap."""
        cols = self.admission[r]
        while (self.cursor[r] < len(cols)
               and self.resident[r] < self.gpu.num_sms):
            J = cols[self.cursor[r]]
            self.cursor[r] += 1
            self.resident[r] += 1
            self.resident_at[(r, J)] = t
            self.maybe_start(t, r, J)

    def done(self, t: float, r: int, J: int) -> None:
        # Occupied = residency (includes the spin wait before the start).
        self.resident[r] -= 1
        self.occupied[r] += t - self.resident_at[(r, J)]


def run_gpu_2d_solve(plan2d: Plan2D, machine: Machine,
                     rhs: dict[int, dict[int, np.ndarray]], nrhs: int,
                     u_solve: bool = False,
                     start_times: dict[int, float] | None = None,
                     two_kernel: bool = True,
                     ) -> GpuSolveResult:
    """Simulate one GPU 2D solve for the grid/plan in ``plan2d``.

    ``rhs[rank][K]`` holds the right-hand side subvectors at each diagonal
    owner; ``start_times[rank]`` lets a later phase (the U-solve after the
    inter-grid allreduce) begin from per-GPU clock offsets.

    ``two_kernel`` models the paper's WAIT/SOLVE design (§3.4): waiting
    columns do not occupy SMs, so any *ready* column may compute.  With
    ``two_kernel=False`` the pre-fix NVSHMEM behavior is modeled: at most
    ``num_sms`` thread blocks are resident, admitted in ascending column
    order, and a resident block spin-waiting on its dependencies *blocks
    its SM* — the concurrency restriction the two-kernel trick removes.
    """
    if machine.gpu is None:
        raise ValueError(f"machine {machine.name!r} has no GPU model")
    if plan2d.grid.py != 1:
        raise ValueError("GPU 2D solves require Py == 1 (see module docs)")
    policy = _TwoKernel if two_kernel else _SingleKernel
    return policy(plan2d, machine, rhs, nrhs, u_solve,
                  start_times or {}).run()
