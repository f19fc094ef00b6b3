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
tasks count).  A task's duration and its messages' latencies depend only
on the plan, the machine and the width, so they are tabled once per plan
and kept on it; the event loop carries ``(rank, column)`` and no arrays.
The values come from one sweep over the solved columns in topological
order, each summing its contributions in ascending producer order, so they
do not depend on the schedule at all.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.comm.costmodel import Machine, gemm_bytes, gemm_flops
from repro.core.plan2d import Plan2D
from repro.kernels import NUMERIC


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


def _task_table(plan2d: Plan2D, machine: Machine, nrhs: int,
                u_solve: bool) -> dict[int, list]:
    """Per GPU, a list indexed by column of ``(diag_s, task_s, sends,
    nbytes)`` where the GPU has a task: the diagonal solve's duration (0.0
    off the owner), the task's (diagonal solve, then one thread block over
    all local blocks of the column), the ``(child, latency)`` one-sided
    sends down the column's broadcast tree, and each message's bytes."""
    gpu, nsup = machine.gpu, len(plan2d.diag_inv)
    nbytes = [8 * plan2d.sn_size(J) * nrhs   # a float64 (w, nrhs) value
              for J in range(nsup)]
    table = {}
    for r in plan2d.grid.grid_ranks(plan2d.z):
        p = plan2d.plan_of(r)
        diag = set(p.solve_cols)
        table[r] = costs = [None] * nsup
        for J in diag.union(p.bcast_trees):
            w = plan2d.sn_size(J)
            d = gpu.op_time(gemm_flops(w, nrhs, w), gemm_bytes(w, nrhs, w),
                            u_solve=u_solve) if J in diag else 0.0
            shapes = [blk.shape for _, blk in p.consumer_blocks.get(J, ())]
            fl = sum(gemm_flops(m, nrhs, k) for m, k in shapes)
            bt = sum(gemm_bytes(m, nrhs, k) for m, k in shapes)
            tree = p.bcast_trees.get(J)
            kids = (tree.children(r) if tree is not None and tree.contains(r)
                    else ())
            costs[J] = (d, d + (gpu.op_time(fl, bt, u_solve=u_solve)
                                if fl else 0.0),
                        tuple((c, gpu.msg_latency(nbytes[J],
                                                  machine.same_node(r, c)))
                              for c in kids), nbytes[J])
    return table


def _cached(plan2d: Plan2D, key, build):
    """``build()`` once per plan and key, kept on the plan the way
    ``analyze.extract.solver_schedule`` keeps schedules on the solver."""
    cache = plan2d.__dict__.setdefault("_gpu_tables", {})
    if key not in cache:
        cache[key] = build()
    return cache[key]


class _Solve:
    """The timing-only event loop both admission policies share, and the
    numeric sweep; a policy says when a column whose dependencies are met
    (:meth:`ready`) gets an SM and what a finished task frees
    (:meth:`done`)."""

    stall = "GPU dataflow deadlock"

    def __init__(self, plan2d: Plan2D, machine: Machine, nrhs: int,
                 u_solve: bool, start_times: dict[int, float]):
        self.plan2d, self.gpu = plan2d, machine.gpu
        self.nrhs, self.u_solve = nrhs, u_solve
        self.ranks = ranks = plan2d.grid.grid_ranks(plan2d.z)
        self.plans = {r: plan2d.plan_of(r) for r in ranks}
        self.costs = _cached(plan2d, ("costs", machine, nrhs, u_solve),
                             lambda: _task_table(plan2d, machine, nrhs,
                                                 u_solve))
        self.fmod = {r: dict(self.plans[r].fmod0) for r in ranks}
        self.my_diag = {r: set(self.plans[r].solve_cols) for r in ranks}
        self.ran: dict[int, set[int]] = {r: set() for r in ranks}
        self.start = {r: start_times.get(r, 0.0) for r in ranks}
        self.busy = {r: 0.0 for r in ranks}
        self.occupied = {r: 0.0 for r in ranks}
        self.finish = dict(self.start)
        self.nvshmem_msgs, self.nvshmem_bytes = 0, 0.0
        self.events: list = []  # (time, seq, arrival?, rank, column)
        self.seq = 0

    def push(self, t: float, arrival: bool, r: int, J: int) -> None:
        heapq.heappush(self.events, (t, self.seq, arrival, r, J))
        self.seq += 1

    def run_task(self, t: float, r: int, J: int) -> None:
        """Column J's thread block computes on GPU r from time t: a diagonal
        owner solves ``value(J)`` first; everyone forwards the value down
        J's tree the moment it exists, then applies the local blocks."""
        diag, dur, sends, nbytes = self.costs[r][J]
        self.ran[r].add(J)
        for c, lat in sends:
            self.nvshmem_msgs += 1
            self.nvshmem_bytes += nbytes
            self.push(t + diag + lat, True, c, J)
        self.busy[r] += dur
        self.push(t + dur, False, r, J)

    def release(self, t: float, r: int, J: int) -> None:
        """Column J's local blocks are applied: count them off their rows
        and release the rows that are complete."""
        fmod, mine = self.fmod[r], self.my_diag[r]
        for I, _ in self.plans[r].consumer_blocks.get(J, ()):
            fmod[I] -= 1
            if fmod[I] == 0 and I in mine:
                self.ready(t, r, I)

    def sweep(self, rhs) -> dict[int, np.ndarray]:
        """The solved values, column by column in topological order
        (ascending for L, descending for U): the owner sums the column's
        contributions onto zeros in ascending producer order (never arrival
        order, which shifts with ``nrhs``; see ``repro.kernels``) and
        applies the diagonal inverse, then every GPU applies its blocks of
        the column.  ``Py == 1`` puts each row on one GPU, so contributions
        are keyed by row alone."""
        order = _cached(self.plan2d, ("sweep", self.u_solve), lambda: sorted(
            ((J, self.plan2d.sn_size(J), r) for r, p in self.plans.items()
             for J in p.solve_cols), reverse=self.u_solve))
        blocks = [p.consumer_blocks for p in self.plans.values()]
        values: dict[int, np.ndarray] = {}
        contribs: dict[int, dict[int, np.ndarray]] = {}
        for J, w, owner in order:
            settled = NUMERIC.accumulate(w, self.nrhs, contribs.pop(J, None))
            values[J] = y = NUMERIC.gemm(self.plan2d.diag_inv[J],
                                         NUMERIC.sub(rhs[owner][J], settled))
            for local in blocks:
                for I, blk in local.get(J, ()):
                    contribs.setdefault(I, {})[J] = NUMERIC.gemm(blk, y)
        return values

    def run(self, rhs) -> GpuSolveResult:
        for r in self.ranks:
            for K in self.plans[r].solve_cols:
                if self.fmod[r].get(K, 0) == 0:
                    self.ready(self.start[r], r, K)
            self.admit(self.start[r], r)
        while self.events:
            t, _, arrival, r, J = heapq.heappop(self.events)
            if arrival:
                self.ready(t, r, J)
            else:
                self.finish[r] = max(self.finish[r], t)
                self.done(t, r, J)
                self.release(t, r, J)
                self.admit(t, r)
        # Sanity: every solve column must have run.
        for r in self.ranks:
            missing = self.my_diag[r] - self.ran[r]
            if missing:  # pragma: no cover - indicates a dependency bug
                raise RuntimeError(
                    f"{self.stall} on rank {r}: {sorted(missing)[:5]}")
        values = self.sweep(rhs)
        return GpuSolveResult(
            values={r: {K: values[K] for K in self.my_diag[r]}
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
    return policy(plan2d, machine, nrhs, u_solve,
                  start_times or {}).run(rhs)
