"""Value programs: the numpy half of a compiled solve.

A :class:`ValueProgram` is an ordered, flat list of kernel instructions
(SSA over an integer register file) that produces the permuted-order
solution of one ``(matrix, grid, algorithm)`` configuration bit-identically
to the message-driven kernels — with no coroutines, no mailbox matching
and no per-message Python dispatch.  It is independent of both ``nrhs``
(shapes are parameterized by the runtime batch width) and the machine
model (timing lives in :mod:`repro.replay.tape`).

Why compilation is sound: the 2D kernel buffers partial sums per
contribution key and materializes them in canonical key order (see
``sptrsv2d.py``), so the solved values are independent of message
interleaving; the schedule itself is static per configuration (proved by
``repro.analyze``).  The compiler therefore symbolically executes the
same worklist the kernels run — one *global* worklist across all ranks,
with sends modeled as direct register hand-offs — and any valid
topological order yields bit-identical values.  Every floating-point
operation the kernels perform (zeros-init + in-place accumulation,
``rhs - lsum``, per-column GEMMs via :func:`repro.util.matmul_columns`)
is mirrored exactly; no algebraic shortcuts (``0.0 + x`` is not even
bitwise ``x`` — it flips the sign of ``-0.0``).

Execution is two-tier: :meth:`ValueProgram.execute_interp` dispatches one
instruction at a time (the reference), while :meth:`ValueProgram.execute`
runs a :class:`_VectorPlan` — instructions scheduled by DAG depth and
batched into stacked-gufunc matmuls and fancy-indexed adds over a flat
register arena, which is where the fast path's order-of-magnitude win
over the simulated solve comes from.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.backends import FAMILIES
from repro.core.sparse_allreduce import _my_sns, ancestor_supernodes
from repro.core.sptrsv3d_baseline import Baseline3DSetup, _my_diag_sns
from repro.core.sptrsv3d_new import New3DSetup
from repro.grids.grid3d import BlockCyclicMap
from repro.util import matmul_columns

# Instruction set (plain tuples, dispatched by opcode string):
#   ("loadb", dst, c0, c1)        regs[dst] = b_perm[c0:c1]          (view)
#   ("zeros", dst, rows)          regs[dst] = zeros((rows, nrhs))
#   ("gemm",  dst, ci, src)       regs[dst] = matmul_columns(consts[ci], regs[src])
#   ("accum", dst, rows, srcs)    regs[dst] = zeros((rows, nrhs)); += each src
#   ("solve", dst, ci, rhs, ls)   regs[dst] = matmul_columns(consts[ci],
#                                                  regs[rhs] - regs[ls])
#   ("add",   dst, a, b)          regs[dst] = regs[a] + regs[b]
#   ("store", src, c0, c1)        x_perm[c0:c1] = regs[src]
# Registers are written exactly once and their arrays never mutated after
# definition (accum only mutates its own fresh zeros buffer), so register
# aliasing — e.g. the allreduce broadcast rebinding a receiver's value to
# the sender's register — is always safe.


class CompileError(RuntimeError):
    """The setup violates a structural assumption the compiler relies on."""


@dataclass
class ValueProgram:
    """A compiled, machine- and nrhs-independent solve."""

    impl: str                      # a repro.core.backends.FAMILIES name
    tree_kind: str
    n: int                         # rows of the permuted solution
    nregs: int
    instrs: list[tuple]
    consts: list[np.ndarray]       # factor blocks / diagonal inverses (refs)
    _vplan: object = field(default=None, repr=False, compare=False)

    @property
    def kernel_count(self) -> int:
        """Floating-point kernel calls per execution (gemm/solve/accum/add)."""
        return sum(1 for ins in self.instrs
                   if ins[0] in ("gemm", "solve", "accum", "add"))

    def op_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for ins in self.instrs:
            out[ins[0]] = out.get(ins[0], 0) + 1
        return out

    def execute(self, b_perm: np.ndarray, nrhs: int) -> np.ndarray:
        """Run the compiled solve; returns the permuted-order solution.

        Dispatches to the level-batched vector executor (built lazily on
        first call, nrhs-independent); :meth:`execute_interp` is the
        one-instruction-at-a-time reference it is bit-identical to.
        """
        vp = self._vplan
        if vp is None:
            vp = self._vplan = _VectorPlan(self)
        return vp.run(b_perm, nrhs)

    def execute_interp(self, b_perm: np.ndarray, nrhs: int) -> np.ndarray:
        """Reference interpreter: run the instruction list in order."""
        regs: list = [None] * self.nregs
        consts = self.consts
        x_perm = np.empty((self.n, nrhs))
        for ins in self.instrs:
            op = ins[0]
            if op == "gemm":
                regs[ins[1]] = matmul_columns(consts[ins[2]], regs[ins[3]])
            elif op == "accum":
                out = np.zeros((ins[2], nrhs))
                for s in ins[3]:
                    out += regs[s]
                regs[ins[1]] = out
            elif op == "solve":
                regs[ins[1]] = matmul_columns(
                    consts[ins[2]], regs[ins[3]] - regs[ins[4]])
            elif op == "add":
                regs[ins[1]] = regs[ins[2]] + regs[ins[3]]
            elif op == "loadb":
                regs[ins[1]] = b_perm[ins[2]:ins[3]]
            elif op == "zeros":
                regs[ins[1]] = np.zeros((ins[2], nrhs))
            elif op == "store":
                x_perm[ins[2]:ins[3]] = regs[ins[1]]
            else:  # pragma: no cover - corrupt program
                raise CompileError(f"unknown opcode {op!r}")
        return x_perm


def _layout(M: np.ndarray) -> str:
    """BLAS-relevant layout class of a constant block.

    ``M @ y`` bits depend on whether BLAS walks ``M`` row- or
    column-major (the transposed kernel sums in a different grouping), so
    stacked execution must group by layout and reproduce it per slice.
    Both-contiguous blocks (one dimension of size 1) behave as "C".
    """
    if M.flags["C_CONTIGUOUS"]:
        return "C"
    if M.flags["F_CONTIGUOUS"]:
        return "F"
    return "X"


class _VectorPlan:
    """Level-batched executor for one :class:`ValueProgram`.

    Registers live in one flat ``(total_rows, nrhs)`` arena (each SSA
    register owns a fixed row range).  Instructions are scheduled by DAG
    depth and, within a level, grouped so that

    - all GEMM/solve blocks of one ``(m, k)`` shape run as a single
      stacked gufunc matmul ``(G, 1, m, k) @ (G, nrhs, k, 1)``, and
    - all elementwise adds (accumulation rounds, receive-adds) run as one
      fancy-indexed gather/add/scatter each,

    cutting thousands of per-block numpy dispatches down to a few per
    level.  This is bit-identical to the interpreter because (a) any
    topological order of an SSA program computes the same values, (b)
    elementwise ops are columnwise/rowwise independent, and (c) numpy
    evaluates a stacked matmul as the identical per-slice ``(m, k) @
    (k, 1)`` BLAS call that :func:`repro.util.matmul_columns` makes —
    per-column accumulation order and all (pinned by
    ``tests/test_replay.py``).  Per-accumulator add order is preserved by
    executing round ``r`` (every accumulator's ``r``-th source, canonical
    key order) before round ``r + 1``.
    """

    def __init__(self, prog: ValueProgram):
        consts = prog.consts
        nregs = prog.nregs
        length = [0] * nregs
        depth = [0] * nregs

        for ins in prog.instrs:
            op = ins[0]
            if op == "loadb":
                length[ins[1]] = ins[3] - ins[2]
            elif op == "zeros":
                length[ins[1]] = ins[2]
            elif op == "gemm":
                length[ins[1]] = consts[ins[2]].shape[0]
                depth[ins[1]] = depth[ins[3]] + 1
            elif op == "accum":
                length[ins[1]] = ins[2]
                depth[ins[1]] = 1 + max((depth[s] for s in ins[3]),
                                        default=0)
            elif op == "solve":
                length[ins[1]] = consts[ins[2]].shape[0]
                depth[ins[1]] = 1 + max(depth[ins[3]], depth[ins[4]])
            elif op == "add":
                length[ins[1]] = length[ins[2]]
                depth[ins[1]] = 1 + max(depth[ins[2]], depth[ins[3]])

        offs = np.zeros(nregs + 1, dtype=np.intp)
        np.cumsum(length, out=offs[1:])
        self.size = int(offs[nregs])
        self.n = prog.n

        def rows(reg: int) -> np.ndarray:
            return np.arange(offs[reg], offs[reg] + length[reg],
                             dtype=np.intp)

        load_d, load_s = [], []              # arena rows <- b_perm rows
        store_d, store_s = [], []            # x_perm rows <- arena rows
        fills = defaultdict(list)            # level -> [row arrays to zero]
        rounds = defaultdict(list)           # (level, r) -> [(dst, src)]
        adds = defaultdict(list)             # level -> [(dst, a, b)]
        mats = defaultdict(list)             # (level, m, k, is_solve)
        for ins in prog.instrs:
            op = ins[0]
            if op == "loadb":
                load_d.append(rows(ins[1]))
                load_s.append(np.arange(ins[2], ins[3], dtype=np.intp))
            elif op == "zeros":
                fills[0].append(rows(ins[1]))
            elif op == "gemm":
                M = consts[ins[2]]
                mats[(depth[ins[1]], *M.shape, _layout(M), False)].append(
                    (M, rows(ins[1]), rows(ins[3]), None))
            elif op == "accum":
                d = rows(ins[1])
                fills[depth[ins[1]]].append(d)
                for r, s in enumerate(ins[3]):
                    rounds[(depth[ins[1]], r)].append((d, rows(s)))
            elif op == "solve":
                M = consts[ins[2]]
                mats[(depth[ins[1]], *M.shape, _layout(M), True)].append(
                    (M, rows(ins[1]), rows(ins[3]), rows(ins[4])))
            elif op == "add":
                adds[depth[ins[1]]].append(
                    (rows(ins[1]), rows(ins[2]), rows(ins[3])))
            else:  # store
                store_s.append(rows(ins[1]))
                store_d.append(np.arange(ins[2], ins[3], dtype=np.intp))

        self.load_d = np.concatenate(load_d)
        self.load_s = np.concatenate(load_s)
        self.store_d = np.concatenate(store_d)
        self.store_s = np.concatenate(store_s)

        # stages[level] = (fill, [(dst, src)] by round, (dst, a, b), mat
        # groups); every operand of a level-L instruction is defined at a
        # strictly lower level, so batching within a level is safe.
        self.stages = []
        for lv in sorted(set(fills) | set(adds)
                         | {key[0] for key in rounds}
                         | {key[0] for key in mats}):
            fill = (np.concatenate(fills[lv]) if lv in fills else None)
            rnds = []
            r = 0
            while (lv, r) in rounds:
                pairs = rounds[(lv, r)]
                rnds.append((np.concatenate([p[0] for p in pairs]),
                             np.concatenate([p[1] for p in pairs])))
                r += 1
            add3 = None
            if lv in adds:
                trip = adds[lv]
                add3 = (np.concatenate([t[0] for t in trip]),
                        np.concatenate([t[1] for t in trip]),
                        np.concatenate([t[2] for t in trip]))
            groups = []
            for key in sorted(k for k in mats if k[0] == lv):
                ents = mats[key]
                if key[3] == "X":
                    # Neither-contiguous blocks (not produced by today's
                    # plans): keep the original array per entry — gufunc
                    # broadcasting runs the core op on its exact strides.
                    for M, d, s_, l_ in ents:
                        groups.append((M, d[None], s_[None],
                                       None if l_ is None else l_[None]))
                    continue
                if key[3] == "F":
                    # Rebuild each slice with the original F-order strides
                    # (8, m*8): BLAS picks its transposed kernel from the
                    # layout, and bit-identity requires the same kernel the
                    # interpreter's ``M @ y`` call gets.
                    stack = np.ascontiguousarray(
                        np.stack([e[0].T for e in ents])).transpose(0, 2, 1)
                else:
                    stack = np.ascontiguousarray(
                        np.stack([e[0] for e in ents]))
                groups.append((
                    stack[:, None],
                    np.stack([e[1] for e in ents]),
                    np.stack([e[2] for e in ents]),
                    (np.stack([e[3] for e in ents])
                     if key[4] else None)))
            self.stages.append((fill, rnds, add3, groups))

    def run(self, b_perm: np.ndarray, nrhs: int) -> np.ndarray:
        arena = np.empty((self.size, nrhs))
        arena[self.load_d] = b_perm[self.load_s]
        for fill, rnds, add3, groups in self.stages:
            if fill is not None:
                arena[fill] = 0.0
            for dst, src in rnds:
                arena[dst] = arena[dst] + arena[src]
            if add3 is not None:
                dst, a, b = add3
                arena[dst] = arena[a] + arena[b]
            for Ms, dst, src, ls in groups:
                x = arena[src]                        # (G, k, nrhs)
                if ls is not None:
                    x = x - arena[ls]
                xc = np.ascontiguousarray(x.transpose(0, 2, 1))[..., None]
                out = np.matmul(Ms, xc)               # (G, nrhs, m, 1)
                arena[dst] = out[..., 0].transpose(0, 2, 1)
        x_perm = np.empty((self.n, nrhs))
        x_perm[self.store_d] = arena[self.store_s]
        return x_perm


class _Emitter:
    """Accumulates instructions, registers and interned constants."""

    def __init__(self):
        self.instrs: list[tuple] = []
        self.consts: list[np.ndarray] = []
        self._const_idx: dict[int, int] = {}
        self.nregs = 0

    def _reg(self) -> int:
        r = self.nregs
        self.nregs += 1
        return r

    def const(self, arr: np.ndarray) -> int:
        i = self._const_idx.get(id(arr))
        if i is None:
            i = len(self.consts)
            self.consts.append(arr)
            self._const_idx[id(arr)] = i
        return i

    def loadb(self, c0: int, c1: int) -> int:
        r = self._reg()
        self.instrs.append(("loadb", r, c0, c1))
        return r

    def zeros(self, rows: int) -> int:
        r = self._reg()
        self.instrs.append(("zeros", r, rows))
        return r

    def gemm(self, ci: int, src: int) -> int:
        r = self._reg()
        self.instrs.append(("gemm", r, ci, src))
        return r

    def accum(self, rows: int, srcs: tuple[int, ...]) -> int:
        r = self._reg()
        self.instrs.append(("accum", r, rows, srcs))
        return r

    def solve(self, ci: int, rhs: int, lsum: int) -> int:
        r = self._reg()
        self.instrs.append(("solve", r, ci, rhs, lsum))
        return r

    def add(self, a: int, b: int) -> int:
        r = self._reg()
        self.instrs.append(("add", r, a, b))
        return r

    def store(self, src: int, c0: int, c1: int) -> None:
        self.instrs.append(("store", src, c0, c1))


@dataclass
class _RankState:
    """Symbolic per-rank state of one 2D solve (mirrors ``sptrsv_2d``)."""

    plan: object
    fmod: dict = field(default_factory=dict)
    frecv: dict = field(default_factory=dict)
    contribs: dict = field(default_factory=dict)   # I -> {key: reg}
    values: dict = field(default_factory=dict)     # K -> reg


def _compile_2d(em: _Emitter, plan2d, rhs_regs: dict[int, dict[int, int]],
                ext_regs: dict[int, dict[int, int]] | None = None,
                initial_regs: dict[int, dict[int, int]] | None = None,
                ) -> tuple[dict[int, dict[int, int]], dict[int, dict[int, int]]]:
    """Symbolically execute one 2D solve across all ranks of its grid.

    The global worklist plays the role of the per-rank deques plus the
    mailbox: an ``emit`` at a broadcast-tree child is exactly the child's
    handling of the corresponding "bc" message.  Returns per-rank
    ``(values, out_lsum)`` register maps, like the kernel's return value.
    """
    size = plan2d.sn_size
    diag_inv = plan2d.diag_inv
    ranks = plan2d.grid.grid_ranks(plan2d.z)
    st: dict[int, _RankState] = {}
    for r in ranks:
        plan = plan2d.plan_of(r)
        st[r] = _RankState(plan=plan, fmod=dict(plan.fmod0),
                           frecv=dict(plan.frecv0))

    def add_contrib(s: _RankState, I: int, key: tuple, reg: int) -> None:
        c = s.contribs.setdefault(I, {})
        c[key] = em.add(c[key], reg) if key in c else reg

    def materialize(s: _RankState, I: int) -> int:
        c = s.contribs.pop(I, None)
        keys = sorted(c) if c else []
        return em.accum(size(I), tuple(c[k] for k in keys))

    def row_ready(s: _RankState, I: int) -> bool:
        return s.fmod.get(I, 0) == 0 and s.frecv.get(I, 0) == 0

    work: deque = deque()
    for r in ranks:
        s = st[r]
        if initial_regs:
            for I, reg in initial_regs.get(r, {}).items():
                add_contrib(s, I, (0, 0), reg)
        for J in s.plan.ext_cols:
            work.append(("emit", r, J, ext_regs[r][J]))
        for K in s.plan.solve_cols:
            if row_ready(s, K):
                work.append(("solve", r, K))

    while work:
        item = work.popleft()
        kind = item[0]
        if kind == "solve":
            _, r, K = item
            s = st[r]
            lsum = materialize(s, K)
            val = em.solve(em.const(diag_inv[K]), rhs_regs[r][K], lsum)
            s.values[K] = val
            work.append(("emit", r, K, val))
        elif kind == "emit":
            _, r, J, val = item
            s = st[r]
            tree = s.plan.bcast_trees.get(J)
            if tree is not None:
                for c in tree.children(r):
                    work.append(("emit", c, J, val))
            for I, blk in s.plan.consumer_blocks.get(J, ()):
                g = em.gemm(em.const(blk), val)
                add_contrib(s, I, (1, J), g)
                s.fmod[I] -= 1
                if row_ready(s, I):
                    work.append(("rowdone", r, I))
        else:  # rowdone
            _, r, I = item
            s = st[r]
            tree = s.plan.red_trees.get(I)
            if tree is None or tree.root == r:
                if I in set(s.plan.solve_cols):
                    work.append(("solve", r, I))
            else:
                m = materialize(s, I)
                p = tree.parent(r)
                sp = st[p]
                add_contrib(sp, I, (2, r), m)
                sp.frecv[I] -= 1
                if row_ready(sp, I):
                    work.append(("rowdone", p, I))

    values, outs = {}, {}
    for r in ranks:
        s = st[r]
        missing = set(s.plan.solve_cols) - set(s.values)
        if missing:
            raise CompileError(
                f"rank {r}: symbolic 2D solve incomplete, missing "
                f"{sorted(missing)[:5]}")
        values[r] = s.values
        outs[r] = {I: materialize(s, I) for I in s.plan.out_rows}
    return values, outs


def _compile_new3d(em: _Emitter, setup: New3DSetup, n: int) -> None:
    """Algorithm 1: per-grid L solves, sparse allreduce, per-grid U solves."""
    grid, part = setup.grid, setup.part
    y_regs: dict[int, dict[int, int]] = {}
    for z in range(grid.pz):
        plan_L = setup.plans_L[z]
        rhs_regs: dict[int, dict[int, int]] = {}
        for r in grid.grid_ranks(z):
            d = {}
            for K in plan_L.plan_of(r).solve_cols:
                c0, c1 = part.first(K), part.last(K)
                if setup.sn_owner_grid[K] == z:
                    d[K] = em.loadb(c0, c1)
                else:
                    d[K] = em.zeros(c1 - c0)
            rhs_regs[r] = d
        vals, _ = _compile_2d(em, plan_L, rhs_regs)
        y_regs.update(vals)

    depth = setup.layout.depth
    if depth:
        steps_by_z = [ancestor_supernodes(setup.layout, part, z)
                      for z in range(grid.pz)]
        # Reduce toward grid 0: the receiver's in-order accumulation of the
        # packed buffer is per-supernode adds in the step's key order.
        for l in range(depth):
            stride = 1 << l
            for z in range(0, grid.pz, 2 * stride):
                for r in grid.grid_ranks(z):
                    i, j, _ = grid.coords_of(r)
                    ks = _my_sns(steps_by_z[z][l], grid, i, j)
                    peer = grid.zpeer(r, z + stride)
                    peer_ks = _my_sns(steps_by_z[z + stride][l], grid, i, j)
                    if ks != peer_ks:
                        raise CompileError(
                            f"allreduce step {l}: asymmetric exchange lists "
                            f"between ranks {r} and {peer}")
                    for K in ks:
                        y_regs[r][K] = em.add(y_regs[r][K], y_regs[peer][K])
        # Mirrored broadcast: full sums flow back out (pure aliasing — the
        # kernel's copy-out of the packed buffer is bitwise the sender's
        # value).
        for l in range(depth - 1, -1, -1):
            stride = 1 << l
            for z in range(0, grid.pz, 2 * stride):
                for r in grid.grid_ranks(z):
                    i, j, _ = grid.coords_of(r)
                    ks = _my_sns(steps_by_z[z][l], grid, i, j)
                    peer = grid.zpeer(r, z + stride)
                    peer_ks = _my_sns(steps_by_z[z + stride][l], grid, i, j)
                    if ks != peer_ks:
                        raise CompileError(
                            f"allreduce step {l}: asymmetric exchange lists "
                            f"between ranks {r} and {peer}")
                    for K in ks:
                        y_regs[peer][K] = y_regs[r][K]

    x_regs: dict[int, dict[int, int]] = {}
    for z in range(grid.pz):
        plan_U = setup.plans_U[z]
        rhs_regs = {r: {K: y_regs[r][K]
                        for K in plan_U.plan_of(r).solve_cols}
                    for r in grid.grid_ranks(z)}
        vals, _ = _compile_2d(em, plan_U, rhs_regs)
        x_regs.update(vals)

    cmap = BlockCyclicMap(grid)
    for K in range(part.nsup):
        z = setup.sn_owner_grid[K]
        r = cmap.diag_owner_rank(K, z)
        em.store(x_regs[r][K], part.first(K), part.last(K))


def _compile_baseline3d(em: _Emitter, setup: Baseline3DSetup, n: int) -> None:
    """ICS'19 baseline: level-by-level L, pairwise hand-offs, mirrored U."""
    grid, part = setup.grid, setup.part
    depth = setup.layout.depth
    carry: dict[int, dict[int, int]] = {r: {} for r in range(grid.nranks)}
    y_all: dict[int, dict[int, int]] = {r: {} for r in range(grid.nranks)}

    max_k = max(len(zs) for zs in setup.steps) - 1
    for k in range(max_k + 1):
        for z in range(grid.pz):
            if k >= len(setup.steps[z]):
                continue
            _, _, plan_l, _ = setup.steps[z][k]
            rhs_regs, init_regs = {}, {}
            for r in grid.grid_ranks(z):
                d, ini = {}, {}
                for K in plan_l.plan_of(r).solve_cols:
                    d[K] = em.loadb(part.first(K), part.last(K))
                    if K in carry[r]:
                        ini[K] = carry[r].pop(K)
                rhs_regs[r], init_regs[r] = d, ini
            vals, outs = _compile_2d(em, plan_l, rhs_regs,
                                     initial_regs=init_regs)
            for r, v in vals.items():
                y_all[r].update(v)
            for r, o in outs.items():
                for I, vreg in o.items():
                    if I in carry[r]:
                        carry[r][I] = em.add(carry[r][I], vreg)
                    else:
                        carry[r][I] = vreg
        # Pairwise inter-grid reduction of ancestor partials at level k.
        if k < depth:
            stride = 1 << k
            for z in range(0, grid.pz, 2 * stride):
                zs = z + stride
                anc_r = setup.steps[z][k][1]
                anc_s = setup.steps[zs][k][1]
                for r in grid.grid_ranks(z):
                    i, j, _ = grid.coords_of(r)
                    ks = _my_diag_sns(anc_r, grid, i, j)
                    rs = grid.zpeer(r, zs)
                    ks_s = _my_diag_sns(anc_s, grid, i, j)
                    if ks != ks_s:
                        raise CompileError(
                            f"L reduce level {k}: asymmetric exchange lists "
                            f"between ranks {r} and {rs}")
                    for K in ks:
                        sreg = carry[rs].get(K)
                        if sreg is None:
                            sreg = em.zeros(part.size(K))
                        if K in carry[r]:
                            carry[r][K] = em.add(carry[r][K], sreg)
                        else:
                            carry[r][K] = sreg

    # U phase: grids in decreasing active-step count, so every hand-off
    # (sent by the grid with the strictly larger kmax) is compiled before
    # its receiver consumes it.
    handoff: dict[int, dict[int, int]] = {}
    x_all: dict[int, dict[int, int]] = {r: {} for r in range(grid.nranks)}
    for z in sorted(range(grid.pz), key=lambda zz: -len(setup.steps[zz])):
        zsteps = setup.steps[z]
        kmax = len(zsteps) - 1
        x_known: dict[int, dict[int, int]] = {r: {}
                                              for r in grid.grid_ranks(z)}
        if z != 0:
            _, anc_sns, _, _ = zsteps[kmax]
            for r in grid.grid_ranks(z):
                i, j, _ = grid.coords_of(r)
                ks = _my_diag_sns(anc_sns, grid, i, j)
                if not ks:
                    continue
                got = handoff.pop(r, None)
                if got is None or list(got) != ks:
                    raise CompileError(
                        f"U re-activation of grid {z}: rank {r} expected "
                        f"hand-off for {ks}, got "
                        f"{sorted(got) if got else None}")
                x_known[r].update(got)
        for k in range(kmax, -1, -1):
            node_sns, anc_sns, _, plan_u = zsteps[k]
            rhs_regs, ext_regs = {}, {}
            for r in grid.grid_ranks(z):
                mp = plan_u.plan_of(r)
                rhs_regs[r] = {K: y_all[r][K] for K in mp.solve_cols}
                ext_regs[r] = {J: x_known[r][J] for J in mp.ext_cols}
            vals, _ = _compile_2d(em, plan_u, rhs_regs, ext_regs=ext_regs)
            for r, v in vals.items():
                x_all[r].update(v)
                x_known[r].update(v)
            if k >= 1:
                peer_z = z + (1 << (k - 1))
                need = sorted(node_sns) + anc_sns
                for r in grid.grid_ranks(z):
                    i, j, _ = grid.coords_of(r)
                    ks = _my_diag_sns(need, grid, i, j)
                    if ks:
                        handoff[grid.zpeer(r, peer_z)] = {
                            K: x_known[r][K] for K in ks}
    if handoff:
        raise CompileError(
            f"unconsumed U hand-offs for ranks {sorted(handoff)}")

    cmap = BlockCyclicMap(grid)
    for K in range(part.nsup):
        z = setup.sn_owner_grid[K]
        r = cmap.diag_owner_rank(K, z)
        em.store(x_all[r][K], part.first(K), part.last(K))


def compile_program(setup, impl: str, tree_kind: str, n: int) -> ValueProgram:
    """Compile one solver setup into a :class:`ValueProgram`.

    ``setup`` is a :class:`New3DSetup` or :class:`Baseline3DSetup` (already
    built and cached by the solver); ``n`` is the matrix order.
    """
    compile_values = FAMILIES[impl].compile_values
    if compile_values is None:
        raise CompileError(f"no value-program compiler for impl {impl!r}")
    em = _Emitter()
    compile_values(em, setup, n)
    return ValueProgram(impl=impl, tree_kind=tree_kind, n=n,
                        nregs=em.nregs, instrs=em.instrs, consts=em.consts)
