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

from array import array
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.backends import FAMILIES
from repro.core.sparse_allreduce import _my_sns, ancestor_supernodes
from repro.core.sptrsv3d_baseline import Baseline3DSetup, _my_diag_sns
from repro.core.sptrsv3d_new import New3DSetup
from repro.grids.grid3d import BlockCyclicMap
from repro.util import matmul_columns

# Instruction set (tuples, dispatched by opcode string):
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
_OPCODES = ("loadb", "zeros", "gemm", "accum", "solve", "add", "store")
_LOADB, _ZEROS, _GEMM, _ACCUM, _SOLVE, _ADD, _STORE = range(len(_OPCODES))
_ARITY = (3, 2, 3, 3, 4, 3, 3)      # operands after the opcode


class _Instrs:
    """An instruction list, unboxed: one row of five C ints per instruction
    (opcode number, then its operands, zero-padded), an accumulator's
    sources being a ``[s0, s1)`` range of the flat ``srcs``.  Sized, and
    iterates as the tuples documented above."""

    def __init__(self, code: array, srcs: array):
        self.code = np.array(code, dtype=np.intc).reshape(-1, 5)
        self.srcs = np.array(srcs, dtype=np.intc)

    def __len__(self) -> int:
        return len(self.code)

    def __iter__(self):
        srcs = self.srcs
        for at in range(0, len(self.code), 1024):     # bounded boxing
            for opc, a, b, c, d in self.code[at:at + 1024].tolist():
                if opc == _ACCUM:
                    yield ("accum", a, b, tuple(srcs[c:d].tolist()))
                else:
                    yield (_OPCODES[opc], a, b, c, d)[:1 + _ARITY[opc]]


class CompileError(RuntimeError):
    """The setup violates a structural assumption the compiler relies on."""


@dataclass
class ValueProgram:
    """A compiled, machine- and nrhs-independent solve."""

    impl: str                      # a repro.core.backends.FAMILIES name
    tree_kind: str
    n: int                         # rows of the permuted solution
    nregs: int
    instrs: _Instrs
    consts: list[np.ndarray]       # factor blocks / diagonal inverses (refs)
    _vplan: object = field(default=None, repr=False, compare=False)

    @property
    def kernel_count(self) -> int:
        """Floating-point kernel calls per execution (gemm/solve/accum/add)."""
        counts = self.op_counts()
        return sum(counts.get(op, 0)
                   for op in ("gemm", "solve", "accum", "add"))

    def op_counts(self) -> dict[str, int]:
        """Instructions per opcode, in order of first appearance."""
        opcodes = self.instrs.code[:, 0]
        ops, at = np.unique(opcodes, return_index=True)
        counts = np.bincount(opcodes)
        return {_OPCODES[op]: int(counts[op]) for op in ops[np.argsort(at)]}

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


_LAYOUTS = "CFX"                     # _layout() classes, as group keys
_ACCS, _ADDS, _MATS = range(3)       # what a group of instructions does


def _row_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + l)`` over the pairs, in one pass."""
    ends = np.cumsum(lengths)
    return (np.arange(ends[-1] if len(ends) else 0, dtype=np.intp)
            + np.repeat(starts - (ends - lengths), lengths))


def _shaped(a: np.ndarray, *shape: int) -> np.ndarray:
    """``a`` reshaped in place: it stays its own base, where ``reshape``
    would keep a second array object per index array and stack alive."""
    a.shape = shape
    return a


def _register_rows(prog: ValueProgram) -> np.ndarray:
    """Rows of every register."""
    code = prog.instrs.code
    op, reg = code[:, 0], code[:, 1]
    length = np.zeros(prog.nregs, dtype=np.intp)
    sel = op == _LOADB
    length[reg[sel]] = code[sel, 3] - code[sel, 2]
    sel = (op == _ZEROS) | (op == _ACCUM)
    length[reg[sel]] = code[sel, 2]
    sel = (op == _GEMM) | (op == _SOLVE)
    length[reg[sel]] = [prog.consts[ci].shape[0] for ci in code[sel, 2]]
    for i in np.flatnonzero(op == _ADD):           # an add may feed an add
        length[reg[i]] = length[code[i, 2]]
    return length


def _levels(prog: ValueProgram) -> np.ndarray:
    """DAG depth of every instruction that computes (loads and zero-fills
    are level 0), in program order."""
    depth = [0] * prog.nregs
    levels = []
    for ins in prog.instrs:
        kind = ins[0]
        if kind == "accum":
            operands = ins[3]
        elif kind == "gemm":
            operands = ins[3:]
        elif kind in ("solve", "add"):
            operands = ins[-2:]
        else:
            continue
        depth[ins[1]] = lv = 1 + max((depth[s] for s in operands), default=0)
        levels.append(lv)
    return np.array(levels, dtype=np.intc)


def _call_groups(prog: ValueProgram,
                 length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The computing instructions in write order, and the seven keys that
    decide which neighbours share one numpy call (one column each).

    Least significant key first: a neither-contiguous block (not produced
    by today's plans) runs alone — a group of one multiplies the original
    array, and gufunc broadcasting runs the core op on its exact strides;
    then gemm | solve, layout (C, F, neither), k, m, accumulate | add |
    multiply, DAG depth.  Within a level's accumulators the ones with most
    sources come first, so those still live in round ``r`` are a prefix;
    other ties keep program order.  Every operand of a level-L instruction
    is defined at a strictly lower level, so batching within a level is
    safe.
    """
    consts, code = prog.consts, prog.instrs.code
    op = code[:, 0]
    body = np.flatnonzero(np.isin(op, (_GEMM, _ACCUM, _SOLVE, _ADD)))
    op = op[body]
    mat = np.flatnonzero((op == _GEMM) | (op == _SOLVE))
    const = code[body[mat], 2]
    group = np.zeros((7, len(body)), dtype=np.intc)
    group[2, mat] = [_LAYOUTS.index(_layout(consts[ci])) for ci in const]
    group[0] = np.where(group[2] == _LAYOUTS.index("X"), body, 0)
    group[1] = op == _SOLVE
    group[3, mat] = [consts[ci].shape[1] for ci in const]
    group[4, mat] = length[code[body[mat], 1]]       # m: the rows it writes
    group[5] = _ACCS
    group[5, op == _ADD] = _ADDS
    group[5, mat] = _MATS
    group[6] = _levels(prog)
    fewest_sources_last = (code[body, 3] - code[body, 4]) * (op == _ACCUM)
    by_group = np.lexsort((fewest_sources_last, *group))
    return body[by_group], group[:, by_group]


class _VectorPlan:
    """Level-batched executor for one :class:`ValueProgram`.

    Registers live in one flat ``(total_rows, nrhs)`` arena (each SSA
    register owns a fixed row range).  Instructions are scheduled by DAG
    depth and, within a level, grouped so that

    - all GEMM/solve blocks of one ``(m, k)`` shape run as a single
      stacked gufunc matmul ``(G, 1, m, k) @ (G, nrhs, k, 1)``, and
    - all elementwise adds (accumulation rounds, receive-adds) run as one
      gathered add each,

    cutting thousands of per-block numpy dispatches down to a few per
    level.  Rows are assigned **in write order** — loads, zero-fills, then
    per level the accumulators, the adds and each matmul group
    (:func:`_call_groups`) — so everything a step writes is one slice of
    the arena: the plan keeps source indices only and no write is a
    scatter.

    This is bit-identical to the interpreter because (a) any topological
    order — and any placement — of an SSA program computes the same
    values, (b) elementwise ops are columnwise/rowwise independent, and
    (c) numpy evaluates a stacked matmul as the identical per-slice
    ``(m, k) @ (k, 1)`` BLAS call that :func:`repro.util.matmul_columns`
    makes — per-column accumulation order and all (pinned by
    ``tests/test_replay.py``).  Per-accumulator add order is preserved by
    executing round ``r`` (every accumulator's ``r``-th source, canonical
    key order) before round ``r + 1``.
    """

    def __init__(self, prog: ValueProgram):
        consts = prog.consts
        code, srcs = prog.instrs.code, prog.instrs.srcs
        op, reg = code[:, 0], code[:, 1]
        length = _register_rows(prog)
        body, group = _call_groups(prog, length)

        # Arena rows in write order: loads, zero-fills, the grouped body.
        order = np.concatenate([np.flatnonzero(op == _LOADB),
                                np.flatnonzero(op == _ZEROS), body])
        ends = np.cumsum(length[reg[order]])
        first = np.empty(prog.nregs, dtype=np.intp)
        first[reg[order]] = ends - length[reg[order]]
        ends = ends[len(order) - len(body):].copy()     # of the body only
        del order

        def rows(regs: np.ndarray) -> np.ndarray:
            """Arena rows of ``regs``, concatenated."""
            return _row_ranges(first[regs], length[regs])

        sel = op == _LOADB
        self.n = prog.n
        self.size = int(length.sum())
        self.load_s = _row_ranges(code[sel, 2], length[reg[sel]])
        self.zero_end = len(self.load_s) + int(
            length[reg[op == _ZEROS]].sum())

        # stages[level] = (accumulator end row, [(live end row, src)] by
        # round, (end row, a, b) of the adds, [(Ms, end row, src, lsum)] of
        # the mat groups); each starts where the previous write ended.
        self.stages = []
        changes = np.flatnonzero(
            (group[:, 1:] != group[:, :-1]).any(axis=0)) + 1
        for g0, g1 in zip([0, *changes], [*changes, len(body)]):
            _, is_solve, layout, k, m, kind, lv = group[:, g0]
            members, end = body[g0:g1], int(ends[g1 - 1])
            if g0 == 0 or lv != group[6, g0 - 1]:
                at = int(ends[g0 - 1]) if g0 else self.zero_end
                self.stages.append([at, [], None, []])
            stage = self.stages[-1]
            if kind == _ACCS:
                s0 = code[members, 3]
                nsrc = code[members, 4] - s0
                stage[0] = end
                for r in range(nsrc[0]):
                    live = np.count_nonzero(nsrc > r)
                    stage[1].append((int(ends[g0 + live - 1]),
                                     rows(srcs[s0[:live] + r])))
            elif kind == _ADDS:
                stage[2] = (end, rows(code[members, 2]),
                            rows(code[members, 3]))
            else:
                blocks = [consts[ci] for ci in code[members, 2]]
                G = len(blocks)
                if G == 1:
                    stack = blocks[0][None, None]   # its own strides
                elif _LAYOUTS[layout] == "F":
                    # Rebuild each slice with the original F-order strides
                    # (8, m*8): BLAS picks its transposed kernel from the
                    # layout, and bit-identity requires the same kernel the
                    # interpreter's ``M @ y`` call gets.
                    stack = _shaped(np.stack([M.T for M in blocks]),
                                    G, 1, k, m).transpose(0, 1, 3, 2)
                else:
                    stack = _shaped(np.stack(blocks), G, 1, m, k)
                stage[3].append((
                    stack, end, _shaped(rows(code[members, 3]), G, k),
                    (_shaped(rows(code[members, 4]), G, m)
                     if is_solve else None)))
        self.stages = [tuple(stage) for stage in self.stages]

        # The stores tile x_perm, so the solution is one gather.
        sel = np.flatnonzero(op == _STORE)
        sel = sel[np.argsort(code[sel, 2])]
        self.store_s = rows(reg[sel])
        lens = length[reg[sel]]
        if len(self.store_s) != prog.n or not np.array_equal(
                code[sel, 2], np.cumsum(lens) - lens):
            raise CompileError("stores do not tile the solution rows")

    def run(self, b_perm: np.ndarray, nrhs: int) -> np.ndarray:
        arena = np.empty((self.size, nrhs))
        at = len(self.load_s)
        arena[:at] = b_perm[self.load_s]
        arena[at:self.zero_end] = 0.0
        at = self.zero_end
        for acc_end, rnds, add3, groups in self.stages:
            arena[at:acc_end] = 0.0
            for end, src in rnds:
                dst = arena[at:end]
                np.add(dst, arena[src], out=dst)
            at = acc_end
            if add3 is not None:
                end, a, b = add3
                np.add(arena[a], arena[b], out=arena[at:end])
                at = end
            for Ms, end, src, ls in groups:
                x = arena[src]                        # (G, k, nrhs)
                if ls is not None:
                    np.subtract(x, arena[ls], out=x)
                xc = np.ascontiguousarray(x.transpose(0, 2, 1))[..., None]
                out = np.matmul(Ms, xc)               # (G, nrhs, m, 1)
                arena[at:end].reshape(out.shape[0], -1, nrhs)[...] = \
                    out[..., 0].transpose(0, 2, 1)
                at = end
        return arena[self.store_s]


class _Emitter:
    """Accumulates instructions (packed as :class:`_Instrs` keeps them),
    registers and interned constants."""

    def __init__(self):
        self.code = array("i")
        self.srcs = array("i")
        self.consts: list[np.ndarray] = []
        self._const_idx: dict[int, int] = {}
        self.nregs = 0

    def _emit(self, opc: int, a: int, b: int = 0, c: int = 0,
              d: int = 0) -> None:
        self.code.extend((opc, a, b, c, d))

    def _def(self, opc: int, *operands: int) -> int:
        """Emit an instruction defining a fresh register; the register."""
        r = self.nregs
        self.nregs += 1
        self._emit(opc, r, *operands)
        return r

    def const(self, arr: np.ndarray) -> int:
        i = self._const_idx.get(id(arr))
        if i is None:
            i = len(self.consts)
            self.consts.append(arr)
            self._const_idx[id(arr)] = i
        return i

    def loadb(self, c0: int, c1: int) -> int:
        return self._def(_LOADB, c0, c1)

    def zeros(self, rows: int) -> int:
        return self._def(_ZEROS, rows)

    def gemm(self, ci: int, src: int) -> int:
        return self._def(_GEMM, ci, src)

    def accum(self, rows: int, srcs: tuple[int, ...]) -> int:
        s0 = len(self.srcs)
        self.srcs.extend(srcs)
        return self._def(_ACCUM, rows, s0, len(self.srcs))

    def solve(self, ci: int, rhs: int, lsum: int) -> int:
        return self._def(_SOLVE, ci, rhs, lsum)

    def add(self, a: int, b: int) -> int:
        return self._def(_ADD, a, b)

    def store(self, src: int, c0: int, c1: int) -> None:
        self._emit(_STORE, src, c0, c1)


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
                        nregs=em.nregs, instrs=_Instrs(em.code, em.srcs),
                        consts=em.consts)
