"""The arithmetic of the rank programs: ``ctx.kernels`` is one of two sets.

:data:`NUMERIC` (picked by the simulator) makes the real numpy calls, in
the rank program's order, so every value is exact.  :data:`SHAPE` (picked by
:mod:`repro.analyze.extract`) returns a fresh zero array of each result's
shape and does no arithmetic: extraction runs on a zero RHS, so these are
the values it computes anyway, and shapes and message sizes are the same.
``gemm`` calls :func:`repro.util.matmul_columns` through its module, so
whatever rebinds that name (a tracer, a test's counter) sees every call.
"""

from __future__ import annotations

import numpy as np

from repro import util


class Numeric:
    """The real arithmetic."""

    def zeros(self, m, nrhs):
        return np.zeros((m, nrhs))

    def gemm(self, M, Y):
        return util.matmul_columns(M, Y)

    def sub(self, a, b):
        return a - b

    def add(self, a, b):
        return a + b

    def accumulate(self, m, nrhs, parts):
        """Zeros plus the values of the dict ``parts`` in sorted key order.
        Never arrival order: arrival shifts with ``nrhs`` and addition is
        order-sensitive, so this keeps every column bit-identical to the
        same column solved alone — the contract batching relies on."""
        out = np.zeros((m, nrhs))
        if parts:
            for key in sorted(parts):
                out += parts[key]
        return out

    def pack(self, parts):
        return np.concatenate(parts, axis=0)

    def unpack(self, buf, dst, ks, width, add):
        """Split ``buf`` row-wise over ``ks`` (``width(K)`` rows each) into
        ``dst[K]``: added (``add``) or copied in place, or a fresh copy
        where ``dst`` has no ``K``."""
        ofs = 0
        for K in ks:
            w = width(K)
            piece = buf[ofs:ofs + w]
            if K not in dst:
                dst[K] = np.array(piece)
            elif add:
                dst[K] += piece
            else:
                dst[K][:] = piece
            ofs += w

    def tree_sum(self, bufs):
        """Balanced pairwise sum: for a power-of-two share width, bit for
        bit the association order of the hypercube reduce."""
        while len(bufs) > 1:
            nxt = [bufs[a] + bufs[a + 1] for a in range(0, len(bufs) - 1, 2)]
            if len(bufs) % 2:
                nxt.append(bufs[-1])
            bufs = nxt
        return bufs[0]

    def copy(self, value):
        return np.array(value, copy=True)

    def combine(self, op, a, b):
        return op(a, b)


class Shape(Numeric):
    """Zero arrays of the result shapes, no arithmetic; ``zeros`` shared."""

    def gemm(self, M, Y):
        return np.zeros(M.shape[:1] + Y.shape[1:])

    def sub(self, a, b):
        return np.zeros(a.shape)

    add = sub

    def accumulate(self, m, nrhs, parts):
        return np.zeros((m, nrhs))

    def pack(self, parts):
        return np.zeros((sum(p.shape[0] for p in parts),)
                        + parts[0].shape[1:])

    def unpack(self, buf, dst, ks, width, add):
        for K in ks:
            if K not in dst:
                dst[K] = np.zeros((width(K),) + buf.shape[1:])

    def tree_sum(self, bufs):
        return np.zeros(bufs[0].shape)

    def copy(self, value):
        return np.zeros_like(value)

    def combine(self, op, a, b):
        return np.zeros_like(a)


NUMERIC = Numeric()
SHAPE = Shape()
