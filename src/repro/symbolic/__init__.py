"""Symbolic factorization substrate.

Computes the fill pattern of L (symmetric-pattern symbolic factorization via
column merging along the elimination tree), detects supernodes, and produces
the :class:`SupernodePartition` every later stage (numeric LU, distribution,
solves, cost models) is expressed in, and the LU's block pattern over it.
"""

from repro.symbolic.fill import SymbolicFactor, block_pattern, symbolic_factor
from repro.symbolic.supernodes import SupernodePartition, fixed_partition

__all__ = [
    "symbolic_factor",
    "block_pattern",
    "SymbolicFactor",
    "SupernodePartition",
    "fixed_partition",
]
