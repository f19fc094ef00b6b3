"""Numeric factorization substrate.

A supernodal block-sparse LU without pivoting (generators guarantee
diagonal dominance, which Gaussian elimination preserves): the block
pattern from a symbolic block elimination, the values from SuperLU.  The
resulting :class:`BlockSparseLU` is the exact object the paper's solvers
consume: dense supernode-block columns of L, block rows of U, and
precomputed inverses of the triangular diagonal blocks.
"""

from repro.numfact.io import load_factors, save_factors
from repro.numfact.leftlooking import dense_lu_nopivot, lu_factorize_leftlooking
from repro.numfact.lu import BlockSparseLU, lu_factorize
from repro.numfact.skyline import (
    SkylineBlock,
    SkylineStats,
    skyline_compress,
    skyline_stats,
)
from repro.numfact.stability import StabilityReport, stability_report
from repro.numfact.verify import factorization_residual, solve_residual

__all__ = [
    "lu_factorize",
    "lu_factorize_leftlooking",
    "save_factors",
    "load_factors",
    "stability_report",
    "StabilityReport",
    "BlockSparseLU",
    "dense_lu_nopivot",
    "factorization_residual",
    "solve_residual",
    "SkylineBlock",
    "SkylineStats",
    "skyline_compress",
    "skyline_stats",
]
