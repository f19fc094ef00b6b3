"""The factor's block pattern, pinned across commits.

tests/corpus/factor_pattern_digests.json holds a SHA-256 of everything
``lu_factorize`` decides structurally for a fixed set of inputs: the
supernode partition, every ``l_blockrows[K]`` / ``u_blockcols[K]`` (values
and dtype), the number of stored blocks and every block's shape.  None of
it depends on factor values, so a rewrite of how the values are computed
must reproduce every byte.  Regenerate (only for an intended pattern
change) with ``PYTHONPATH=src python -m tests.test_factor_pattern``.
"""

import hashlib
import json
import os

import numpy as np
import scipy.sparse as sp

from repro.matrices import get_matrix
from repro.matrices.suite import PAPER_MATRICES
from repro.numfact import lu_factorize
from repro.ordering import nested_dissection
from repro.symbolic import symbolic_factor
from repro.util import ilog2

FACTOR_PATTERN_DIGESTS = os.path.join(os.path.dirname(__file__), "corpus",
                                      "factor_pattern_digests.json")


def _pipeline_arguments(n):
    """(label, leaf_size, min_depth, symbolic mode) as hostbench's and the
    benches' ``pipeline()`` and ``SpTRSVSolver``'s defaults at pz 1 and 4
    call ND and the symbolic factorization (max_supernode 16 throughout)."""
    yield "hostbench", max(8, n // 256), 6, "fixed"
    for pz in (1, 4):
        yield f"solver-pz{pz}", max(8, n // max(4 * pz, 8)), ilog2(pz), "detect"


def _cases():
    for scale in ("tiny", "small"):
        for name in sorted(PAPER_MATRICES):
            A = get_matrix(name, scale)
            for args in _pipeline_arguments(A.shape[0]):
                yield (f"{name}/{scale}/{args[0]}", A) + args[1:]
    # The bench pipeline at medium: SuperLU's own scalar pattern leaves 16
    # of this factor's 8 164 blocks without an entry.
    A = get_matrix("s2D9pt2048", "medium")
    _, leaf, depth, mode = next(_pipeline_arguments(A.shape[0]))
    yield "s2D9pt2048/medium/bench", A, leaf, depth, mode


def _factor(A, leaf_size, min_depth, mode):
    tree = nested_dissection(A, leaf_size=leaf_size, min_depth=min_depth)
    Ap = sp.csr_matrix(A[tree.perm][:, tree.perm])
    sym = symbolic_factor(Ap, max_supernode=16, boundaries=tree.boundaries(),
                          mode=mode)
    return lu_factorize(Ap, sym.partition)


def pattern_digest(lu):
    h = hashlib.sha256()
    h.update(np.asarray(lu.partition.sn_start, np.int64).tobytes())
    h.update(repr((len(lu.Lblocks), len(lu.Ublocks))).encode())
    for K in range(lu.nsup):
        rows, cols = lu.l_blockrows[K], lu.u_blockcols[K]
        h.update(repr((str(rows.dtype), str(cols.dtype))).encode())
        h.update(rows.tobytes())
        h.update(b"|")
        h.update(cols.tobytes())
        h.update(b"|")
        shapes = [d[K].shape for d in (lu.diagL, lu.diagU, lu.diagLinv,
                                        lu.diagUinv)]
        shapes += [lu.Lblocks[(int(I), K)].shape for I in rows]
        shapes += [lu.Ublocks[(K, int(J))].shape for J in cols]
        h.update(repr(shapes).encode())
    return h.hexdigest()


def factor_pattern_digests():
    return {key: pattern_digest(_factor(A, leaf, depth, mode))
            for key, A, leaf, depth, mode in _cases()}


def test_factor_pattern_matches_pinned_corpus():
    with open(FACTOR_PATTERN_DIGESTS) as f:
        pinned = json.load(f)
    assert factor_pattern_digests() == pinned


if __name__ == "__main__":
    with open(FACTOR_PATTERN_DIGESTS, "w") as f:
        json.dump(factor_pattern_digests(), f, indent=1, sort_keys=True)
        f.write("\n")
