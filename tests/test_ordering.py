"""Unit tests for nested dissection, separator trees and the layout tree."""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest
import scipy.sparse as sp

from repro.matrices import get_matrix, poisson2d, poisson3d, random_spd_like
from repro.matrices.suite import PAPER_MATRICES
from repro.ordering import (
    build_layout_tree,
    etree,
    etree_levels,
    nested_dissection,
    postorder,
)
from repro.util import check_permutation, ilog2


def _check_tree_invariants(tree, n):
    check_permutation(tree.perm, n)
    covered = np.zeros(n, dtype=int)
    for nd in tree.nodes:
        assert 0 <= nd.first <= nd.last <= n
        assert nd.subtree_first <= nd.first
        covered[nd.first:nd.last] += 1
        if nd.children:
            assert len(nd.children) == 2
            l, r = (tree.nodes[c] for c in nd.children)
            # left subtree, right subtree, then separator: contiguous.
            assert l.subtree_first == nd.subtree_first
            assert r.subtree_first == l.last
            assert nd.first == r.last
            assert l.parent == nd.id and r.parent == nd.id
            assert l.level == r.level == nd.level + 1
    assert (covered == 1).all()


@pytest.mark.parametrize("A,n", [
    (poisson2d(12, stencil=5), 144),
    (poisson2d(10, stencil=9), 100),
    (poisson3d(5, stencil=7), 125),
    (random_spd_like(200, avg_degree=6, seed=2), 200),
])
def test_nd_tree_invariants(A, n):
    tree = nested_dissection(A, leaf_size=16)
    _check_tree_invariants(tree, n)


def test_nd_min_depth_enforced():
    A = poisson2d(8, stencil=5)
    for depth in (1, 2, 3, 4):
        tree = nested_dissection(A, leaf_size=1000, min_depth=depth)
        assert tree.min_leaf_depth() >= depth


def test_nd_tiny_matrices():
    # Matrices smaller than the forced depth still produce binary trees
    # (possibly with empty nodes).
    A = sp.csr_matrix(np.diag([2.0, 2.0, 2.0]))
    tree = nested_dissection(A, leaf_size=1, min_depth=2)
    _check_tree_invariants(tree, 3)
    assert tree.min_leaf_depth() >= 2


def test_nd_separator_really_separates():
    """No A edge may connect the two child subtrees of any internal node."""
    A = poisson2d(12, stencil=9)
    tree = nested_dissection(A, leaf_size=10)
    perm = tree.perm
    Ap = sp.csr_matrix(A)[perm][:, perm].tocoo()
    for nd in tree.nodes:
        if not nd.children:
            continue
        l, r = (tree.nodes[c] for c in nd.children)
        in_left = (Ap.row >= l.subtree_first) & (Ap.row < l.last)
        in_right = (Ap.col >= r.subtree_first) & (Ap.col < r.last)
        assert not (in_left & in_right).any()


def test_nd_reduces_fill_versus_natural():
    """ND should beat natural ordering on fill for a 2D grid."""
    from repro.symbolic import symbolic_factor

    A = poisson2d(14, stencil=5)
    natural = symbolic_factor(A, max_supernode=8).nnz_LU
    tree = nested_dissection(A, leaf_size=16)
    Ap = sp.csr_matrix(A)[tree.perm][:, tree.perm]
    nd = symbolic_factor(Ap, max_supernode=8).nnz_LU
    assert nd < natural


def test_boundaries_contain_all_node_starts():
    A = poisson2d(10)
    tree = nested_dissection(A, leaf_size=12)
    b = tree.boundaries()
    assert b[0] == 0 and b[-1] == 100
    for nd in tree.nodes:
        if nd.ncols:
            assert nd.first in set(b.tolist())


def test_node_of_col_partition():
    A = poisson2d(9)
    tree = nested_dissection(A, leaf_size=10)
    owner = tree.node_of_col()
    assert (owner >= 0).all()
    for nd in tree.nodes:
        assert (owner[nd.first:nd.last] == nd.id).all()


# ---- layout tree ----------------------------------------------------------

@pytest.mark.parametrize("pz", [1, 2, 4, 8])
def test_layout_tree_shapes(pz):
    A = poisson2d(12, stencil=9)
    tree = nested_dissection(A, leaf_size=8, min_depth=ilog2(pz))
    lt = build_layout_tree(tree, pz)
    assert len(lt.nodes) == 2 * pz - 1
    assert lt.depth == ilog2(pz)
    # Root replicated everywhere, leaves exclusive.
    assert lt.nodes[0].grid_lo == 0 and lt.nodes[0].grid_hi == pz
    for z in range(pz):
        leaf = lt.leaf(z)
        assert leaf.grid_lo == z and leaf.grid_hi == z + 1
        assert leaf.owner_grid == z
        assert leaf.is_leaf


def test_layout_tree_covers_columns_once():
    A = poisson2d(12)
    tree = nested_dissection(A, leaf_size=8, min_depth=2)
    lt = build_layout_tree(tree, 4)
    owner = lt.node_of_col()
    covered = np.zeros(lt.n, dtype=int)
    for nd in lt.nodes:
        covered[nd.first:nd.last] += 1
        assert (owner[nd.first:nd.last] == nd.heap_id).all()
    assert (covered == 1).all()


def test_layout_path_and_grid_membership():
    A = poisson2d(12)
    tree = nested_dissection(A, leaf_size=8, min_depth=3)
    lt = build_layout_tree(tree, 8)
    for z in range(8):
        path = lt.path(z)
        assert len(path) == 4  # leaf + 2 separators + root
        for nd in path:
            assert nd.grid_lo <= z < nd.grid_hi
        # Levels decrease from leaf to root.
        assert [nd.level for nd in path] == [3, 2, 1, 0]


def test_layout_ancestors_ordering():
    A = poisson2d(10)
    tree = nested_dissection(A, leaf_size=8, min_depth=2)
    lt = build_layout_tree(tree, 4)
    anc = lt.ancestors(lt.leaf(3))
    assert [a.level for a in anc] == [1, 0]
    # Ancestor columns come after descendant columns in an ND ordering.
    assert anc[0].first >= lt.leaf(3).last


def test_layout_requires_depth():
    A = poisson2d(10)
    tree = nested_dissection(A, leaf_size=1000, min_depth=1)
    with pytest.raises(ValueError):
        build_layout_tree(tree, 8)


def test_layout_pz1_single_node():
    A = poisson2d(8)
    tree = nested_dissection(A, leaf_size=16)
    lt = build_layout_tree(tree, 1)
    assert len(lt.nodes) == 1
    assert lt.nodes[0].first == 0 and lt.nodes[0].last == 64


# ---- elimination tree ------------------------------------------------------

def test_etree_against_dense_definition():
    """parent[j] == min{i > j : L[i, j] != 0} on a small dense-checked case."""
    A = poisson2d(5, stencil=5)
    parent = etree(A)
    # Dense Cholesky-pattern reference.
    M = (A.toarray() != 0).astype(float)
    n = M.shape[0]
    for k in range(n):
        nz = M[k + 1:, k].nonzero()[0] + k + 1
        for i in nz:
            M[i, nz] = 1  # fill row pattern union (symmetric)
            M[nz, i] = 1
    for j in range(n):
        below = np.nonzero(M[j + 1:, j])[0]
        expected = j + 1 + below[0] if len(below) else -1
        assert parent[j] == expected


def test_etree_of_diagonal_matrix_is_forest():
    A = sp.identity(5, format="csr") * 2
    assert (etree(A) == -1).all()


def test_postorder_children_before_parents():
    A = poisson2d(8)
    parent = etree(A)
    post = postorder(parent)
    pos = np.empty_like(post)
    pos[post] = np.arange(len(post))
    for v, p in enumerate(parent):
        if p >= 0:
            assert pos[v] < pos[p]


def test_postorder_is_permutation():
    A = random_spd_like(60, seed=5)
    post = postorder(etree(A))
    check_permutation(post, 60)


def test_etree_levels_consistent():
    A = poisson2d(7)
    parent = etree(A)
    level = etree_levels(parent)
    for v, p in enumerate(parent):
        if p >= 0:
            assert level[v] == level[p] + 1
        else:
            assert level[v] == 0


def test_nd_disconnected_components_no_cross_edges():
    """A disconnected matrix must be split by whole components — splitting a
    component arithmetically would cut edges without a separator
    (regression: silent wrong answers at deep forced dissection depths)."""
    blocks = [poisson2d(4, stencil=5), poisson2d(3, stencil=5),
              sp.identity(5, format="csr") * 3.0]
    A = sp.block_diag(blocks, format="csr")
    tree = nested_dissection(A, leaf_size=4, min_depth=3)
    _check_tree_invariants(tree, A.shape[0])
    perm = tree.perm
    Ap = sp.csr_matrix(A)[perm][:, perm].tocoo()
    for nd in tree.nodes:
        if not nd.children:
            continue
        l, r = (tree.nodes[c] for c in nd.children)
        in_left = (Ap.row >= l.subtree_first) & (Ap.row < l.last)
        in_right = (Ap.col >= r.subtree_first) & (Ap.col < r.last)
        assert not (in_left & in_right).any()


def test_nd_deep_forced_depth_preserves_separation():
    """Forced min_depth far beyond the natural recursion must still never
    cut an edge without a separator (the pz=64 regression)."""
    from repro.matrices import kkt3d

    A = kkt3d(5, seed=2)
    tree = nested_dissection(A, leaf_size=8, min_depth=6)
    assert tree.min_leaf_depth() >= 6
    perm = tree.perm
    Ap = sp.csr_matrix(A)[perm][:, perm].tocoo()
    for nd in tree.nodes:
        if not nd.children:
            continue
        l, r = (tree.nodes[c] for c in nd.children)
        in_left = (Ap.row >= l.subtree_first) & (Ap.row < l.last)
        in_right = (Ap.col >= r.subtree_first) & (Ap.col < r.last)
        assert not (in_left & in_right).any()


# ---- minimum degree ---------------------------------------------------------

def test_minimum_degree_is_permutation():
    from repro.ordering import minimum_degree

    A = poisson2d(9, stencil=9)
    perm = minimum_degree(A)
    check_permutation(perm, 81)


def test_minimum_degree_reduces_fill():
    from repro.ordering import minimum_degree
    from repro.symbolic import symbolic_factor

    A = poisson2d(14, stencil=5)
    natural = symbolic_factor(A, max_supernode=8).nnz_LU
    perm = minimum_degree(A)
    Ap = sp.csr_matrix(A)[perm][:, perm]
    mmd = symbolic_factor(Ap, max_supernode=8).nnz_LU
    assert mmd < natural


def test_minimum_degree_picks_low_degree_first():
    from repro.ordering import minimum_degree

    # A star graph: the leaves (degree 1) must all come before the hub.
    n = 8
    rows = [0] * (n - 1) + list(range(1, n))
    cols = list(range(1, n)) + [0] * (n - 1)
    A = sp.csr_matrix((np.full(2 * (n - 1), -1.0), (rows, cols)),
                      shape=(n, n)) + sp.diags(np.full(n, n * 1.0))
    perm = minimum_degree(A)
    # The hub stays high-degree until almost every leaf is gone (it ties
    # with the final leaf at degree 1), so it lands in the last two slots.
    assert list(perm).index(0) >= n - 2


def test_minimum_degree_rejects_rectangular():
    from repro.ordering import minimum_degree

    with pytest.raises(ValueError):
        minimum_degree(sp.csr_matrix((3, 4)))


def test_min_degree_tree_pipeline():
    from repro.core import SpTRSVSolver
    from repro.matrices import make_rhs
    from repro.numfact import solve_residual

    A = poisson2d(10, stencil=9, seed=13)
    solver = SpTRSVSolver(A, 2, 2, 1, max_supernode=8, ordering="mmd")
    b = make_rhs(100, 2)
    out = solver.solve(b)
    assert solve_residual(A, out.x, b) < 1e-10
    with pytest.raises(ValueError):
        SpTRSVSolver(A, 1, 1, 2, ordering="mmd")
    with pytest.raises(ValueError):
        SpTRSVSolver(A, 1, 1, 1, ordering="rcm")


# ---- the ordering pipeline, pinned across commits ---------------------------
#
# tests/corpus/ordering_digests.json holds a SHA-256 of everything the
# ordering pipeline decides for a fixed set of inputs: the ND permutation,
# every separator-tree node, the elimination tree of the permuted matrix,
# and the supernode partition with its below-diagonal rows.  All of it is
# integer work, so a rewrite of the BFS or the etree must reproduce every
# byte.  Regenerate (only for an intended ordering change) with
# ``PYTHONPATH=src python -m tests.test_ordering``.

ORDERING_DIGESTS = os.path.join(os.path.dirname(__file__), "corpus",
                                "ordering_digests.json")


def _nd_arguments(n):
    """(label, leaf_size, min_depth) as hostbench's ``pipeline()`` and
    ``SpTRSVSolver``'s default leaf size at pz 1 and 4 call ND."""
    yield "hostbench", max(8, n // 256), 6
    for pz in (1, 4):
        yield f"solver-pz{pz}", max(8, n // max(4 * pz, 8)), ilog2(pz)


def _pipeline_digests(A, leaf_size, min_depth):
    """{symbolic mode: digest} for one ND call."""
    from repro.symbolic import symbolic_factor

    tree = nested_dissection(A, leaf_size=leaf_size, min_depth=min_depth)
    Ap = sp.csr_matrix(sp.csr_matrix(A)[tree.perm][:, tree.perm])
    parent = etree(Ap)
    h = hashlib.sha256()
    h.update(repr((tree.root, str(tree.perm.dtype))).encode())
    h.update(tree.perm.tobytes())
    h.update(repr([dataclasses.astuple(nd) for nd in tree.nodes]).encode())
    h.update(str(parent.dtype).encode())
    h.update(parent.tobytes())
    out = {}
    for mode in ("detect", "fixed"):
        sym = symbolic_factor(Ap, max_supernode=16,
                              boundaries=tree.boundaries(), mode=mode)
        hm = h.copy()
        hm.update(np.asarray(sym.partition.sn_start, np.int64).tobytes())
        for rows in sym.below_rows:
            hm.update(np.asarray(rows, dtype=np.int64).tobytes())
            hm.update(b"|")
        out[mode] = hm.hexdigest()
    return out


def _disconnected_graph():
    """Three components of different sizes plus an isolated vertex, laid
    out interleaved so component order in ``verts`` matters."""
    blocks = [poisson2d(5, stencil=9), sp.identity(1, format="csr") * 4.0,
              poisson2d(4, stencil=5), random_spd_like(12, seed=3)]
    A = sp.block_diag(blocks, format="csr")
    rng = np.random.default_rng(7)
    p = rng.permutation(A.shape[0])
    return sp.csr_matrix(A[p][:, p])


def ordering_digests():
    cases = [("disconnected", _disconnected_graph(), 4, 3)]
    for scale in ("tiny", "small"):
        for name in sorted(PAPER_MATRICES):
            A = get_matrix(name, scale)
            for label, leaf, depth in _nd_arguments(A.shape[0]):
                cases.append((f"{name}/{scale}/{label}", A, leaf, depth))
    return {f"{key}/{mode}": digest
            for key, A, leaf, depth in cases
            for mode, digest in _pipeline_digests(A, leaf, depth).items()}


def test_pipeline_matches_pinned_corpus():
    with open(ORDERING_DIGESTS) as f:
        pinned = json.load(f)
    assert ordering_digests() == pinned


if __name__ == "__main__":
    with open(ORDERING_DIGESTS, "w") as f:
        json.dump(ordering_digests(), f, indent=1, sort_keys=True)
        f.write("\n")
