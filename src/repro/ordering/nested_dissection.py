"""Nested dissection ordering via BFS level-set vertex separators.

This is the from-scratch substitute for METIS used throughout the
reproduction.  The recursion produces a *binary* separator tree: each
internal node owns its separator columns and has exactly two children; each
leaf owns the columns of an undissected subdomain.  The permutation orders
``left subtree, right subtree, separator`` recursively, so every tree node's
own columns and whole-subtree columns are contiguous ranges in the permuted
matrix — the property the 3D layout and the supernode partition rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.util import check_permutation


@dataclass
class SepTreeNode:
    """One node of the separator tree.

    ``first:last`` is the node's *own* column range (separator columns for
    internal nodes, subdomain columns for leaves) in the permuted numbering;
    ``subtree_first:last`` covers the node's entire subtree.  Ranges may be
    empty for degenerate splits of very small graphs.
    """

    id: int
    parent: int
    level: int
    first: int
    last: int
    subtree_first: int
    children: tuple[int, ...] = field(default_factory=tuple)

    @property
    def ncols(self) -> int:
        return self.last - self.first

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass
class SeparatorTree:
    """Binary separator tree plus the nested-dissection permutation.

    ``perm`` maps permuted index -> original index, i.e. the reordered
    matrix is ``A[perm][:, perm]``.
    """

    nodes: list[SepTreeNode]
    root: int
    perm: np.ndarray

    @property
    def n(self) -> int:
        return len(self.perm)

    def depth(self) -> int:
        """Maximum node level (root is level 0)."""
        return max(nd.level for nd in self.nodes)

    def min_leaf_depth(self) -> int:
        """Smallest level at which a leaf occurs (binary-completeness bound)."""
        return min(nd.level for nd in self.nodes if nd.is_leaf)

    def node_of_col(self) -> np.ndarray:
        """Array mapping permuted column -> owning tree node id."""
        out = np.full(self.n, -1, dtype=np.int64)
        for nd in self.nodes:
            out[nd.first:nd.last] = nd.id
        return out

    def boundaries(self) -> np.ndarray:
        """Sorted unique own-range starts; supernodes must not cross these."""
        starts = sorted({nd.first for nd in self.nodes} | {self.n})
        return np.asarray(starts, dtype=np.int64)


def _symmetric_adjacency(A: sp.spmatrix) -> sp.csr_matrix:
    """Pattern-symmetric adjacency (no diagonal) of a square sparse matrix."""
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    P = sp.csr_matrix((np.ones(A.nnz), A.nonzero()), shape=A.shape)
    P = P + P.T
    P.setdiag(0)
    P.eliminate_zeros()
    P.sort_indices()
    return sp.csr_matrix(P)


def _bfs(adj, unvisited, seed):
    """FIFO BFS from ``seed`` through the vertices in ``unvisited``.

    Neighbours are taken in CSR order, and each vertex reached is removed
    from ``unvisited``.  A FIFO order visits level by level, so the result
    is the visit order plus its level bounds: ``order[bounds[k]:bounds[k +
    1]]`` are the vertices at distance ``k`` from ``seed``.
    """
    unvisited.discard(seed)
    order = [seed]
    bounds = [0]
    while bounds[-1] < len(order):
        lo = bounds[-1]
        bounds.append(len(order))
        for u in order[lo:bounds[-1]]:
            for v in adj[u]:
                if v in unvisited:
                    unvisited.remove(v)
                    order.append(v)
    return order, bounds


def _pseudo_peripheral(adj, verts):
    """Double-BFS pseudo-peripheral vertex heuristic.

    Returns the BFS from the chosen start (order and level bounds) and the
    vertices of ``verts`` it did not reach.
    """
    start = verts[0]
    for _ in range(2):
        order, _ = _bfs(adj, set(verts), start)
        start = order[-1]
    unreached = set(verts)
    order, bounds = _bfs(adj, unreached, start)
    return order, bounds, unreached


def _split(adj, verts):
    """Split ``verts`` into (left, right, separator) via BFS level sets.

    A connected subgraph is cut at the BFS level whose removal best
    balances the two sides.  A disconnected subgraph needs no separator:
    whole components are binned greedily into the two sides (splitting a
    component arithmetically would cut edges without a separator and break
    the ancestor-closure property the 3D layout relies on).  Any part may
    come back empty for tiny graphs.
    """
    nv = len(verts)
    if nv <= 1:
        return verts, [], []
    order, bounds, unreached = _pseudo_peripheral(adj, verts)

    if unreached:
        # Disconnected: gather every component (seeded in ``verts`` order),
        # then balance whole components across the two sides with an empty
        # separator.
        comps = [order]
        for v in verts:
            if v in unreached:
                comps.append(_bfs(adj, unreached, v)[0])
        comps.sort(key=len, reverse=True)
        left, right = [], []
        for c in comps:
            (left if len(left) <= len(right) else right).extend(c)
        return left, right, []

    # Cost: imbalance plus separator size, favoring small middle levels;
    # the first and last levels are never cut, so both sides stay nonempty.
    nlev = len(bounds) - 1
    cut = min(range(1, nlev - 1),
              key=lambda k: (max(bounds[k], nv - bounds[k + 1])
                             + 2 * (bounds[k + 1] - bounds[k])),
              default=1)
    lo, hi = bounds[cut], bounds[cut + 1]
    return order[:lo], order[hi:], order[lo:hi]


def nested_dissection(A: sp.spmatrix, leaf_size: int = 64,
                      min_depth: int = 0) -> SeparatorTree:
    """Compute a nested-dissection ordering and its binary separator tree.

    ``leaf_size`` stops the recursion once a subdomain is that small;
    ``min_depth`` forces the tree to be binary-complete to at least that
    depth regardless (needed so that ``Pz`` 2D grids can be mapped onto the
    top ``log2(Pz)`` levels even for small matrices).
    """
    P = _symmetric_adjacency(A)
    n = P.shape[0]
    indptr, indices = P.indptr.tolist(), P.indices.tolist()
    adj = [indices[indptr[u]:indptr[u + 1]] for u in range(n)]

    nodes: list[SepTreeNode] = []
    cols: list[int] = []  # the permutation, built in order

    def rec(verts: list[int], depth: int, parent: int) -> int:
        node_id = len(nodes)
        nodes.append(None)  # placeholder, filled below
        subtree_first = len(cols)
        if depth >= min_depth and len(verts) <= leaf_size:
            cols.extend(verts)
            nodes[node_id] = SepTreeNode(node_id, parent, depth,
                                         subtree_first, len(cols),
                                         subtree_first)
            return node_id
        left, right, sep = _split(adj, verts)
        lid = rec(left, depth + 1, node_id)
        rid = rec(right, depth + 1, node_id)
        first = len(cols)
        cols.extend(sep)
        nodes[node_id] = SepTreeNode(node_id, parent, depth, first, len(cols),
                                     subtree_first, children=(lid, rid))
        return node_id

    root = rec(list(range(n)), 0, -1)
    perm = np.asarray(cols, dtype=np.int64)
    check_permutation(perm, n)
    return SeparatorTree(nodes=nodes, root=root, perm=perm)
