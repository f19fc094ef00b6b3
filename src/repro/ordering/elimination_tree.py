"""Elimination-tree utilities for symmetric-pattern sparse matrices.

The elimination tree (etree) encodes the column dependencies of the
factorization: ``parent[j]`` is the smallest row index ``i > j`` in the
pattern of ``L(:, j)``.  The symbolic factorization and the DAG-level
analyses (GPU level-set concurrency, critical path) are built on it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def etree(A: sp.spmatrix) -> np.ndarray:
    """Elimination tree of a structurally symmetric matrix.

    Classic Liu algorithm with path compression (virtual ancestors).
    Returns ``parent`` with ``parent[root] = -1``; forests are possible for
    reducible matrices.
    """
    A = sp.csc_matrix(A)
    n = A.shape[0]
    parent = [-1] * n
    ancestor = [-1] * n
    indptr, indices = A.indptr.tolist(), A.indices.tolist()
    for j in range(n):
        for i in indices[indptr[j]:indptr[j + 1]]:
            # Walk from i up to the root of its current virtual tree.
            while i != -1 and i < j:
                inext = ancestor[i]
                ancestor[i] = j
                if inext == -1:
                    parent[i] = j
                i = inext
    return np.asarray(parent, dtype=np.int64)


def postorder(parent: np.ndarray) -> np.ndarray:
    """Postorder traversal of an elimination forest.

    Returns ``post`` such that ``post[k]`` is the k-th node visited; children
    are visited before parents.
    """
    n = len(parent)
    # Build child lists (reversed so iterative DFS visits low children first).
    first_child = np.full(n, -1, dtype=np.int64)
    next_sib = np.full(n, -1, dtype=np.int64)
    for v in range(n - 1, -1, -1):
        p = parent[v]
        if p >= 0:
            next_sib[v] = first_child[p]
            first_child[p] = v
    post = np.empty(n, dtype=np.int64)
    k = 0
    for root in range(n):
        if parent[root] != -1:
            continue
        # Iterative DFS with explicit stack.
        stack = [root]
        expanded = [False]
        while stack:
            v = stack[-1]
            if not expanded[-1]:
                expanded[-1] = True
                c = first_child[v]
                while c != -1:
                    stack.append(c)
                    expanded.append(False)
                    c = next_sib[c]
            else:
                post[k] = v
                k += 1
                stack.pop()
                expanded.pop()
    if k != n:
        raise ValueError("parent array is not a forest")
    return post


def etree_levels(parent: np.ndarray) -> np.ndarray:
    """Distance of each node from its root (root level 0).

    Used to derive DAG level sets: nodes whose subtrees are disjoint can be
    eliminated concurrently.
    """
    n = len(parent)
    level = np.full(n, -1, dtype=np.int64)
    for v in range(n - 1, -1, -1):
        if level[v] >= 0:
            continue
        path = []
        u = v
        while u != -1 and level[u] < 0:
            path.append(u)
            u = parent[u]
        base = level[u] if u != -1 else -1
        for d, w in enumerate(reversed(path)):
            level[w] = base + 1 + d
    return level
