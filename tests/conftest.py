"""Shared fixtures: small factorized problems reused across test modules."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.matrices import poisson2d, random_spd_like
from repro.numfact import lu_factorize
from repro.ordering import build_layout_tree, nested_dissection
from repro.symbolic import symbolic_factor


def build_problem(A: sp.spmatrix, pz: int = 4, max_supernode: int = 8,
                  mode: str = "detect"):
    """Run the full pre-solve pipeline: ND -> symbolic -> LU -> layout tree.

    Returns a dict with keys: A (permuted), perm, tree, layout, sym, lu.
    """
    from repro.util import ilog2

    tree = nested_dissection(A, leaf_size=max(8, A.shape[0] // (4 * pz)),
                             min_depth=ilog2(pz))
    perm = tree.perm
    Ap = sp.csr_matrix(A)[perm][:, perm]
    sym = symbolic_factor(Ap, max_supernode=max_supernode,
                          boundaries=tree.boundaries(), mode=mode)
    lu = lu_factorize(Ap, sym.partition)
    layout = build_layout_tree(tree, pz)
    return {"A": Ap, "perm": perm, "tree": tree, "layout": layout,
            "sym": sym, "lu": lu}


def fresh_store(solver):
    """A solver on the same pipeline and grid whose schedule store is empty
    (``repro.analyze.extract.solver_schedule`` keeps schedules per solver)."""
    from repro.core import SpTRSVSolver

    g = solver.grid
    return SpTRSVSolver.from_pipeline(solver.A, solver.tree, solver.sym,
                                      solver.lu, g.px, g.py, g.pz)


def schedule_fields(sched):
    """Everything a ``Schedule`` says, typed (a float is not the int it
    equals).  Predicate ``tag_spec`` closures compare as "a predicate":
    each extraction makes its own."""
    def typed(v):
        return "predicate" if callable(v) else (type(v), v)

    return (sched.name, sched.nranks, sched.complete, sched.rendezvous,
            sched.blocked_recvs, sched.blocked_sends, sched.blocked_fences,
            [[typed(x) for x in tail] for tail in sched.compute_tails],
            [[(type(e), *map(typed, vars(e).values())) for e in evs]
             for evs in sched.events])


@pytest.fixture(scope="session")
def poisson_problem():
    """24x24 2D 9-point Poisson, Pz-ready to 8 grids."""
    A = poisson2d(24, stencil=9, seed=11)
    return build_problem(A, pz=8)


@pytest.fixture(scope="session")
def random_problem():
    """Unstructured random diagonally dominant matrix."""
    A = random_spd_like(180, avg_degree=5, seed=7)
    return build_problem(A, pz=4)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
