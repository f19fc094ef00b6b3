"""Layering guard: ``repro.comm`` is the runtime, nothing above it.

The simulator, fault model, collectives and cost model sit below the
solvers, the numeric factorization, the serving tier and the checking
harness, which all import ``repro.comm``.  An import the other way, at
module level or deferred inside a function, makes a cycle.
"""

import ast
import glob
import os

import repro.comm

UPPER = ("core", "serve", "fleet", "scenarios", "check", "matrices",
         "numfact")


def _imports(source: str):
    """Absolute names of every module a ``repro.comm`` source imports."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # ``from .x`` is repro.comm.x, ``from ..x`` is repro.x.
            base = ["repro", "comm"][:3 - node.level] if node.level else []
            if node.module:
                yield ".".join(base + [node.module])
            else:
                yield from (".".join(base + [a.name]) for a in node.names)


def _upward(module: str) -> bool:
    parts = module.split(".")
    return parts[0] == "repro" and len(parts) > 1 and parts[1] in UPPER


def test_comm_imports_nothing_above_it():
    comm = os.path.dirname(repro.comm.__file__)
    paths = sorted(glob.glob(os.path.join(comm, "*.py")))
    assert paths
    bad = []
    for path in paths:
        with open(path) as f:
            bad += [f"{os.path.basename(path)}: {m}"
                    for m in _imports(f.read()) if _upward(m)]
    assert not bad, "repro.comm imports upward:\n" + "\n".join(bad)


def test_guard_sees_deferred_and_relative_imports():
    src = ("def f():\n"
           "    from repro.check.invariants import check_sim\n"
           "    import repro.core.solver\n"
           "from .. import numfact\n"
           "from ..matrices import make_rhs\n"
           "from .faults import FaultPlan\n"
           "from repro.kernels import NUMERIC\n")
    assert {m: _upward(m) for m in _imports(src)} == {
        "repro.check.invariants": True, "repro.core.solver": True,
        "repro.numfact": True, "repro.matrices": True,
        "repro.comm.faults": False, "repro.kernels": False}
