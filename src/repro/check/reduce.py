"""Shrinking reducer for failing fuzz cases.

Given a failing :class:`~repro.check.fuzz.FuzzCase` and a predicate that
re-runs it, :func:`shrink` greedily tries simpler variants — strip the
fault plan, collapse the grid one axis at a time, drop to one right-hand
side, fall back from GPU to CPU, shrink the matrix, thin the workload —
and keeps any variant that still fails; a chaos cell keeps its fault
coordinates and shrinks like a solve case.  The result is the smallest
case the greedy pass can reach, which :func:`write_repro` serializes to a
replayable JSON file under ``tests/corpus/`` so the failure becomes an
ordinary pytest the moment it is found.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Callable

from repro.check.fuzz import GENERATORS, FuzzCase

#: Default corpus directory, relative to the repository root.
CORPUS_DIR = os.path.join("tests", "corpus")


def _candidates(case: FuzzCase) -> list[FuzzCase]:
    """Simpler one-step variants of ``case``, most aggressive first."""
    out: list[FuzzCase] = []
    if case.faulted:
        out.append(replace(case, drop=0.0, duplicate=0.0, delay=0.0))
    if case.kind in ("solve", "chaos"):
        if case.strict_match:
            out.append(replace(case, strict_match=False))
        if case.device == "gpu":
            out.append(replace(case, device="cpu", machine="cori-haswell"))
        if case.nrhs > 1:
            out.append(replace(case, nrhs=1))
        if case.pz > 1:
            out.append(replace(case, pz=case.pz // 2))
        if case.px > 1:
            out.append(replace(case, px=1))
        if case.py > 1:
            out.append(replace(case, py=1))
        if case.ordering != "nd":
            out.append(replace(case, ordering="nd"))
        if case.symbolic_mode != "detect":
            out.append(replace(case, symbolic_mode="detect"))
        sizes = [s for s in GENERATORS[case.generator][1] if s < case.size]
        if sizes:
            out.append(replace(case, size=min(sizes)))
    elif case.kind == "serve":
        if case.n_requests > 2:
            out.append(replace(case, n_requests=case.n_requests // 2))
        if len(case.matrices) > 1:
            out.append(replace(case, matrices=case.matrices[:1]))
        if case.pz > 1:
            out.append(replace(case, pz=case.pz // 2))
        if case.max_batch > 1:
            out.append(replace(case, max_batch=1))
    # A scenario case is already minimal — (catalog name, seed) is the
    # whole coordinate; the declarative Scenario is not shrinkable here.
    return out


def shrink(case: FuzzCase, is_failing: Callable[[FuzzCase], bool],
           max_attempts: int = 64) -> FuzzCase:
    """Greedily minimize ``case`` while ``is_failing`` stays true.

    ``is_failing`` must be deterministic (fuzz cases replay exactly, so
    re-running the case is safe).  The original case is returned untouched
    if no simpler variant reproduces the failure.  ``max_attempts`` bounds
    total predicate evaluations — shrinking is best-effort, not a search.
    """
    attempts = 0
    current = case
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for cand in _candidates(current):
            attempts += 1
            if is_failing(cand):
                current = cand
                improved = True
                break
            if attempts >= max_attempts:
                break
    return current


def write_repro(case: FuzzCase, corpus_dir: str = CORPUS_DIR) -> str:
    """Write ``case`` as ``<corpus_dir>/case-<digest>.json``; return path.

    The file is the exact JSON round-trip of the case, so
    ``FuzzCase.from_json(path.read_text())`` replays it bit-for-bit — the
    corpus pytest job does exactly that for every file in the directory.
    """
    os.makedirs(corpus_dir, exist_ok=True)
    path = os.path.join(corpus_dir, f"case-{case.digest()}.json")
    with open(path, "w") as f:
        f.write(case.to_json() + "\n")
    return path
