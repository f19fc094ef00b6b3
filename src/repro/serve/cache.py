"""LRU factorization cache: repeat matrices skip the whole pipeline.

The expensive part of serving SpTRSV traffic is not the solve — it is the
preprocessing pipeline (nested dissection → symbolic → numeric LU → 3D
layout) that :class:`~repro.core.solver.SpTRSVSolver` runs in its
constructor.  Production triangular-solve traffic is dominated by repeat
matrices (the same preconditioner applied to stream after stream of right
hand sides), so the serving tier keeps finished solvers in an LRU cache
keyed by *content*: the matrix's structural + numeric
:class:`~repro.matrices.fingerprint.MatrixFingerprint` combined with every
configuration knob that changes the factorization or its distribution
(grid shape, machine, supernode cap, symbolic mode, ordering).

Capacity is accounted in bytes (:meth:`SpTRSVSolver.storage_nbytes`), the
unit an operator actually provisions; hit/miss/eviction counters feed the
SLO report's cache section.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

from repro.core.solver import SpTRSVSolver


@dataclass(frozen=True)
class CacheKey:
    """Everything that must match for a cached factorization to be reused."""

    fingerprint: str      # MatrixFingerprint.hexdigest
    px: int
    py: int
    pz: int
    machine: str
    max_supernode: int
    symbolic_mode: str
    ordering: str


@dataclass
class CacheStats:
    """Counters over a cache's lifetime (reported in the SLO report)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    resident_bytes: int = 0
    resident_entries: int = 0
    peak_bytes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class CacheEntry:
    solver: SpTRSVSolver
    nbytes: int
    hits: int = 0
    setup_time: float = 0.0   # virtual seconds the miss was charged


@dataclass
class FactorizationCache:
    """Byte-bounded LRU over finished :class:`SpTRSVSolver` pipelines.

    ``max_bytes``/``max_entries`` of ``None`` mean unbounded.  A single
    entry larger than ``max_bytes`` is still admitted (the alternative —
    refusing to cache the only matrix in play — just refactors it per
    batch); everything else is evicted to make room, oldest use first.
    """

    max_bytes: int | None = None
    max_entries: int | None = None
    stats: CacheStats = field(default_factory=CacheStats)
    # Artifact store (``CacheKey -> solver``) shared by every worker cache
    # of one fleet run: a miss takes the object another cache already
    # built, with its recordings and value programs, and is still counted
    # and charged as a miss.  A standalone cache keeps ``None``: a store
    # outliving evictions would defeat its bound.
    store: dict | None = field(default=None, repr=False, compare=False)
    _entries: OrderedDict = field(default_factory=OrderedDict)

    def __len__(self) -> int:
        return len(self._entries)

    def warm_fingerprints(self) -> set:
        """Fingerprints with a resident factorization.

        The fleet's scale-down path consults this to avoid draining the
        only warm replica of a hot matrix (cache-locality-aware victim
        choice); reads do not touch hit/miss counters or LRU age.
        """
        return {k.fingerprint for k in self._entries}

    def get(self, key: CacheKey) -> SpTRSVSolver | None:
        """Look up ``key``, counting a hit or miss and refreshing LRU age."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        entry.hits += 1
        self._entries.move_to_end(key)
        return entry.solver

    def put(self, key: CacheKey, solver: SpTRSVSolver,
            setup_time: float = 0.0) -> list[CacheKey]:
        """Insert a freshly built solver; returns the keys evicted for room."""
        nbytes = solver.storage_nbytes()
        if key in self._entries:  # refresh (rebuilt under racing misses)
            self.stats.resident_bytes -= self._entries.pop(key).nbytes
        self._entries[key] = CacheEntry(solver=solver, nbytes=nbytes,
                                        setup_time=setup_time)
        self.stats.resident_bytes += nbytes
        self.stats.peak_bytes = max(self.stats.peak_bytes,
                                    self.stats.resident_bytes)
        evicted = self._evict()
        self.stats.resident_entries = len(self._entries)
        return evicted

    def _evict(self) -> list[CacheKey]:
        evicted: list[CacheKey] = []
        while len(self._entries) > 1 and (
                (self.max_entries is not None
                 and len(self._entries) > self.max_entries)
                or (self.max_bytes is not None
                    and self.stats.resident_bytes > self.max_bytes)):
            key, entry = self._entries.popitem(last=False)
            self.stats.resident_bytes -= entry.nbytes
            self.stats.evictions += 1
            evicted.append(key)
        return evicted

    def get_or_build(self, key: CacheKey,
                     build: Callable[[], SpTRSVSolver],
                     ) -> tuple[SpTRSVSolver, float, bool]:
        """Return ``(solver, setup_time, was_hit)``.

        On a hit the setup time is 0.0 — that is the whole point of the
        cache; on a miss ``build()`` runs and the solver's
        :meth:`~SpTRSVSolver.factor_time_estimate` is charged as the
        batch's setup cost, whether ``build()`` runs or the store
        already holds the solver.
        """
        solver = self.get(key)
        if solver is not None:
            return solver, 0.0, True
        if self.store is None:
            solver = build()
        elif (solver := self.store.get(key)) is None:
            solver = self.store[key] = build()
        setup = solver.factor_time_estimate()
        self.put(key, solver, setup_time=setup)
        return solver, setup, False
