"""Epoch-pipeline caching: reuse exchange structure across epochs.

Refinement only fires on trigger epochs, so consecutive epochs usually
share the *same* :class:`~repro.mesh.neighbors.NeighborGraph` object
(:class:`~repro.mesh.mesh.AmrMesh` caches it per generation).  When the
placement also carries over — the baseline arm every epoch, any arm on
a trigger-skip epoch — the expensive parts of
:meth:`ExchangePattern.from_mesh` (edge gather, cross-rank edge
classification, latencies and the carried message stats) are recomputed
to bit-identical values.  :class:`PatternCache` memoizes them.

Correctness contract (pinned by the cache tests):

* a hit returns arrays **bit-identical** to an uncached recomputation —
  only the per-rank ``loads`` vector depends on this epoch's costs, so
  it is recomputed on every lookup with the exact ``np.bincount``
  expression ``from_mesh`` uses;
* the key is ``(graph, assignment bytes, cluster, fabric)``; keys hold
  strong references to the graph and cluster and compare them by
  identity, so refinement (new graph), node eviction (new cluster) and
  any assignment change are all natural invalidations;
* the cache is LRU-bounded; evictions are counted.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

from ..simnet.cluster import Cluster
from ..simnet.machine import FabricSpec
from ..simnet.runtime import ExchangePattern

__all__ = [
    "PatternCache",
    "PatternCacheStats",
    "PatternCacheHandle",
    "SharedPatternCache",
    "maybe_cache",
    "shared_cache",
    "shared_cache_handle",
]


@dataclasses.dataclass
class PatternCacheStats:
    """Hit/miss/eviction counters of one :class:`PatternCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclasses.dataclass
class _Entry:
    """One cached (graph, assignment) structure.

    Strong references to ``graph`` and ``cluster`` keep their ids from
    being recycled while the entry lives, making the id-based key safe.
    """

    graph: object
    cluster: Cluster
    pattern: ExchangePattern       #: loads field is stale; recomputed per hit


class PatternCache:
    """LRU cache of :class:`ExchangePattern` structure (with its message stats).

    Parameters
    ----------
    maxsize:
        Number of (graph, assignment) entries kept.  The engine's
        default of a handful covers the common case — one entry per
        live (mesh generation, stable placement) pair.
    """

    def __init__(self, maxsize: int = 8) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Tuple, _Entry]" = OrderedDict()
        self.stats = PatternCacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    # ------------------------------------------------------------------ #

    @staticmethod
    def _key(
        graph, assignment: np.ndarray, cluster: Cluster, fabric: FabricSpec
    ) -> Tuple:
        return (id(graph), assignment.tobytes(), id(cluster), fabric)

    def lookup(
        self,
        graph,
        assignment: np.ndarray,
        costs: np.ndarray,
        cluster: Cluster,
        fabric: FabricSpec,
    ) -> ExchangePattern:
        """Return this epoch's pattern.

        Bit-identical to calling :meth:`ExchangePattern.from_mesh`
        directly, whether it hits or misses.
        """
        assignment = np.asarray(assignment, dtype=np.int64)
        key = self._key(graph, assignment, cluster, fabric)
        entry = self._entries.get(key)
        if entry is not None and entry.graph is graph and entry.cluster is cluster:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            # Only loads depends on this epoch's costs; recompute it with
            # the exact expression from_mesh uses so hits are bit-identical.
            loads = np.asarray(
                np.bincount(assignment, weights=costs, minlength=cluster.n_ranks),
                dtype=np.float64,
            )
            return dataclasses.replace(entry.pattern, loads=loads)

        self.stats.misses += 1
        pattern = ExchangePattern.from_mesh(graph, assignment, costs, cluster, fabric)
        self._entries[key] = _Entry(graph=graph, cluster=cluster, pattern=pattern)
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return pattern


def maybe_cache(size: int) -> Optional[PatternCache]:
    """A :class:`PatternCache` of ``size`` entries, or ``None`` if ``size <= 0``."""
    return PatternCache(size) if size > 0 else None


# ---------------------------------------------------------------------- #
# process-wide shared cache (multi-tenant service mode)
# ---------------------------------------------------------------------- #

#: default entry budget of the process-wide shared store (tenants pool
#: one LRU budget; raised to any handle's requested size if larger)
SHARED_PATTERN_CACHE_SIZE = 64


class SharedPatternCache:
    """A thread-safe, *content-keyed* pattern cache shared across runs.

    The per-run :class:`PatternCache` keys by object identity — correct
    and cheap within one run, but useless across jobs: a second tenant's
    sweep builds new graph/cluster objects for the same content.  The
    shared store instead keys by a content fingerprint (graph edge
    arrays + block set, assignment bytes, cluster spec, fabric), so two
    tenants sweeping the same configuration share entries.  Hits remain
    bit-identical: ``from_mesh`` is a pure function of
    exactly the fingerprinted content, and per-epoch ``loads`` are
    recomputed on every hit as in :class:`PatternCache`.

    Per-run attribution: the engine holds a :class:`PatternCacheHandle`
    whose ``stats`` count only that run's lookups (surfaced per job and
    per tenant in service job status), while ``self.stats`` aggregates
    the whole process.
    """

    def __init__(self, maxsize: int = SHARED_PATTERN_CACHE_SIZE) -> None:
        import threading

        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Tuple, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = PatternCacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def reserve(self, maxsize: int) -> None:
        """Grow the entry budget to at least ``maxsize`` (never shrink)."""
        with self._lock:
            self.maxsize = max(self.maxsize, maxsize)

    def handle(self) -> "PatternCacheHandle":
        """A per-run view with private hit/miss counters."""
        return PatternCacheHandle(self)

    # ------------------------------------------------------------------ #

    @staticmethod
    def _graph_fingerprint(graph) -> str:
        """Content digest of a neighbor graph, memoized on the object."""
        fp = getattr(graph, "_repro_content_fp", None)
        if fp is None:
            import hashlib

            h = hashlib.sha256()
            h.update(np.ascontiguousarray(graph.edges).tobytes())
            h.update(np.ascontiguousarray(graph.kinds).tobytes())
            for block in graph.blocks:
                h.update(repr(block).encode())
                h.update(b"\x00")
            fp = h.hexdigest()
            try:
                graph._repro_content_fp = fp
            except AttributeError:
                pass               # slotted/frozen graph: recompute next time
        return fp

    @classmethod
    def _key(
        cls, graph, assignment: np.ndarray, cluster: Cluster, fabric: FabricSpec
    ) -> Tuple:
        return (
            cls._graph_fingerprint(graph),
            assignment.tobytes(),
            cluster.n_ranks,
            repr(cluster.machine),
            cluster.node_speed_factor.tobytes(),
            cluster.nodes_per_switch,
            fabric,
        )

    def lookup(
        self,
        graph,
        assignment: np.ndarray,
        costs: np.ndarray,
        cluster: Cluster,
        fabric: FabricSpec,
        stats: Optional[PatternCacheStats] = None,
    ) -> ExchangePattern:
        assignment = np.asarray(assignment, dtype=np.int64)
        key = self._key(graph, assignment, cluster, fabric)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is not None:
            self.stats.hits += 1
            if stats is not None:
                stats.hits += 1
            loads = np.asarray(
                np.bincount(assignment, weights=costs, minlength=cluster.n_ranks),
                dtype=np.float64,
            )
            return dataclasses.replace(entry.pattern, loads=loads)

        # Compute outside the lock (the expensive part); a concurrent
        # duplicate insert is harmless — both values are bit-identical.
        pattern = ExchangePattern.from_mesh(graph, assignment, costs, cluster, fabric)
        self.stats.misses += 1
        if stats is not None:
            stats.misses += 1
        with self._lock:
            self._entries[key] = _Entry(
                graph=graph, cluster=cluster, pattern=pattern
            )
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
                if stats is not None:
                    stats.evictions += 1
        return pattern


class PatternCacheHandle:
    """One run's view of a :class:`SharedPatternCache`.

    Drop-in for :class:`PatternCache` at the engine's call sites
    (``lookup(...)`` + ``.stats``), but lookups hit the shared store
    while the counters stay private to this run.
    """

    def __init__(self, store: SharedPatternCache) -> None:
        self.store = store
        self.stats = PatternCacheStats()

    def lookup(
        self,
        graph,
        assignment: np.ndarray,
        costs: np.ndarray,
        cluster: Cluster,
        fabric: FabricSpec,
    ) -> ExchangePattern:
        return self.store.lookup(
            graph, assignment, costs, cluster, fabric, stats=self.stats
        )


_SHARED: Optional[SharedPatternCache] = None


def shared_cache_handle(minsize: int = 1) -> PatternCacheHandle:
    """A handle onto the process-wide shared store (created on first use)."""
    global _SHARED
    if _SHARED is None:
        _SHARED = SharedPatternCache(max(SHARED_PATTERN_CACHE_SIZE, minsize))
    else:
        _SHARED.reserve(minsize)
    return _SHARED.handle()


def shared_cache() -> Optional[SharedPatternCache]:
    """The process-wide shared store, if one has been created."""
    return _SHARED
