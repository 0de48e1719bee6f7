"""PatternCache: bit-identical hits, natural invalidation, LRU bounds."""

import dataclasses

import numpy as np
import pytest

from repro.amr.driver import run_trajectory
from repro.core.metrics import message_stats
from repro.core.policy import get_policy
from repro.engine.types import DriverConfig
from repro.perf.cache import PatternCache, SharedPatternCache, maybe_cache
from repro.resilience.experiment import small_workload
from repro.simnet.cluster import Cluster
from repro.simnet.runtime import ExchangePattern


@pytest.fixture(scope="module")
def epochs():
    return small_workload(32, 60)


@pytest.fixture(scope="module")
def cluster():
    return Cluster(n_ranks=32)


FABRIC = DriverConfig().fabric


def _costs(epoch, seed):
    rng = np.random.default_rng(seed)
    return epoch.base_costs * rng.uniform(0.5, 1.5, len(epoch.base_costs))


def _assignment(epoch, cluster):
    return get_policy("baseline").place(epoch.base_costs, cluster.n_ranks).assignment


def assert_patterns_identical(a: ExchangePattern, b: ExchangePattern):
    for f in dataclasses.fields(ExchangePattern):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            assert va.dtype == vb.dtype and np.array_equal(va, vb), f.name
        else:
            assert va == vb, f.name


class TestLookup:
    def test_hit_is_bit_identical_to_from_mesh(self, epochs, cluster):
        cache = PatternCache(4)
        epoch = epochs[0]
        assignment = _assignment(epoch, cluster)
        cache.lookup(epoch.graph, assignment, _costs(epoch, 1), cluster, FABRIC)
        # Second lookup with *different* costs must hit, yet match an
        # uncached recomputation bit for bit (only loads depends on costs).
        costs = _costs(epoch, 2)
        pattern = cache.lookup(epoch.graph, assignment, costs, cluster, FABRIC)
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        direct = ExchangePattern.from_mesh(
            epoch.graph, assignment, costs, cluster, FABRIC
        )
        assert_patterns_identical(pattern, direct)
        assert pattern.stats == message_stats(
            epoch.graph, assignment, cluster.ranks_per_node
        )

    def test_assignment_change_misses(self, epochs, cluster):
        cache = PatternCache(4)
        epoch = epochs[0]
        assignment = _assignment(epoch, cluster)
        costs = _costs(epoch, 1)
        cache.lookup(epoch.graph, assignment, costs, cluster, FABRIC)
        moved = assignment.copy()
        moved[0] = (moved[0] + 1) % cluster.n_ranks
        cache.lookup(epoch.graph, moved, costs, cluster, FABRIC)
        assert cache.stats.misses == 2 and cache.stats.hits == 0

    def test_new_graph_misses(self, epochs, cluster):
        assert epochs[0].graph is not epochs[-1].graph
        cache = PatternCache(4)
        for epoch in (epochs[0], epochs[-1]):
            assignment = _assignment(epoch, cluster)
            cache.lookup(epoch.graph, assignment, epoch.base_costs, cluster, FABRIC)
        assert cache.stats.misses == 2 and cache.stats.hits == 0

    def test_new_cluster_misses(self, epochs, cluster):
        cache = PatternCache(4)
        epoch = epochs[0]
        assignment = _assignment(epoch, cluster)
        cache.lookup(epoch.graph, assignment, epoch.base_costs, cluster, FABRIC)
        shrunk = cluster.evict_nodes([0])
        assert shrunk is not cluster
        remapped = np.clip(assignment, 0, shrunk.n_ranks - 1)
        cache.lookup(epoch.graph, remapped, epoch.base_costs, shrunk, FABRIC)
        assert cache.stats.misses == 2 and cache.stats.hits == 0

    def test_lru_eviction(self, epochs, cluster):
        cache = PatternCache(2)
        epoch = epochs[0]
        base = _assignment(epoch, cluster)
        variants = []
        for i in range(3):
            a = base.copy()
            a[0] = i % cluster.n_ranks
            variants.append(a)
        for a in variants:
            cache.lookup(epoch.graph, a, epoch.base_costs, cluster, FABRIC)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The oldest entry (variants[0]) was evicted: looking it up misses.
        cache.lookup(epoch.graph, variants[0], epoch.base_costs, cluster, FABRIC)
        assert cache.stats.misses == 4 and cache.stats.hits == 0

    def test_maybe_cache(self):
        assert maybe_cache(0) is None
        assert maybe_cache(-1) is None
        assert isinstance(maybe_cache(3), PatternCache)
        with pytest.raises(ValueError):
            PatternCache(0)


class TestSharedLookup:
    def test_hit_is_bit_identical_and_keeps_stats(self, epochs, cluster):
        store = SharedPatternCache(4)
        handle = store.handle()
        epoch = epochs[0]
        assignment = _assignment(epoch, cluster)
        handle.lookup(epoch.graph, assignment, _costs(epoch, 1), cluster, FABRIC)
        costs = _costs(epoch, 2)
        pattern = handle.lookup(epoch.graph, assignment, costs, cluster, FABRIC)
        assert handle.stats.hits == 1 and handle.stats.misses == 1
        direct = ExchangePattern.from_mesh(
            epoch.graph, assignment, costs, cluster, FABRIC
        )
        assert_patterns_identical(pattern, direct)
        assert pattern.stats == message_stats(
            epoch.graph, assignment, cluster.ranks_per_node
        )


class TestEngineIntegration:
    def test_cached_run_equals_uncached(self, epochs, cluster):
        policy = get_policy("baseline")
        base = dict(use_measured_costs=False, placement_charge_s=0.002)
        cached = run_trajectory(
            policy, epochs, cluster, DriverConfig(pattern_cache_size=8, **base)
        )
        uncached = run_trajectory(
            policy, epochs, cluster, DriverConfig(pattern_cache_size=0, **base)
        )
        assert cached.pattern_cache_hits > 0
        assert uncached.pattern_cache_hits == uncached.pattern_cache_misses == 0
        for f in dataclasses.fields(type(cached)):
            if f.name == "collector" or f.name.startswith("pattern_cache_"):
                continue
            if f.name == "placement_s_max":    # host-measured
                continue
            assert getattr(cached, f.name) == getattr(uncached, f.name), f.name
        assert cached.collector.steps_table() == uncached.collector.steps_table()
