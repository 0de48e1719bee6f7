"""Tests for the vectorized BSP runtime (ExchangePattern + BSPModel)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DEFAULT_MESSAGE_WEIGHTS, get_policy, message_stats
from repro.mesh import NeighborKind
from repro.mesh.neighbors import NeighborGraph
from repro.simnet import (
    BSPModel,
    Cluster,
    ExchangePattern,
    FaultModel,
    TUNED,
    UNTUNED,
)
from repro.simnet.machine import DEFAULT_FABRIC, DEFAULT_MACHINE

from tests.helpers import extreme_floats


@pytest.fixture
def env(small_mesh3d, rng):
    mesh = small_mesh3d
    cluster = Cluster(n_ranks=16)
    costs = rng.lognormal(0.0, 0.3, size=mesh.n_blocks)
    assignment = get_policy("baseline").place(costs, 16).assignment
    pattern = ExchangePattern.from_mesh(
        mesh.neighbor_graph, assignment, costs, cluster
    )
    return mesh, cluster, costs, assignment, pattern


class TestExchangePattern:
    def test_counts_match_message_stats(self, env):
        mesh, cluster, costs, assignment, pattern = env
        ms = message_stats(mesh.neighbor_graph, assignment, cluster.ranks_per_node)
        # Each undirected cross-rank pair is two directed messages.
        assert pattern.in_local.sum() == 2 * ms.local
        assert pattern.in_remote.sum() == 2 * ms.remote
        assert pattern.out_remote.sum() == pattern.in_remote.sum()

    def test_loads_match_bincount(self, env):
        _, cluster, costs, assignment, pattern = env
        expected = np.bincount(assignment, weights=costs, minlength=16)
        assert np.allclose(pattern.loads, expected)

    def test_pair_latency_paths(self, env):
        _, cluster, _, _, pattern = env
        if pattern.pair_local.any() and (~pattern.pair_local).any():
            assert (
                pattern.pair_latency[pattern.pair_local].max()
                < pattern.pair_latency[~pattern.pair_local].min()
            )

    def test_empty_graph(self):
        from repro.mesh import AmrMesh, RootGrid

        mesh = AmrMesh(RootGrid((1, 1, 1)))
        cluster = Cluster(n_ranks=2)
        p = ExchangePattern.from_mesh(
            mesh.neighbor_graph, np.zeros(1, dtype=np.int64), np.ones(1), cluster
        )
        assert p.pair_src.size == 0
        assert p.in_local.sum() == 0


class TestBSPStep:
    def test_determinism_with_seed(self, env):
        _, cluster, _, _, pattern = env
        a = BSPModel(cluster, seed=5).step(pattern)
        b = BSPModel(cluster, seed=5).step(pattern)
        assert np.allclose(a.compute, b.compute)
        assert np.allclose(a.comm, b.comm)
        assert np.allclose(a.sync, b.sync)

    def test_phases_nonnegative_and_consistent(self, env):
        _, cluster, _, _, pattern = env
        ph = BSPModel(cluster, seed=1).step(pattern)
        assert (ph.compute >= 0).all()
        assert (ph.comm >= 0).all()
        assert (ph.sync >= -1e-12).all()
        totals = ph.compute + ph.comm + ph.sync
        assert np.allclose(totals, totals[0])  # everyone ends at the sync
        assert ph.step_time == pytest.approx(float(totals[0]))

    def test_compute_scales_with_load(self, env):
        mesh, cluster, costs, _, _ = env
        heavy = get_policy("baseline").place(costs * 10, 16).assignment
        p1 = ExchangePattern.from_mesh(mesh.neighbor_graph, heavy, costs, cluster)
        p10 = ExchangePattern.from_mesh(
            mesh.neighbor_graph, heavy, costs * 10, cluster
        )
        m = BSPModel(cluster, seed=0)
        t1 = m.step(p1).compute.sum()
        m2 = BSPModel(cluster, seed=0)
        t10 = m2.step(p10).compute.sum()
        assert t10 == pytest.approx(10 * t1, rel=1e-9)

    def test_throttled_node_inflates_sync_for_others(self, env):
        mesh, _, costs, assignment, _ = env
        healthy = Cluster(n_ranks=16)
        # 16 ranks on one node: throttle granularity is the whole cluster;
        # use 2 nodes instead.
        sick = Cluster(n_ranks=32).throttle_nodes([1])
        pat_ok = ExchangePattern.from_mesh(
            mesh.neighbor_graph, assignment, costs, healthy
        )
        a2 = get_policy("baseline").place(costs, 32).assignment
        pat_sick = ExchangePattern.from_mesh(mesh.neighbor_graph, a2, costs, sick)
        sync_ok = BSPModel(healthy, seed=3).step(pat_ok).sync.mean()
        sync_sick = BSPModel(sick, seed=3).step(pat_sick).sync.mean()
        assert sync_sick > sync_ok * 1.5

    def test_untuned_cascade_increases_comm(self, env):
        _, cluster, _, _, pattern = env
        tuned = BSPModel(cluster, tuning=TUNED, seed=2).step(pattern)
        untuned = BSPModel(cluster, tuning=UNTUNED, seed=2).step(pattern)
        assert untuned.comm.sum() > tuned.comm.sum()

    def test_ack_faults_add_time_without_drain_queue(self, env):
        # ACK faults only hit *remote* sends, so spread ranks over 2 nodes.
        mesh, _, costs, _, _ = env
        cluster = Cluster(n_ranks=32)
        assignment = get_policy("baseline").place(costs, 32).assignment
        pattern = ExchangePattern.from_mesh(
            mesh.neighbor_graph, assignment, costs, cluster
        )
        assert pattern.out_remote.sum() > 0
        faults = FaultModel(ack_loss_prob=0.5, ack_recovery_s=0.1)
        no_dq = dataclasses.replace(TUNED, drain_queue=False)
        base = BSPModel(cluster, tuning=TUNED, faults=faults, seed=4).step(pattern)
        hit = BSPModel(cluster, tuning=no_dq, faults=faults, seed=4).step(pattern)
        assert hit.step_time > base.step_time

    def test_exchange_rounds_scale_backlog(self, env):
        _, cluster, _, _, pattern = env
        one = BSPModel(cluster, seed=6, exchange_rounds=1).step(pattern)
        four = BSPModel(cluster, seed=6, exchange_rounds=4).step(pattern)
        assert four.comm.sum() > one.comm.sum()

    def test_invalid_rounds(self, env):
        _, cluster, _, _, _ = env
        with pytest.raises(ValueError):
            BSPModel(cluster, exchange_rounds=0)


class TestSimulateSteps:
    def test_epoch_scaling(self, env):
        _, cluster, _, _, pattern = env
        model = BSPModel(cluster, seed=7)
        mean, wall = model.simulate_steps(pattern, n_steps=100, max_samples=4)
        assert wall == pytest.approx(
            (mean.compute + mean.comm + mean.sync).max() * 100, rel=0.5
        )

    def test_single_step(self, env):
        _, cluster, _, _, pattern = env
        model = BSPModel(cluster, seed=8)
        mean, wall = model.simulate_steps(pattern, n_steps=1)
        assert wall == pytest.approx(mean.step_time)

    def test_invalid_steps(self, env):
        _, cluster, _, _, pattern = env
        with pytest.raises(ValueError):
            BSPModel(cluster).simulate_steps(pattern, 0)

    def test_totals_dict(self, env):
        _, cluster, _, _, pattern = env
        ph = BSPModel(cluster, seed=9).step(pattern)
        t = ph.totals()
        assert set(t) == {"compute", "comm", "sync"}
        assert t["compute"] == pytest.approx(float(ph.compute.sum()))


def _old_max_per_key(key, size):
    """The pair collapse as first written: stable sort plus np.unique."""
    order = np.argsort(key, kind="stable")
    key_s, size_s = key[order], size[order]
    uniq, start = np.unique(key_s, return_index=True)
    return uniq, np.maximum.reduceat(size_s, start)


@dataclasses.dataclass(frozen=True)
class _CollapsedPattern(ExchangePattern):
    """The directed rank-pair layout: one entry per (source, destination)."""

    def arrivals(self, dispatch):
        arr = np.zeros(self.n_ranks, dtype=np.float64)
        if self.pair_src.size:
            np.maximum.at(
                arr, self.pair_dst, dispatch[self.pair_src] + self.pair_latency
            )
        return arr


def _arrivals_only(cls, n_ranks, src, dst, latency):
    """A pattern carrying only the fields ``arrivals`` reads."""
    return cls(
        n_ranks=n_ranks, pair_src=src, pair_dst=dst, pair_local=None,
        pair_latency=latency, in_local=None, in_remote=None, out_remote=None,
        loads=None, intra_volume=None, stats=None,
    )


def _collapsed_from_mesh(graph, assignment, costs, cluster, fabric=DEFAULT_FABRIC):
    """Oracle: the sort-and-collapse ``from_mesh``.

    Every cross-rank block pair becomes two directed messages, which are
    collapsed to unique rank pairs keeping each pair's largest message.
    """
    n_ranks = cluster.n_ranks
    assignment = np.asarray(assignment, dtype=np.int64)
    loads = np.bincount(assignment, weights=costs, minlength=n_ranks)
    w = graph.edge_weights(DEFAULT_MESSAGE_WEIGHTS)
    ra = assignment[graph.edges[:, 0]]
    rb = assignment[graph.edges[:, 1]]
    cross = ra != rb
    intra_volume = np.bincount(
        ra[~cross], weights=w[~cross], minlength=n_ranks
    ).astype(np.float64)
    src = np.concatenate([ra[cross], rb[cross]])
    dst = np.concatenate([rb[cross], ra[cross]])
    size = np.concatenate([w[cross], w[cross]])
    local = src // cluster.ranks_per_node == dst // cluster.ranks_per_node
    in_local = np.bincount(dst[local], minlength=n_ranks).astype(np.float64)
    in_remote = np.bincount(dst[~local], minlength=n_ranks).astype(np.float64)
    out_remote = np.bincount(src[~local], minlength=n_ranks).astype(np.float64)
    uniq, max_size = _old_max_per_key(src * np.int64(n_ranks) + dst, size)
    p_src, p_dst = uniq // n_ranks, uniq % n_ranks
    p_local = p_src // cluster.ranks_per_node == p_dst // cluster.ranks_per_node
    if cluster.node_nic_gbps is not None:
        nic = cluster.rank_nic()
        remote_bw = fabric.remote_pair_bandwidth(np.minimum(nic[p_src], nic[p_dst]))
    else:
        remote_bw = fabric.remote_bandwidth
    lat = np.where(
        p_local,
        fabric.local_latency_s + max_size / fabric.local_bandwidth,
        fabric.remote_latency_s + max_size / remote_bw,
    )
    if fabric.cross_switch_extra_s > 0:
        far = np.asarray(cluster.switch_of(p_src)) != np.asarray(
            cluster.switch_of(p_dst)
        )
        lat = lat + far * fabric.cross_switch_extra_s
    return _CollapsedPattern(
        n_ranks=n_ranks,
        pair_src=p_src,
        pair_dst=p_dst,
        pair_local=p_local,
        pair_latency=lat.astype(np.float64),
        in_local=in_local,
        in_remote=in_remote,
        out_remote=out_remote,
        loads=np.asarray(loads, dtype=np.float64),
        intra_volume=intra_volume,
        stats=message_stats(graph, assignment, cluster.ranks_per_node),
    )


#: per-rank arrays both layouts must agree on bit for bit
_PER_RANK = ("in_local", "in_remote", "out_remote", "loads", "intra_volume")


def _assert_matches_oracle(graph, assignment, costs, cluster, fabric, model_kw):
    new = ExchangePattern.from_mesh(graph, assignment, costs, cluster, fabric)
    old = _collapsed_from_mesh(graph, assignment, costs, cluster, fabric)
    for name in _PER_RANK:
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert new.stats == old.stats
    m_new = BSPModel(cluster, fabric=fabric, **model_kw)
    m_old = BSPModel(cluster, fabric=fabric, **model_kw)
    for _ in range(3):
        a, b = m_new.step(new), m_old.step(old)
        for phase in ("compute", "comm", "sync"):
            assert np.array_equal(getattr(a, phase), getattr(b, phase)), phase


def _random_case(seed, classes=None):
    """A random mesh, assignment and environment; ``seed`` picks the knobs."""
    from repro.bench.commbench import random_refined_mesh
    from repro.simnet import hetero_cluster

    rng = np.random.default_rng(seed)
    n_ranks = 64
    nodes_per_switch = int(rng.integers(0, 3))
    if classes is None:
        cluster = Cluster(n_ranks=n_ranks, nodes_per_switch=nodes_per_switch)
    else:
        cluster = hetero_cluster(n_ranks, classes, nodes_per_switch=nodes_per_switch)
    fabric = DEFAULT_FABRIC
    if nodes_per_switch:
        fabric = dataclasses.replace(fabric, cross_switch_extra_s=150e-6)
    mesh = random_refined_mesh(n_ranks, float(rng.choice([1.0, 4.0])), rng)
    costs = rng.lognormal(size=mesh.n_blocks)
    if rng.random() < 0.5:
        assignment = rng.integers(0, n_ranks, size=mesh.n_blocks)
    else:
        assignment = get_policy("baseline").place(costs, n_ranks).assignment
    tuning = [TUNED, UNTUNED][seed % 2]
    faults = FaultModel()
    if rng.random() < 0.5:
        tuning = dataclasses.replace(tuning, drain_queue=False)
        faults = FaultModel(ack_loss_prob=0.2)
    model_kw = dict(
        tuning=tuning, faults=faults, seed=seed,
        exchange_rounds=1 + seed % 3,
    )
    return mesh.neighbor_graph, assignment, costs, cluster, fabric, model_kw


class TestPairCollapse:
    """The one-pass edge layout is bit-identical to the sort-and-collapse
    oracle: per-rank arrays, message stats and every BSP step."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_old_expression(self, seed):
        """Scattering every edge both ways equals scattering each directed
        pair's largest message, on duplicate-heavy rank pairs."""
        rng = np.random.default_rng(seed)
        n_ranks = int(rng.choice([2, 3, 16, 64]))
        m = int(rng.integers(0, 400))
        a = rng.integers(0, n_ranks, size=m)
        b = (a + rng.integers(1, n_ranks, size=m)) % n_ranks
        size = rng.choice([1.0, 4.0, 16.0], size=m) * rng.lognormal(size=m)
        base, bw = 2.5e-6, float(rng.choice([3.0e9, 7.0e9]))
        dispatch = rng.uniform(0.0, 1e-3, size=n_ranks)
        uniq, max_size = _old_max_per_key(
            np.concatenate([a * n_ranks + b, b * n_ranks + a]),
            np.concatenate([size, size]),
        )
        got = _arrivals_only(
            ExchangePattern, n_ranks, a, b, base + size / bw
        ).arrivals(dispatch)
        want = _arrivals_only(
            _CollapsedPattern, n_ranks, uniq // n_ranks, uniq % n_ranks,
            base + max_size / bw,
        ).arrivals(dispatch)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("classes", [None, "fast:0.5x1@200,slow:1.0x1@25"])
    def test_from_mesh_matches_old_collapse(self, seed, classes):
        _assert_matches_oracle(*_random_case(seed, classes))

    def test_random_cases_match_old_collapse(self):
        """Tuned and untuned cascades, mixed NIC tiers, cross-switch hops,
        ACK-loss faults and 1-3 exchange rounds over 28 more meshes."""
        for seed in range(6, 34):
            classes = None if seed % 4 else "fast:0.5x1@200,slow:1.0x1@25"
            _assert_matches_oracle(*_random_case(seed, classes))


class TestPatternStats:
    """The message stats the pattern carries equal ``message_stats``."""

    @settings(max_examples=200)
    @given(st.data())
    def test_equals_message_stats(self, data):
        n_blocks = data.draw(st.integers(1, 24))
        n_ranks = data.draw(st.integers(1, 8))
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, n_blocks - 1), st.integers(0, n_blocks - 1))
            .filter(lambda p: p[0] < p[1]),
            max_size=40, unique=True,
        ))
        kinds = data.draw(st.lists(
            st.sampled_from(list(NeighborKind)),
            min_size=len(pairs), max_size=len(pairs),
        ))
        weights = {k: data.draw(extreme_floats) for k in NeighborKind}
        assignment = np.asarray(data.draw(st.lists(
            st.integers(0, n_ranks - 1), min_size=n_blocks, max_size=n_blocks,
        )), dtype=np.int64)
        rpn = data.draw(st.integers(1, n_ranks))
        cluster = Cluster(
            n_ranks=n_ranks,
            machine=dataclasses.replace(DEFAULT_MACHINE, cores_per_node=rpn),
        )
        graph = NeighborGraph(
            [None] * n_blocks,
            np.asarray(pairs, dtype=np.int64).reshape(-1, 2),
            np.asarray(kinds, dtype=np.int8),
        )
        with np.errstate(over="ignore"):
            pattern = ExchangePattern.from_mesh(
                graph, assignment, np.ones(n_blocks), cluster, weights=weights
            )
            want = message_stats(graph, assignment, rpn, weights=weights)
        assert pattern.stats == want

    def test_length_mismatch_raises(self, env):
        mesh, cluster, costs, assignment, _ = env
        with pytest.raises(ValueError, match="assignment covers"):
            ExchangePattern.from_mesh(
                mesh.neighbor_graph, assignment[:-1], costs[:-1], cluster
            )
