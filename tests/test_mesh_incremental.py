"""Remesh metadata: counts, cache parity, balance closure, windowed scalebench.

The acceptance bar for the cached metadata is *element identity*: after
any legal tag sequence, the mesh's neighbor graph must equal a
from-scratch build by the reference builder — same blocks, same edge
rows in the same order, same kinds — not just the same edge set.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import (
    AmrMesh,
    BlockIndex,
    RefinementTags,
    RootGrid,
    block_keys,
    build_neighbor_graph,
    is_two_one_balanced,
)
from repro.mesh.keys import blocks_of_keys
from repro.mesh.refinement import enforce_two_one_balance

from tests.helpers import block_tags, leaf_table


def graphs_identical(g1, g2) -> bool:
    """Strict equality: blocks, edge ordering, and kinds all match."""
    return (
        g1.blocks == g2.blocks
        and np.array_equal(g1.edges, g2.edges)
        and np.array_equal(g1.kinds, g2.kinds)
    )


def assert_mesh_consistent(mesh: AmrMesh) -> None:
    """Every cached derived structure matches a from-scratch rebuild by
    the reference builder."""
    rebuilt = build_neighbor_graph(mesh.forest)
    assert graphs_identical(mesh.neighbor_graph, rebuilt)
    assert mesh.blocks == mesh.forest.leaves_dfs()
    assert mesh.blocks == mesh.neighbor_graph.blocks
    for i, b in enumerate(mesh.blocks):
        assert mesh.block_id(b) == i
    coords, levels = mesh._geometry()
    assert np.array_equal(
        coords, np.asarray([b.coords for b in mesh.blocks], dtype=np.int64)
    )
    assert np.array_equal(
        levels, np.asarray([b.level for b in mesh.blocks], dtype=np.int64)
    )
    assert np.array_equal(mesh.keys(), block_keys(mesh.blocks))


def warmed_mesh(shape, periodic, max_level=3) -> AmrMesh:
    mesh = AmrMesh(RootGrid(shape, periodic=periodic), max_level=max_level)
    _ = mesh.neighbor_graph
    _ = mesh.levels()
    return mesh


def random_tags(mesh: AmrMesh, rng, p_refine=0.25, p_coarsen=0.25) -> RefinementTags:
    leaves = sorted(mesh.forest.leaves(), key=lambda b: (b.level, b.coords))
    refine = {
        b for b in leaves
        if b.level < mesh.forest.max_level and rng.random() < p_refine
    }
    coarsen = {
        b for b in leaves
        if b.level > 0 and b not in refine and rng.random() < p_coarsen
    }
    return block_tags(refine, coarsen)


# ---------------------------------------------------------------------- #
# remesh counts
# ---------------------------------------------------------------------- #


class TestRemeshDelta:
    def test_unpacks_as_historical_tuple(self):
        mesh = AmrMesh(RootGrid((2, 2)), max_level=2)
        target = mesh.blocks[0]
        counts = mesh.remesh(block_tags(refine=[target]))
        assert counts == (1, 0) and type(counts) is tuple
        # Coarsening the four children back merges one parent.
        assert mesh.remesh(block_tags(coarsen=target.children())) == (0, 1)
        assert mesh.remesh_by_predicate(lambda b: b == target) == (1, 0)


# ---------------------------------------------------------------------- #
# cache parity against the reference builder (Hypothesis)
# ---------------------------------------------------------------------- #


class TestIncrementalParity:
    """Random remesh sequences keep every cache equal to a rebuild."""

    @given(st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_random_sequences_2d(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(int(rng.integers(1, 4)) for _ in range(2))
        periodic = tuple(bool(rng.integers(2)) for _ in range(2))
        mesh = warmed_mesh(shape, periodic)
        for _ in range(4):
            mesh.remesh(random_tags(mesh, rng))
            assert_mesh_consistent(mesh)
        assert is_two_one_balanced(mesh.forest)

    @given(st.integers(0, 60))
    @settings(max_examples=12, deadline=None)
    def test_random_sequences_3d(self, seed):
        rng = np.random.default_rng(1000 + seed)
        periodic = tuple(bool(rng.integers(2)) for _ in range(3))
        mesh = warmed_mesh((2, 2, 2), periodic)
        for _ in range(3):
            mesh.remesh(random_tags(mesh, rng))
            assert_mesh_consistent(mesh)

    @given(st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_coarsen_then_refine_same_region(self, seed):
        rng = np.random.default_rng(seed)
        periodic = tuple(bool(rng.integers(2)) for _ in range(2))
        mesh = warmed_mesh((2, 2), periodic)
        target = mesh.blocks[int(rng.integers(len(mesh.blocks)))]
        mesh.remesh(block_tags(refine=[target]))
        assert_mesh_consistent(mesh)
        mesh.remesh(block_tags(coarsen=target.children()))
        assert_mesh_consistent(mesh)
        mesh.remesh(block_tags(refine=[target]))
        assert_mesh_consistent(mesh)
        assert target not in mesh.forest
        assert all(c in mesh.forest for c in target.children())


# ---------------------------------------------------------------------- #
# cache invalidation
# ---------------------------------------------------------------------- #


class TestFallback:
    def test_stale_cache_falls_back_cleanly(self):
        mesh = warmed_mesh((2, 2), (False, False))
        # Mutate the forest behind the cache's back: the next changing
        # remesh must still leave every cache equal to a rebuild.
        mesh.forest.refine(mesh.forest.leaves_dfs()[-1])
        mesh.remesh(block_tags(refine=[mesh.forest.leaves_dfs()[0]]))
        assert_mesh_consistent(mesh)

    def test_generation_bumps_on_both_paths(self):
        mesh = warmed_mesh((2, 2), (False, False))
        g0 = mesh.generation
        mesh.remesh(block_tags(refine=[mesh.blocks[0]]))
        assert mesh.generation == g0 + 1
        _ = mesh.neighbor_graph  # a cached graph does not change the rule
        mesh.remesh(block_tags(refine=[mesh.blocks[-1]]))
        assert mesh.generation == g0 + 2

    def test_noop_remesh_preserves_graph_object(self):
        mesh = warmed_mesh((2, 2), (False, False))
        graph = mesh.neighbor_graph
        assert mesh.remesh(RefinementTags()) == (0, 0)
        assert mesh.neighbor_graph is graph


# ---------------------------------------------------------------------- #
# block_id maintenance
# ---------------------------------------------------------------------- #


class TestBlockId:
    def test_block_id_matches_list_index(self):
        mesh = warmed_mesh((2, 2), (False, False))
        mesh.remesh(block_tags(refine=[mesh.blocks[1]]))
        for i, b in enumerate(mesh.blocks):
            assert mesh.block_id(b) == i

    def test_block_id_rejects_non_leaf(self):
        mesh = warmed_mesh((2, 2), (False, False))
        target = mesh.blocks[0]
        mesh.remesh(block_tags(refine=[target]))
        with pytest.raises(ValueError):
            mesh.block_id(target)  # refined away — no longer a leaf


# ---------------------------------------------------------------------- #
# balance closure cost (deep cascade regression)
# ---------------------------------------------------------------------- #


class TestBalanceCascade:
    def deep_gradient_forest(self, max_level=5):
        """A corner-refined level gradient: the worst cascade shape."""
        mesh = AmrMesh(RootGrid((2, 2)), max_level=max_level)
        corner = BlockIndex(0, (0, 0))
        # stop one level short so the deepest corner leaf is refinable
        for _ in range(max_level - 1):
            mesh.remesh(block_tags(refine=[corner]))
            corner = corner.children()[0]
        assert is_two_one_balanced(mesh.forest)
        # The domain-corner leaf only has same-level siblings; its
        # diagonal sibling abuts the coarser transition layers, so
        # refining it ripples down the whole gradient.
        far = BlockIndex(corner.level, tuple(c + 1 for c in corner.coords))
        assert far in mesh.forest
        return mesh.forest, far

    def test_deep_cascade_closure_correct(self):
        forest, corner = self.deep_gradient_forest()
        closed = blocks_of_keys(
            enforce_two_one_balance(forest, leaf_table(forest), block_keys([corner])),
            forest.dim,
        )
        assert corner in closed
        assert len(closed) > 1  # the refinement ripples down the gradient
        for b in closed:
            forest.refine(b)
        assert is_two_one_balanced(forest)

    def test_closure_probes_each_block_once(self, monkeypatch):
        import repro.mesh.refinement as refinement_mod

        forest, corner = self.deep_gradient_forest()
        calls = {"n": 0}
        real = refinement_mod._coarser_neighbors

        def counting(forest, table, keys):
            calls["n"] += len(keys)
            return real(forest, table, keys)

        monkeypatch.setattr(refinement_mod, "_coarser_neighbors", counting)
        closed = enforce_two_one_balance(forest, leaf_table(forest), block_keys([corner]))
        # Linear closure: exactly one probe per block that enters the
        # result — rediscovered or max-level blocks are never re-probed.
        assert calls["n"] == len(closed)


# ---------------------------------------------------------------------- #
# sharded scalebench
# ---------------------------------------------------------------------- #


class TestShardedScalebench:
    def test_effective_shard_ranks_policy(self):
        from repro.bench.scalebench import (
            AUTO_SHARD_MIN_RANKS,
            AUTO_SHARD_RANKS,
            ScalebenchConfig,
        )

        auto = ScalebenchConfig()
        # Below the threshold a cell is one window covering all its ranks.
        assert auto.effective_shard_ranks(512) == 512
        assert (
            auto.effective_shard_ranks(AUTO_SHARD_MIN_RANKS - 1)
            == AUTO_SHARD_MIN_RANKS - 1
        )
        assert auto.effective_shard_ranks(AUTO_SHARD_MIN_RANKS) == AUTO_SHARD_RANKS
        forced = ScalebenchConfig(shard_ranks=64)
        assert forced.effective_shard_ranks(512) == 64
        assert forced.effective_shard_ranks(32) == 32
        with pytest.raises(ValueError):
            ScalebenchConfig(shard_ranks=-1)

    def test_single_shard_matches_global_path(self):
        """A one-window cell is ``make_costs → place → normalized_makespan``
        over the whole cell, bit for bit, on homogeneous and mixed
        hardware."""
        from repro.bench.distributions import make_costs
        from repro.bench.scalebench import ScalebenchConfig, run_scalebench
        from repro.core.metrics import normalized_makespan
        from repro.core.policy import get_policy
        from repro.simnet.cluster import hetero_cluster

        for node_classes in (None, "fast:0.5x16,slow:1.0x48"):
            config = ScalebenchConfig(
                scales=(256,),
                distributions=("exponential", "gaussian"),
                x_values=(0.0, 50.0),
                repeats=2,
                node_classes=node_classes,
            )
            rows = run_scalebench(config)
            assert len(rows) == 4
            ctx = (
                None if node_classes is None
                else hetero_cluster(256, node_classes).placement_context()
            )
            for row in rows:
                policy = get_policy(
                    f"cplx:{row.x}" if ctx is None else f"hetero-cplx:{row.x}"
                )
                ms = []
                for rep in range(config.repeats):
                    costs = make_costs(
                        row.distribution, int(256 * config.blocks_per_rank),
                        seed=config.seed + 7919 * rep + 256,
                    )
                    result = policy.place(costs, 256, ctx=ctx)
                    ms.append(normalized_makespan(
                        costs, result.assignment, 256, ctx=ctx
                    ))
                assert row.norm_makespan == float(np.mean(ms))

    @pytest.mark.parametrize(
        "n_ranks, shard_ranks, dist, x, node_classes, norm, peak",
        [
            # 500 = 7 x 64 + 52 ranks: a short last window.
            (500, 64, "exponential", 50.0, None, 2.236731768601052, 2304),
            # 6-rank windows hold 13 or 14 blocks; the peak is the 14.
            (1000, 6, "gaussian", 25.0, None, 1.4543195640895676, 224),
            (1000, 6, "power-law", 0.0, None, 3.191044830677986, 224),
            (512, 48, "exponential", 50.0, "fast:0.5x16,slow:1.0x48",
             2.7351459736781996, 1728),
        ],
    )
    def test_uneven_windows_pinned(
        self, n_ranks, shard_ranks, dist, x, node_classes, norm, peak
    ):
        """Uneven rank windows reproduce values pinned before the
        windowed loop replaced the sharded block table."""
        from repro.bench.scalebench import (
            ScalebenchConfig,
            _cell_context,
            _place_sharded,
            _ScalebenchCell,
        )
        from repro.core.policy import get_policy

        config = ScalebenchConfig(
            scales=(n_ranks,), shard_ranks=shard_ranks, node_classes=node_classes
        )
        cell = _ScalebenchCell(
            config=config, n_ranks=n_ranks, distribution=dist, x=x
        )
        ctx = _cell_context(cell)
        policy = get_policy(f"cplx:{x}" if ctx is None else f"hetero-cplx:{x}")
        got_norm, elapsed, got_peak = _place_sharded(
            policy, cell, config.seed + n_ranks, shard_ranks, ctx=ctx
        )
        assert got_norm == norm
        assert got_peak == peak
        assert elapsed >= 0.0

    def test_multi_shard_memory_is_shard_sized(self):
        from repro.bench.scalebench import (
            ScalebenchConfig,
            _place_sharded,
            _ScalebenchCell,
        )
        from repro.core.policy import get_policy

        config = ScalebenchConfig(scales=(512,), shard_ranks=64, repeats=1)
        cell = _ScalebenchCell(
            config=config, n_ranks=512, distribution="exponential", x=50.0
        )
        norm, elapsed, peak = _place_sharded(get_policy("cplx:50"), cell, 7, 64)
        assert norm >= 1.0 and elapsed >= 0.0
        # peak window arrays: cost (f64) + assignment (i64) per block of
        # ONE 64-rank window, not the 512-rank global table
        assert peak == int(64 * config.blocks_per_rank) * 16

    def test_spec_params_reach_config(self):
        from repro.service import spec_from_params

        spec = spec_from_params(
            "scalebench",
            {
                "scales": [128],
                "repeats": 1,
                "distributions": ["gaussian"],
                "x_values": [50.0],
                "shard_ranks": 32,
            },
        )
        cfg = spec.config
        assert cfg.scales == (128,)
        assert cfg.distributions == ("gaussian",)
        assert cfg.x_values == (50.0,)
        assert cfg.shard_ranks == 32

    def test_cli_shard_flags_end_to_end(self, capsys):
        from repro.cli import main

        code = main([
            "scalebench", "--scales", "64", "--repeats", "1",
            "--distributions", "exponential", "--x-values", "50",
            "--shard-ranks", "16",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "normalized makespan @ 64 ranks" in out
