"""Tests for the AmrMesh facade: caching, geometry, remesh plumbing."""

import numpy as np
import pytest

from repro.mesh import AmrMesh, RefinementTags, RootGrid, block_bounds, block_keys
from repro.mesh.refinement import is_two_one_balanced


class TestGeometryCaches:
    def test_vectorized_bounds_match_scalar(self, small_mesh3d):
        lo, hi = small_mesh3d.bounds()
        for i, b in enumerate(small_mesh3d.blocks):
            slo, shi = block_bounds(b, small_mesh3d.root, small_mesh3d.domain_size)
            assert np.allclose(lo[i], slo)
            assert np.allclose(hi[i], shi)

    def test_centers_inside_bounds(self, small_mesh3d):
        lo, hi = small_mesh3d.bounds()
        c = small_mesh3d.centers()
        assert (c > lo).all() and (c < hi).all()

    def test_cache_invalidation_on_remesh(self, mesh2d):
        blocks_before = list(mesh2d.blocks)
        gen = mesh2d.generation
        target = [b for b in mesh2d.blocks if b.level == 1][0]
        mesh2d.remesh(RefinementTags(refine=block_keys([target])))
        assert mesh2d.generation == gen + 1
        assert list(mesh2d.blocks) != blocks_before
        assert mesh2d.levels().shape[0] == mesh2d.n_blocks

    def test_noop_remesh_keeps_generation(self, mesh2d):
        gen = mesh2d.generation
        mesh2d.remesh(RefinementTags())
        assert mesh2d.generation == gen


class TestFacade:
    def test_domain_size_validation(self):
        with pytest.raises(ValueError):
            AmrMesh(RootGrid((2, 2)), domain_size=(1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            AmrMesh(RootGrid((2, 2)), block_cells=0)

    def test_physical_domain(self):
        mesh = AmrMesh(RootGrid((2, 4)), domain_size=(1.0, 2.0))
        lo, hi = mesh.bounds()
        assert np.allclose(lo.min(axis=0), [0, 0])
        assert np.allclose(hi.max(axis=0), [1.0, 2.0])

    def test_block_id_lookup(self, mesh2d):
        for i, b in enumerate(mesh2d.blocks):
            assert mesh2d.block_id(b) == i

    def test_copy_independent(self, mesh2d):
        clone = mesh2d.copy()
        target = [b for b in mesh2d.blocks if b.level == 1][0]
        mesh2d.remesh(RefinementTags(refine=block_keys([target])))
        assert clone.n_blocks != mesh2d.n_blocks

    def test_remesh_by_predicate(self):
        mesh = AmrMesh(RootGrid((2, 2)), max_level=2)
        n_ref, _ = mesh.remesh_by_predicate(lambda b: b.coords == (0, 0))
        assert n_ref == 1
        assert mesh.n_blocks == 7
        assert is_two_one_balanced(mesh.forest)

    def test_neighbor_graph_block_order_matches(self, small_mesh3d):
        g = small_mesh3d.neighbor_graph
        assert g.blocks == small_mesh3d.blocks
