"""Packed int64 block keys: round trips, tree relations, bit budget."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mesh import AmrMesh, BlockIndex, RefinementTags, RootGrid
from repro.mesh.keys import (
    LEVEL_BITS,
    block_keys,
    coord_bits,
    first_child_keys,
    key_levels,
    pack_keys,
    parent_keys,
    unpack_keys,
)


@st.composite
def blocks(draw, dim=None, min_level=0):
    dim = draw(st.integers(1, 3)) if dim is None else dim
    level = draw(st.integers(min_level, 12))
    hi = min((1 << coord_bits(dim)) - 1, (4 << level) - 1)
    coords = tuple(draw(st.integers(0, hi)) for _ in range(dim))
    return BlockIndex(level, coords)


class TestRoundTrip:
    @given(st.integers(1, 3).flatmap(lambda d: st.lists(blocks(d), max_size=40)))
    def test_unpack_inverts_pack(self, bs):
        keys = block_keys(bs)
        assert keys.dtype == np.int64
        assert (keys >= 0).all()
        if bs:
            coords, levels = unpack_keys(keys, bs[0].dim)
            got = [BlockIndex(int(lv), tuple(int(c) for c in cs))
                   for cs, lv in zip(coords, levels)]
            assert got == bs
            assert key_levels(keys).tolist() == [b.level for b in bs]

    @given(st.integers(1, 3).flatmap(lambda d: st.lists(blocks(d), max_size=40)))
    def test_distinct_blocks_distinct_keys(self, bs):
        assert len(set(block_keys(bs).tolist())) == len(set(bs))

    @given(blocks(min_level=1))
    def test_parent_is_a_shift(self, b):
        key = block_keys([b])
        assert parent_keys(key, b.dim).tolist() == block_keys([b.parent()]).tolist()

    @given(blocks())
    def test_first_child_is_a_shift(self, b):
        key = block_keys([b])
        child = block_keys([b.children()[0]])
        assert first_child_keys(key, b.dim).tolist() == child.tolist()
        assert parent_keys(child, b.dim).tolist() == key.tolist()

    def test_mesh_caches_keys(self, small_mesh3d):
        keys = small_mesh3d.keys()
        assert keys is small_mesh3d.keys()
        assert np.array_equal(keys, block_keys(small_mesh3d.blocks))

    def test_keys_invalidate_on_remesh(self):
        mesh = AmrMesh(RootGrid((2, 2)), max_level=2)
        before = mesh.keys()
        mesh.remesh(RefinementTags(refine=mesh.keys()[:1]))
        assert mesh.keys().shape[0] == mesh.n_blocks == 7
        assert np.array_equal(mesh.keys(), block_keys(mesh.blocks))
        assert not np.array_equal(before, mesh.keys()[:4])


class TestBitBudget:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_largest_coordinate_packs_with_child_headroom(self, dim):
        top = (1 << coord_bits(dim)) - 1
        b = BlockIndex(29, (top,) * dim)
        key = block_keys([b])
        assert key[0] >= 0
        child = first_child_keys(key, dim)
        assert child[0] >= 0
        coords, levels = unpack_keys(child, dim)
        assert coords.tolist() == [[top << 1] * dim] and levels.tolist() == [30]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_coordinate_beyond_budget_raises(self, dim):
        over = 1 << coord_bits(dim)
        with pytest.raises(ValueError, match="coordinates"):
            block_keys([BlockIndex(3, (over,) + (0,) * (dim - 1))])

    def test_level_beyond_budget_raises(self):
        too_deep = (1 << LEVEL_BITS) - 1
        with pytest.raises(ValueError, match="levels"):
            pack_keys(np.zeros((1, 3), dtype=np.int64), [too_deep])
        with pytest.raises(ValueError, match="levels"):
            pack_keys(np.zeros((1, 3), dtype=np.int64), [-1])

    def test_3d_budget_is_18_bits(self):
        assert coord_bits(3) == 18
        with pytest.raises(ValueError):
            coord_bits(4)

    def test_empty(self):
        assert block_keys([]).shape == (0,)
        coords, levels = unpack_keys(np.empty(0, dtype=np.int64), 3)
        assert coords.shape == (0, 3) and levels.shape == (0,)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_empty_round_trip(self, dim):
        coords, levels = unpack_keys(np.empty(0, dtype=np.int64), dim)
        assert coords.shape == (0, dim)
        keys = pack_keys(coords, levels)
        assert keys.shape == (0,) and keys.dtype == np.int64
        empty = pack_keys(np.empty((0, dim), dtype=np.int64), np.empty(0, dtype=np.int64))
        assert empty.shape == (0,)
