"""Unit + property tests for tagging and 2:1 balance enforcement."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mesh.geometry import BlockIndex, RootGrid
from repro.mesh.keys import block_keys, blocks_of_keys
from repro.mesh.octree import OctreeForest
from repro.mesh.refinement import (
    RefinementTags,
    apply_tags,
    enforce_two_one_balance,
    is_two_one_balanced,
    tag_by_predicate,
)

from tests.helpers import block_tags, leaf_table, random_forest


def closure_blocks(forest, to_refine):
    """The balance closure of a set of blocks, as blocks."""
    keys = enforce_two_one_balance(forest, leaf_table(forest), block_keys(to_refine))
    return set(blocks_of_keys(keys, forest.dim))


def apply_block_tags(forest, refine=(), coarsen=()):
    """``apply_tags`` on tags given as blocks."""
    return apply_tags(forest, leaf_table(forest), block_tags(refine, coarsen))


class TestTags:
    def test_conflicting_tags_rejected(self):
        b = BlockIndex(0, (0, 0))
        with pytest.raises(ValueError):
            RefinementTags(refine=block_keys([b]), coarsen=block_keys([b]))


class TestBalanceClosure:
    def test_ripple_propagation(self):
        # Refine one corner twice, then tagging the level-2 block forces
        # its coarser neighbors to refine too.
        f = OctreeForest(RootGrid((2, 2)), max_level=3)
        k1 = f.refine(BlockIndex(0, (0, 0)))
        k2 = f.refine(k1[0])
        assert is_two_one_balanced(f)
        target = k2[0]  # level 2, adjacent to level-1 siblings only
        closure = closure_blocks(f, {target})
        assert target in closure
        # Refining level-2 forces no cascade here (neighbors are level 1).
        f2 = f.copy()
        for b in closure:
            f2.refine(b)
        assert is_two_one_balanced(f2)

    def test_cascade_needed(self):
        # Level-2 block adjacent to a level-1 leaf whose own neighbor is
        # level 0: refining the deepest forces a cascade.
        f = OctreeForest(RootGrid((4, 4)), max_level=4)
        f.refine(BlockIndex(0, (0, 0)))
        f.refine(BlockIndex(1, (0, 0)))
        assert is_two_one_balanced(f)
        closure = closure_blocks(f, {BlockIndex(2, (1, 1))})
        f2 = f.copy()
        for b in sorted(closure, key=lambda x: (x.level, x.coords)):
            f2.refine(b)
        assert is_two_one_balanced(f2)
        assert len(closure) > 1  # the cascade pulled in coarser neighbors

    @given(st.integers(0, 40), st.integers(0, 6))
    def test_closure_keeps_balance_property(self, seed, n_tags):
        f = random_forest(seed, dim=2)
        if not is_two_one_balanced(f):
            return  # random forests may start unbalanced; skip those
        rng = np.random.default_rng(seed)
        leaves = sorted(f.leaves(), key=lambda b: (b.level, b.coords))
        refinable = [b for b in leaves if b.level < f.max_level]
        if not refinable:
            return
        tags = {refinable[int(rng.integers(len(refinable)))] for _ in range(n_tags)}
        closure = closure_blocks(f, tags)
        assert tags & set(f.leaves()) <= closure | {
            b for b in tags if b.level >= f.max_level
        }
        for b in sorted(closure, key=lambda x: (x.level, x.coords)):
            f.refine(b)
        assert is_two_one_balanced(f)


class TestApplyTags:
    def test_refine_wins_over_coarsen(self):
        f = OctreeForest(RootGrid((2, 2)), max_level=2)
        kids = f.refine(BlockIndex(0, (0, 0)))
        n_ref, n_coarse = apply_block_tags(f, refine={kids[0]}, coarsen=set(kids[1:]))
        assert n_ref == 1
        assert n_coarse == 0  # sibling set incomplete once kids[0] refined
        f.validate()

    def test_full_sibling_coarsen(self):
        f = OctreeForest(RootGrid((2, 2)), max_level=2)
        kids = f.refine(BlockIndex(0, (0, 0)))
        n_ref, n_coarse = apply_block_tags(f, coarsen=set(kids))
        assert (n_ref, n_coarse) == (0, 1)
        assert BlockIndex(0, (0, 0)) in f

    def test_unsafe_coarsen_skipped(self):
        # Coarsening next to a freshly refined region would violate 2:1.
        f = OctreeForest(RootGrid((2, 2)), max_level=3)
        left = f.refine(BlockIndex(0, (0, 0)))
        right = f.refine(BlockIndex(0, (1, 0)))
        # Refine the left block's right children to level 2, then ask to
        # merge the right block back while tagging its left-adjacent fine
        # neighbors for refinement.
        n_ref, n_coarse = apply_block_tags(
            f,
            refine={left[1], left[3]},  # children on the x+ side -> level 2
            coarsen=set(right),
        )
        # The two tagged refinements cascade into the two level-0 blocks
        # diagonally/face-adjacent to left[3] (2:1 closure).
        assert n_ref == 4
        assert n_coarse == 0  # merging would abut level-2 leaves at level 0
        assert is_two_one_balanced(f)

    @given(st.integers(0, 40))
    def test_apply_random_tags_preserves_validity_and_balance(self, seed):
        f = OctreeForest(RootGrid((2, 2)), max_level=3)
        rng = np.random.default_rng(seed)
        for _ in range(4):
            leaves = sorted(f.leaves(), key=lambda b: (b.level, b.coords))
            refine = {
                b for b in leaves
                if b.level < f.max_level and rng.random() < 0.3
            }
            coarsen = {
                b for b in leaves
                if b.level > 0 and b not in refine and rng.random() < 0.4
            }
            apply_block_tags(f, refine=refine, coarsen=coarsen)
            f.validate()
            assert is_two_one_balanced(f)


class TestTagByPredicate:
    def test_predicates(self):
        f = OctreeForest(RootGrid((2, 2)), max_level=1)
        f.refine(BlockIndex(0, (1, 1)))
        tags = tag_by_predicate(
            f,
            should_refine=lambda b: b.coords == (0, 0),
            should_coarsen=lambda b: b.level > 0,
        )
        assert set(blocks_of_keys(tags.refine, 2)) == {BlockIndex(0, (0, 0))}
        assert len(tags.coarsen) == 4

    def test_max_level_not_tagged_for_refine(self):
        f = OctreeForest(RootGrid((2, 2)), max_level=0)
        tags = tag_by_predicate(f, should_refine=lambda b: True)
        assert tags.refine.size == 0
