"""Keyed per-block state against the original dict-backed versions.

``BlockCostTracker`` and ``carry_assignment`` keep per-block state in
sorted arrays of packed block keys.  These properties drive both the
keyed code and a dict reference (the pre-key implementation, kept here
verbatim in behavior) through random refine/coarsen histories and
require bit-identical estimates and carried owners.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr import BlockCostTracker, carry_assignment
from repro.amr.redistribution import carry_assignment_keys
from repro.mesh import AmrMesh, BlockIndex, RefinementTags, RootGrid


class DictTracker:
    """The dict-backed tracker the keyed one replaced."""

    def __init__(self, alpha=0.5, default_cost=1.0):
        self.alpha = alpha
        self.default_cost = default_cost
        self.est = {}

    def observe(self, index, measured_cost):
        if measured_cost < 0:
            raise ValueError("measured cost must be >= 0")
        prev = self.est.get(index)
        if prev is None:
            self.est[index] = measured_cost
        else:
            self.est[index] = (1 - self.alpha) * prev + self.alpha * measured_cost

    def estimate(self, index):
        est = self.est.get(index)
        if est is not None:
            return est
        probe = index
        while probe.level > 0:
            probe = probe.parent()
            est = self.est.get(probe)
            if est is not None:
                return est
        return self.default_cost


def dict_carry(old_blocks, old_assignment, new_blocks):
    """The dict-backed carry_assignment the keyed one replaced."""
    owner = {b: int(r) for b, r in zip(old_blocks, old_assignment)}
    out = np.full(len(new_blocks), -1, dtype=np.int64)
    for i, b in enumerate(new_blocks):
        r = owner.get(b)
        if r is None and b.level > 0:
            r = owner.get(b.parent())
        if r is None:
            r = owner.get(b.children()[0])
        if r is not None:
            out[i] = r
    return out


def random_tags(mesh, rng):
    leaves = mesh.blocks
    refine = {
        b for b in leaves
        if b.level < mesh.forest.max_level and rng.random() < 0.2
    }
    coarsen = {
        b for b in leaves
        if b.level > 0 and b not in refine and rng.random() < 0.5
    }
    return RefinementTags(refine=refine, coarsen=coarsen)


def history(seed, dim, n_epochs=5):
    """(blocks, keys) of a mesh over a random refine/coarsen history."""
    rng = np.random.default_rng(seed)
    shape = tuple(int(rng.integers(1, 4)) for _ in range(dim))
    mesh = AmrMesh(RootGrid(shape), max_level=3)
    out = []
    for _ in range(n_epochs):
        out.append((list(mesh.blocks), mesh.keys()))
        mesh.remesh(random_tags(mesh, rng))
    return rng, out


class TestTrackerParity:
    @given(st.integers(0, 10_000), st.sampled_from([2, 3]),
           st.sampled_from([0.5, 0.3, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_refine_coarsen_history(self, seed, dim, alpha):
        rng, epochs = history(seed, dim)
        keyed, ref = BlockCostTracker(alpha=alpha), DictTracker(alpha=alpha)
        for blocks, keys in epochs:
            # estimates before observing: refined children read their
            # parent's prior, merged parents their own old estimate
            want = [ref.estimate(b) for b in blocks]
            assert keyed.estimates_keys(keys, dim).tolist() == want
            measured = rng.lognormal(size=len(blocks))
            keyed.observe_keys(keys, measured, dim)
            for b, m in zip(blocks, measured):
                ref.observe(b, float(m))
            assert keyed.estimates(blocks).tolist() == [
                ref.estimate(b) for b in blocks
            ]
            assert keyed.state() == ref.est
            assert len(keyed) == len(ref.est)

    @given(st.lists(st.tuples(st.integers(0, 3), st.floats(0, 10)),
                    min_size=1, max_size=30))
    def test_repeated_blocks_fold_in_order(self, obs):
        blocks = [BlockIndex(1, (i, 0)) for i, _ in obs]
        measured = np.asarray([m for _, m in obs])
        keyed, ref = BlockCostTracker(), DictTracker()
        keyed.observe_all(blocks, measured)
        for b, m in zip(blocks, measured):
            ref.observe(b, float(m))
        assert keyed.state() == ref.est

    def test_parent_prior_walks_up_levels(self):
        t = BlockCostTracker(default_cost=7.0)
        root = BlockIndex(0, (1, 0, 1))
        t.observe(root, 4.0)
        grandchild = root.children()[3].children()[5]
        assert t.estimate(grandchild) == 4.0
        assert t.estimate(BlockIndex(2, (0, 0, 0))) == 7.0

    def test_negative_cost_leaves_state_untouched(self):
        t = BlockCostTracker()
        blocks = [BlockIndex(0, (i, 0)) for i in range(4)]
        t.observe_all(blocks, [1.0, 2.0, 3.0, 4.0])
        before = t.state()
        with pytest.raises(ValueError):
            t.observe_all(blocks + [BlockIndex(0, (9, 9))],
                          [5.0, 5.0, -1.0, 5.0, 5.0])
        assert t.state() == before

    def test_state_round_trip(self):
        t = BlockCostTracker()
        blocks = [BlockIndex(1, (i, 1, 0)) for i in range(5)]
        t.observe_all(blocks, np.arange(5.0))
        clone = BlockCostTracker()
        clone.load_state(t.state())
        assert clone.state() == t.state()
        assert clone.estimates(blocks).tolist() == t.estimates(blocks).tolist()
        clone.forget_except(set(blocks[:2]))
        assert set(clone.state()) == set(blocks[:2])

    def test_mixed_dimensions_rejected(self):
        t = BlockCostTracker()
        t.observe(BlockIndex(0, (0, 0)), 1.0)
        with pytest.raises(ValueError):
            t.observe(BlockIndex(0, (0, 0, 0)), 1.0)


class TestCarryParity:
    @given(st.integers(0, 10_000), st.sampled_from([1, 2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_refine_coarsen_history(self, seed, dim):
        rng, epochs = history(seed, dim)
        for (old, old_keys), (new, new_keys) in zip(epochs, epochs[1:]):
            assignment = rng.integers(0, 8, size=len(old))
            want = dict_carry(old, assignment, new)
            assert carry_assignment(old, assignment, new).tolist() == want.tolist()
            got = carry_assignment_keys(old_keys, assignment, new_keys, dim)
            assert got.tolist() == want.tolist()

    @given(st.integers(0, 10_000))
    def test_arbitrary_block_sets(self, seed):
        """Unrelated old/new sets (repeats included): last owner wins."""
        rng = np.random.default_rng(seed)

        def some_blocks(n):
            return [
                BlockIndex(int(lv), tuple(int(c) for c in rng.integers(0, 2 << lv, 2)))
                for lv in rng.integers(0, 3, size=n)
            ]

        old, new = some_blocks(int(rng.integers(0, 30))), some_blocks(30)
        assignment = rng.integers(0, 5, size=len(old))
        want = dict_carry(old, assignment, new)
        assert carry_assignment(old, assignment, new).tolist() == want.tolist()

    def test_empty_sides(self):
        b = [BlockIndex(0, (0, 0))]
        assert carry_assignment([], np.empty(0, dtype=np.int64), b).tolist() == [-1]
        assert carry_assignment(b, np.array([3]), []).tolist() == []
