"""Keyed per-block state against the original dict-backed versions.

``BlockCostTracker`` and ``carry_assignment_keys`` keep per-block state
in sorted arrays of packed block keys.  These properties drive both the
keyed code and a dict reference (the pre-key implementation, kept here
verbatim in behavior) through random refine/coarsen histories and
require bit-identical estimates and carried owners.  Blocks are packed
into keys at the test edge with ``block_keys``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr import BlockCostTracker, carry_assignment_keys
from repro.mesh import AmrMesh, BlockIndex, RootGrid, block_keys

from tests.helpers import block_tags


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


def keyed_table(tracker):
    """The tracker's estimate table as ``{key: estimate}``."""
    keys, values, _ = tracker.state()
    return dict(zip(keys.tolist(), values.tolist()))


def dict_table(ref):
    """The reference's estimate table, keyed like :func:`keyed_table`."""
    return dict(zip(block_keys(ref.est).tolist(), ref.est.values()))


def carry(old_blocks, old_assignment, new_blocks):
    """``carry_assignment_keys`` over blocks packed at the test edge."""
    return carry_assignment_keys(
        block_keys(old_blocks), old_assignment, block_keys(new_blocks),
        (old_blocks or new_blocks)[0].dim,
    )


def dict_carry(old_blocks, old_assignment, new_blocks):
    """The dict-backed carry the keyed one replaced."""
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
    return block_tags(refine, coarsen)


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
            assert keyed.estimates_keys(keys, dim).tolist() == [
                ref.estimate(b) for b in blocks
            ]
            assert keyed_table(keyed) == dict_table(ref)
            assert len(keyed) == len(ref.est)

    @given(st.lists(st.tuples(st.integers(0, 3), st.floats(0, 10)),
                    min_size=1, max_size=30))
    def test_repeated_blocks_fold_in_order(self, obs):
        blocks = [BlockIndex(1, (i, 0)) for i, _ in obs]
        measured = np.asarray([m for _, m in obs])
        keyed, ref = BlockCostTracker(), DictTracker()
        keyed.observe_keys(block_keys(blocks), measured, 2)
        for b, m in zip(blocks, measured):
            ref.observe(b, float(m))
        assert keyed_table(keyed) == dict_table(ref)

    def test_parent_prior_walks_up_levels(self):
        t = BlockCostTracker(default_cost=7.0)
        root = BlockIndex(0, (1, 0, 1))
        t.observe_keys(block_keys([root]), [4.0], 3)
        grandchild = root.children()[3].children()[5]
        probes = block_keys([grandchild, BlockIndex(2, (0, 0, 0))])
        assert t.estimates_keys(probes, 3).tolist() == [4.0, 7.0]

    def test_negative_cost_leaves_state_untouched(self):
        t = BlockCostTracker()
        blocks = [BlockIndex(0, (i, 0)) for i in range(4)]
        t.observe_keys(block_keys(blocks), [1.0, 2.0, 3.0, 4.0], 2)
        before = keyed_table(t)
        with pytest.raises(ValueError):
            t.observe_keys(block_keys(blocks + [BlockIndex(0, (9, 9))]),
                           [5.0, 5.0, -1.0, 5.0, 5.0], 2)
        assert keyed_table(t) == before

    def test_state_round_trip(self):
        t = BlockCostTracker()
        blocks = [BlockIndex(1, (i, 1, 0)) for i in range(5)]
        keys = block_keys(blocks)
        t.observe_keys(keys, np.arange(5.0), 3)
        clone = BlockCostTracker()
        clone.load_state(t.state())
        (ck, cv, cdim), (tk, tv, tdim) = clone.state(), t.state()
        assert ck.tolist() == tk.tolist() and cv.tolist() == tv.tolist()
        assert cdim == tdim == 3
        assert (clone.estimates_keys(keys, 3).tolist()
                == t.estimates_keys(keys, 3).tolist())

    def test_mixed_dimensions_rejected(self):
        t = BlockCostTracker()
        t.observe_keys(block_keys([BlockIndex(0, (0, 0))]), [1.0], 2)
        with pytest.raises(ValueError):
            t.observe_keys(block_keys([BlockIndex(0, (0, 0, 0))]), [1.0], 3)


class TestCarryParity:
    @given(st.integers(0, 10_000), st.sampled_from([1, 2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_refine_coarsen_history(self, seed, dim):
        rng, epochs = history(seed, dim)
        for (old, old_keys), (new, new_keys) in zip(epochs, epochs[1:]):
            assignment = rng.integers(0, 8, size=len(old))
            want = dict_carry(old, assignment, new)
            assert carry(old, assignment, new).tolist() == want.tolist()
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
        assert carry(old, assignment, new).tolist() == want.tolist()

    def test_empty_sides(self):
        b = [BlockIndex(0, (0, 0))]
        assert carry([], np.empty(0, dtype=np.int64), b).tolist() == [-1]
        assert carry(b, np.array([3]), []).tolist() == []
