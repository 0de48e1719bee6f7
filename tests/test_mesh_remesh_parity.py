"""Key-native remesh against the frozen block-by-block reference.

``apply_tags`` resolves tags, the 2:1 closure and coarsen safety with
batched key lookups; ``tests/_golden_refinement.py`` keeps the
per-block ``find_neighbors`` version it replaced.  On random 2:1-balanced
forests both must leave the same leaf set and report the same counts.
The default Sedov trajectory, which every remesh and neighbor-graph
change flows into, is pinned by digest.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import BlockIndex, OctreeForest, RefinementTags, RootGrid
from repro.mesh.refinement import apply_tags, is_two_one_balanced

from tests._golden_refinement import golden_apply_tags
from tests.helpers import block_tags, leaf_table


def random_block_tags(forest, rng, p_refine, p_coarsen):
    """Refine and coarsen tag sets over the leaves.

    Refine tags may name max-level leaves (which cannot refine).  Coarsen
    tags favor complete sibling sets, so the closure often refines a
    tagged sibling, and merges often abut refined regions.
    """
    leaves = sorted(forest.leaves(), key=lambda b: (b.level, b.coords))
    refine = {b for b in leaves if rng.random() < p_refine}
    coarsen = set()
    for b in leaves:
        if b.level == 0 or b in refine or rng.random() >= p_coarsen:
            continue
        if rng.random() < 0.7:
            coarsen.update(s for s in b.parent().children() if s in forest)
        else:
            coarsen.add(b)
    return refine, coarsen - refine


@st.composite
def balanced_forests(draw, dim):
    """A random 2:1-balanced forest, grown by the reference remesh."""
    shape = tuple(draw(st.integers(1, 3 if dim == 2 else 2)) for _ in range(dim))
    periodic = tuple(draw(st.booleans()) for _ in range(dim))
    max_level = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    forest = OctreeForest(RootGrid(shape, periodic=periodic), max_level=max_level)
    for _ in range(draw(st.integers(0, 3))):
        golden_apply_tags(forest, *random_block_tags(forest, rng, 0.3, 0.3))
    return forest, rng


def assert_same_remesh(forest, refine, coarsen):
    ref = forest.copy()
    expected = golden_apply_tags(ref, refine, coarsen)
    got = apply_tags(forest, leaf_table(forest), block_tags(refine, coarsen))
    assert got == expected
    assert set(forest.leaves()) == set(ref.leaves())


class TestApplyTagsParity:
    @given(balanced_forests(2), st.sampled_from([0.0, 0.1, 0.4]),
           st.sampled_from([0.0, 0.3, 0.8]))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_2d(self, case, p_refine, p_coarsen):
        forest, rng = case
        assert is_two_one_balanced(forest)
        assert_same_remesh(forest, *random_block_tags(forest, rng, p_refine, p_coarsen))

    @given(balanced_forests(3), st.sampled_from([0.0, 0.05, 0.2]),
           st.sampled_from([0.0, 0.3, 0.8]))
    @settings(max_examples=20, deadline=None)
    def test_matches_reference_3d(self, case, p_refine, p_coarsen):
        forest, rng = case
        assert_same_remesh(forest, *random_block_tags(forest, rng, p_refine, p_coarsen))

    def test_empty_tags(self):
        for periodic in (False, True):
            f = OctreeForest(RootGrid((2, 2, 2), periodic=(periodic,) * 3), max_level=2)
            f.refine(BlockIndex(0, (0, 0, 0)))
            assert_same_remesh(f, set(), set())
            assert apply_tags(f, leaf_table(f), RefinementTags()) == (0, 0)

    def test_max_level_refine_tags_are_dropped(self):
        f = OctreeForest(RootGrid((2, 2)), max_level=1)
        kids = f.refine(BlockIndex(0, (0, 0)))
        assert_same_remesh(f, {kids[3], BlockIndex(0, (1, 1))}, set())
        assert BlockIndex(1, (1, 1)) in f and BlockIndex(1, (2, 2)) in f

    def test_coarsen_tags_on_a_refined_sibling_set(self):
        # The closure refines one tagged sibling, so the set cannot merge.
        f = OctreeForest(RootGrid((2, 2)), max_level=3)
        for root in list(f.leaves()):
            f.refine(root)
        f.refine(BlockIndex(1, (1, 1)))
        assert is_two_one_balanced(f)
        siblings = set(BlockIndex(0, (1, 0)).children())
        assert_same_remesh(f, {BlockIndex(2, (3, 3))}, siblings)
        assert BlockIndex(1, (2, 1)) not in f  # refined by the closure
        assert BlockIndex(0, (1, 0)) not in f


#: SHA-256 of the default ``repro sedov`` trajectory (512 ranks, 1500
#: steps): per-epoch keys, graph edges and kinds, base costs, step
#: counts and refine/coarsen counts.
SEDOV_DEFAULT_DIGEST = "fb8edb92829358e91cfc6803c4468952ddab7615e4392a9cdd5b77572a4ebd10"


def trajectory_digest(epochs) -> str:
    h = hashlib.sha256()
    for e in epochs:
        for arr, dtype in ((e.keys, "<i8"), (e.graph.edges, "<i8"),
                           (e.graph.kinds, "i1"), (e.base_costs, "<f8")):
            h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
        h.update(np.asarray([e.n_steps, e.n_refined, e.n_coarsened], dtype="<i8").tobytes())
    return h.hexdigest()


def test_default_sedov_trajectory_pinned():
    from repro.amr.sedov import SedovWorkload
    from repro.service import spec_from_params

    config = spec_from_params("sedov", {}).config.sedov_config(512)
    epochs = SedovWorkload(config).full_trajectory()
    assert (len(epochs), epochs[-1].keys.size) == (66, 2808)
    assert trajectory_digest(epochs) == SEDOV_DEFAULT_DIGEST
