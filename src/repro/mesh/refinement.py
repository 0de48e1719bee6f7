"""Refinement tagging and 2:1 balance enforcement.

AMR codes tag blocks for refinement when a physical criterion (e.g. a
solution gradient) exceeds a threshold, and for coarsening when a region
becomes smooth (paper §II-B).  Applying raw tags can violate the *2:1
balance* invariant — adjacent leaves differing by more than one
refinement level — which block-based codes require so each face abuts at
most ``2^(dim-1)`` neighbors.  This module converts tags into a legal
sequence of refine/coarsen operations.

Tags, the balance closure and the coarsen-safety check work on packed
``int64`` block keys (:mod:`repro.mesh.keys`) resolved in batches
against the leaf :class:`~repro.mesh.keys.KeyTable`; only the keys that
change are unpacked to refine or coarsen the forest.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, Tuple

import numpy as np

from .geometry import BlockIndex
from .keys import (
    KeyTable,
    block_keys,
    blocks_of_keys,
    key_levels,
    neighbor_probes,
    parent_keys,
    unpack_keys,
)
from .neighbors import _directions, find_neighbors
from .octree import OctreeForest

__all__ = [
    "RefinementTags",
    "enforce_two_one_balance",
    "apply_tags",
    "is_two_one_balanced",
]


def _no_keys() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


def _unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct keys (a plain sort: faster than ``np.unique``'s
    hashing on key arrays)."""
    keys = np.sort(keys)
    first = np.ones(keys.shape[0], dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


@dataclasses.dataclass
class RefinementTags:
    """Packed keys of leaves tagged for refinement and coarsening.

    Tags are advisory: :func:`apply_tags` drops coarsening tags that
    would break sibling completeness or 2:1 balance, and adds refinement
    beyond the tag set where balance requires it.
    """

    refine: np.ndarray = dataclasses.field(default_factory=_no_keys)
    coarsen: np.ndarray = dataclasses.field(default_factory=_no_keys)

    def __post_init__(self) -> None:
        self.refine = np.asarray(self.refine, dtype=np.int64).reshape(-1)
        self.coarsen = np.asarray(self.coarsen, dtype=np.int64).reshape(-1)
        overlap = np.isin(self.refine, self.coarsen)
        if overlap.any():
            raise ValueError(
                f"keys tagged both refine and coarsen: {self.refine[overlap]}"
            )


def is_two_one_balanced(forest: OctreeForest) -> bool:
    """Whether every neighbor pair differs by at most one level."""
    for b in forest.leaves():
        for nb in find_neighbors(forest, b):
            if abs(nb.level - b.level) > 1:
                return False
    return True


def _coarser_neighbors(
    forest: OctreeForest, table: KeyTable, keys: np.ndarray
) -> np.ndarray:
    """Sorted keys of the leaves one level coarser than, and adjacent
    to, the given leaves: the probes' parents found in the table."""
    dim = forest.dim
    coords, levels = unpack_keys(keys, dim)
    offsets = np.asarray(_directions(dim), dtype=np.int64)
    _, _, probes = neighbor_probes(forest.root, coords, levels, offsets)
    probes = probes[key_levels(probes) > 0]
    found = table.find(parent_keys(probes, dim))
    return _unique(table.keys[found[found >= 0]])


def enforce_two_one_balance(
    forest: OctreeForest, table: KeyTable, to_refine: np.ndarray
) -> np.ndarray:
    """Close a refinement set under the 2:1 balance constraint.

    ``table`` holds the forest's leaf keys and ``to_refine`` the keys
    selected for refinement (keys that are not leaves are ignored).
    Returns the sorted keys of a superset such that refining all of them
    leaves the forest 2:1 balanced.  Uses the standard ripple
    propagation: refining a block at level ``L`` forces any neighboring
    leaf at level ``L-1`` to refine too, which may cascade.  Each round
    probes the whole frontier in one batch; a block enters the frontier
    at most once, and max-level blocks neither refine nor propagate.

    The input forest must already be 2:1 balanced.
    """
    frontier = _unique(np.asarray(to_refine, dtype=np.int64))
    frontier = frontier[table.find(frontier) >= 0]
    seen = frontier
    rounds = [_no_keys()]
    while frontier.size:
        frontier = frontier[key_levels(frontier) < forest.max_level]
        rounds.append(frontier)
        frontier = np.setdiff1d(
            _coarser_neighbors(forest, table, frontier), seen, assume_unique=True
        )
        seen = _unique(np.concatenate([seen, frontier]))
    return _unique(np.concatenate(rounds))


def _ring_offsets(dim: int) -> np.ndarray:
    """Offsets, from a parent's first child, of the child-level cells
    around the parent (``{-1..2}^dim`` minus the children themselves)."""
    ring = [
        o for o in itertools.product((-1, 0, 1, 2), repeat=dim)
        if any(v in (-1, 2) for v in o)
    ]
    return np.asarray(ring, dtype=np.int64)


def _coarsen_safe(
    forest: OctreeForest, table: KeyTable, parents: np.ndarray, refine: np.ndarray
) -> np.ndarray:
    """Mask of candidate parents whose merge keeps 2:1 balance.

    A parent at level ``L`` merges its children (leaves at ``L+1``); the
    merge is unsafe if a leaf adjacent to the parent ends up at level
    ``L+2`` or finer: a neighbor already at ``L+2`` (its child-level
    cell does not resolve at ``L+1`` or ``L``), or one at ``L+1`` that is
    being refined.  Other merges cannot rescue a verdict: a neighbor at
    ``L+2`` only coarsens through a parent at ``L+1``, never a
    candidate checked before this one in ``(level, coords)`` order, so
    all candidates are checked in one pass.
    """
    dim = forest.dim
    coords, levels = unpack_keys(parents, dim)
    src, _, probes = neighbor_probes(
        forest.root, coords << 1, levels + 1, _ring_offsets(dim)
    )
    rows, leaves, unsafe = table.resolve(probes, dim)
    hit = table.keys[leaves]
    same_level = key_levels(hit) == key_levels(probes[rows])
    unsafe[rows[same_level]] |= np.isin(hit[same_level], refine)
    ok = np.ones(parents.shape[0], dtype=bool)
    ok[src[unsafe]] = False
    return ok


def apply_tags(
    forest: OctreeForest, table: KeyTable, tags: RefinementTags
) -> Tuple[int, int]:
    """Apply tags to the forest in place; returns ``(n_refined, n_coarsened)``.

    ``table`` holds the forest's leaf keys.  Refinement wins over
    coarsening: the refine set is first closed under 2:1 balance, then
    coarsening is applied only to full sibling sets none of which is
    refined and whose merge does not violate balance against the
    post-refinement mesh.
    """
    dim = forest.dim
    refine = enforce_two_one_balance(forest, table, tags.refine)

    # Candidate coarsen parents: all 2^dim children tagged, none refined.
    kids = _unique(tags.coarsen)
    kids = kids[(key_levels(kids) > 0) & (table.find(kids) >= 0)]
    kids = kids[~np.isin(kids, refine)]
    parents, counts = np.unique(parent_keys(kids, dim), return_counts=True)
    parents = parents[counts == 1 << dim]
    parents = parents[_coarsen_safe(forest, table, parents, refine)]

    for b in blocks_of_keys(refine, dim):
        forest.refine(b)
    for p in blocks_of_keys(parents, dim):
        forest.coarsen(p.children()[0])
    return int(refine.shape[0]), int(parents.shape[0])


def tag_by_predicate(
    forest: OctreeForest,
    should_refine: Callable[[BlockIndex], bool],
    should_coarsen: Callable[[BlockIndex], bool] | None = None,
) -> RefinementTags:
    """Build tags from per-block predicates (refine wins on conflict)."""
    refine, coarsen = [], []
    for b in forest.leaves():
        if b.level < forest.max_level and should_refine(b):
            refine.append(b)
        elif should_coarsen is not None and b.level > 0 and should_coarsen(b):
            coarsen.append(b)
    return RefinementTags(block_keys(refine), block_keys(coarsen))
