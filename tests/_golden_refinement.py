"""Frozen block-by-block remesh: the golden reference for key-native tags.

Verbatim copies of ``enforce_two_one_balance``, ``_coarsen_is_safe`` and
``apply_tags`` from ``repro.mesh.refinement`` as they stood before the
remesh moved to packed block keys (commit c3dea33), with the public
names prefixed ``golden_``.  They probe one block at a time through the
reference :func:`~repro.mesh.neighbors.find_neighbors` and accept
coarsen merges greedily in ``(level, coords)`` order.
``tests/test_mesh_remesh_parity.py`` asserts that the key-native
``apply_tags`` leaves the same leaf set and returns the same counts.

Do not "fix" or modernize this module: its value is that it does not
change when the live code does.  The one forced change: the library's
``RefinementTags`` now holds key arrays, so ``golden_apply_tags`` takes
the refine and coarsen ``BlockIndex`` sets directly.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.mesh.geometry import BlockIndex
from repro.mesh.neighbors import find_neighbors
from repro.mesh.octree import OctreeForest


def golden_enforce_two_one_balance(
    forest: OctreeForest, to_refine: Set[BlockIndex]
) -> Set[BlockIndex]:
    """Close a refinement set under the 2:1 balance constraint.

    Given leaves already selected for refinement, returns a superset such
    that refining all of them leaves the forest 2:1 balanced.  Uses the
    standard ripple propagation: refining a block at level ``L`` forces
    any neighboring leaf at level ``L-1`` or coarser to refine too, which
    may cascade.

    Each touched block is probed exactly once (a visited set covers
    blocks that can never enter the result, e.g. max-level leaves
    repeatedly rediscovered by their neighbors), and probes share one
    depth limit, so closure cost is linear in the touched region rather
    than O(touched x n).

    The input forest must already be 2:1 balanced.
    """
    result: Set[BlockIndex] = set()
    seen: Set[BlockIndex] = set()
    depth_limit = forest.max_level
    # Effective level of each region after refinement = leaf level + 1 if
    # refined.  Work queue of blocks whose refinement may force neighbors.
    queue: List[BlockIndex] = [b for b in to_refine if b in forest]
    pending = set(queue)
    while queue:
        b = queue.pop()
        pending.discard(b)
        if b in seen:
            continue
        seen.add(b)
        if b.level >= forest.max_level:
            continue
        result.add(b)
        # After refining b, its children are at b.level + 1.  Any leaf
        # neighbor at level <= b.level - 1 would now differ by >= 2.
        for nb in find_neighbors(forest, b, depth_limit=depth_limit):
            if nb.level < b.level and nb not in seen and nb not in pending:
                pending.add(nb)
                queue.append(nb)
    return result


def golden_coarsen_is_safe(
    forest: OctreeForest,
    parent: BlockIndex,
    refined: Set[BlockIndex],
    coarsened_parents: Set[BlockIndex],
) -> bool:
    """Whether coarsening ``parent``'s children keeps 2:1 balance.

    The merged parent sits at ``parent.level``; every region adjacent to
    it must end at level ``<= parent.level + 1``.  We check the *post-op*
    level of each adjacent leaf: +1 if it is being refined, -1 if its
    sibling set is being merged.
    """
    children = parent.children()
    depth_limit = forest.max_level
    for child in children:
        for nb in find_neighbors(forest, child, depth_limit=depth_limit):
            if nb in children:
                continue
            lvl = nb.level
            if nb in refined:
                lvl += 1
            elif nb.level > 0 and nb.parent() in coarsened_parents:
                lvl -= 1
            if lvl - parent.level > 1:
                return False
    return True


def golden_apply_tags(
    forest: OctreeForest, tags_refine: Set[BlockIndex], tags_coarsen: Set[BlockIndex]
) -> Tuple[int, int]:
    """Apply tags to the forest in place; returns ``(n_refined, n_coarsened)``.

    Refinement wins over coarsening: the refine set is first closed under
    2:1 balance, then coarsening is applied only to full sibling sets
    whose merge does not violate balance against the post-refinement mesh.
    """
    refine = golden_enforce_two_one_balance(forest, set(tags_refine))

    # Candidate coarsen parents: all 2^dim siblings tagged, none refined.
    by_parent: Dict[BlockIndex, Set[BlockIndex]] = {}
    for b in tags_coarsen:
        if b in forest and b.level > 0 and b not in refine:
            by_parent.setdefault(b.parent(), set()).add(b)
    full = 1 << forest.dim
    candidates = {
        p for p, kids in by_parent.items()
        if len(kids) == full and not any(k in refine for k in p.children())
    }

    # Greedily accept merges that stay balanced (order-stable via sort).
    accepted: Set[BlockIndex] = set()
    for p in sorted(candidates, key=lambda x: (x.level, x.coords)):
        if golden_coarsen_is_safe(forest, p, refine, accepted):
            accepted.add(p)

    refined = sorted(refine, key=lambda x: (x.level, x.coords))
    coarsened = sorted(accepted, key=lambda x: (x.level, x.coords))

    for b in refined:
        forest.refine(b)
    for p in coarsened:
        forest.coarsen(p.children()[0])
    return len(refined), len(coarsened)
