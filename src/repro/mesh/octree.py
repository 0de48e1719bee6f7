"""Forest-of-octrees representation of a block-structured AMR mesh.

Each level-0 block of the :class:`~repro.mesh.geometry.RootGrid` is the
root of an octree (quadtree in 2D).  Only *leaves* participate in the
simulation (paper §V-A1).  Refining a leaf replaces it with its ``2^dim``
Morton-ordered children; coarsening replaces a full sibling set with the
parent.

The forest stores the leaf set explicitly (hash set of
:class:`BlockIndex`) — the tree structure is implicit in the index
arithmetic, which keeps refine/coarsen O(1) per block and makes the
structure trivially serializable.  Depth-first traversal for block-ID
assignment is the Morton sort in :mod:`repro.mesh.sfc`, which visits
leaves in exactly the order a recursive descent would.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Set

from .geometry import BlockIndex, RootGrid
from .sfc import sfc_sort_blocks

__all__ = ["OctreeForest"]


class OctreeForest:
    """Leaf-set octree forest with refine/coarsen operations.

    Parameters
    ----------
    root:
        Root grid (level-0 decomposition).
    max_level:
        Maximum refinement depth allowed (relative to level 0).
    """

    def __init__(self, root: RootGrid, max_level: int = 10) -> None:
        if max_level < 0:
            raise ValueError("max_level must be >= 0")
        self.root = root
        self.max_level = max_level
        self._leaves: Set[BlockIndex] = set(root.root_blocks())

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #

    @property
    def dim(self) -> int:
        return self.root.dim

    @property
    def n_leaves(self) -> int:
        return len(self._leaves)

    def is_leaf(self, idx: BlockIndex) -> bool:
        return idx in self._leaves

    def leaves(self) -> Iterator[BlockIndex]:
        """Iterate leaves in arbitrary (hash) order."""
        return iter(self._leaves)

    def find_covering_leaf(self, idx: BlockIndex) -> BlockIndex | None:
        """Return the leaf equal to or an ancestor of ``idx``, if any."""
        if not self.root.contains(idx):
            return None
        probe = idx
        while True:
            if probe in self._leaves:
                return probe
            if probe.level == 0:
                return None
            probe = probe.parent()

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def refine(self, idx: BlockIndex) -> List[BlockIndex]:
        """Split a leaf into its ``2^dim`` children; returns the children."""
        if idx not in self._leaves:
            raise KeyError(f"{idx} is not a leaf")
        if idx.level >= self.max_level:
            raise ValueError(f"refinement beyond max_level={self.max_level}")
        self._leaves.discard(idx)
        kids = list(idx.children())
        self._leaves.update(kids)
        return kids

    def coarsen(self, idx: BlockIndex) -> BlockIndex:
        """Merge the full sibling set containing ``idx`` into its parent.

        All ``2^dim`` siblings must currently be leaves, otherwise the
        operation would create an overlapping leaf set.
        """
        if idx.level == 0:
            raise ValueError("cannot coarsen a root block")
        parent = idx.parent()
        sibs = parent.children()
        missing = [s for s in sibs if s not in self._leaves]
        if missing:
            raise ValueError(f"cannot coarsen {idx}: siblings {missing} are not leaves")
        for s in sibs:
            self._leaves.discard(s)
        self._leaves.add(parent)
        return parent

    def can_coarsen(self, idx: BlockIndex) -> bool:
        if idx.level == 0:
            return False
        return all(s in self._leaves for s in idx.parent().children())

    # ------------------------------------------------------------------ #
    # traversal / ordering
    # ------------------------------------------------------------------ #

    def leaves_dfs(self) -> List[BlockIndex]:
        """Leaves in depth-first (Morton-child) traversal order.

        This is the canonical block-ID order used by placement: root trees
        are visited in Morton order of the root coordinates, and within a
        tree children are visited in Morton order, which is exactly the
        Z-order SFC (paper Fig. 5).  The traversal is computed as one
        batched Morton sort of the leaf set (DFS order == sorted
        ``morton_key`` order is property-tested against a recursive
        descent), so the returned list holds the forest's own leaf
        objects rather than freshly built indices.
        """
        return sfc_sort_blocks(self._leaves)

    def block_ids(self) -> Dict[BlockIndex, int]:
        """Map each leaf to its sequential block ID along the SFC."""
        return {b: i for i, b in enumerate(self.leaves_dfs())}

    # ------------------------------------------------------------------ #
    # validation / construction
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Check the leaf set is a non-overlapping exact cover of the domain.

        Raises ``AssertionError`` on violation.  Cost is O(n log n); meant
        for tests and debugging, not hot paths.
        """
        # Exact cover <=> total measure equals domain measure and no two
        # leaves overlap.  Measure at max_level resolution:
        total = 0
        max_lvl = max((b.level for b in self._leaves), default=0)
        for b in self._leaves:
            assert self.root.contains(b), f"leaf {b} outside domain"
            total += 1 << (self.dim * (max_lvl - b.level))
        domain_cells = self.root.n_root_blocks * (1 << (self.dim * max_lvl))
        assert total == domain_cells, f"leaf measure {total} != domain {domain_cells}"
        # No overlap: no leaf may be an ancestor of another.
        for b in self._leaves:
            probe = b
            while probe.level > 0:
                probe = probe.parent()
                assert probe not in self._leaves, f"{probe} overlaps leaf {b}"

    def copy(self) -> "OctreeForest":
        clone = OctreeForest(self.root, self.max_level)
        clone._leaves = set(self._leaves)
        return clone

    @classmethod
    def from_leaves(
        cls, root: RootGrid, leaves: Iterable[BlockIndex], max_level: int = 10
    ) -> "OctreeForest":
        """Build a forest from an explicit leaf set (validated)."""
        forest = cls(root, max_level)
        forest._leaves = set(leaves)
        forest.validate()
        return forest

    def __len__(self) -> int:
        return len(self._leaves)

    def __contains__(self, idx: BlockIndex) -> bool:
        return idx in self._leaves

    def __repr__(self) -> str:
        lvls: Dict[int, int] = {}
        for b in self._leaves:
            lvls[b.level] = lvls.get(b.level, 0) + 1
        return (
            f"OctreeForest(dim={self.dim}, root={self.root.shape}, "
            f"leaves={len(self._leaves)}, levels={dict(sorted(lvls.items()))})"
        )
