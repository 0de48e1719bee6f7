"""Vectorized neighbor-graph construction for 2:1-balanced forests.

The reference builder (:func:`repro.mesh.neighbors.build_neighbor_graph`)
probes each leaf's 26 directions with per-block Python recursion — fine
for tests, but it dominates trajectory generation at paper scale
(~9k blocks × hundreds of remesh events).  Profiling-first optimization,
per the repo's workflow: this module rebuilds the same graph from packed
block keys (:mod:`repro.mesh.keys`).

It exploits the 2:1 balance invariant production meshes maintain: every
neighbor of a level-``L`` leaf lives at level ``L-1``, ``L``, or
``L+1``, so every leaf's probes in every direction go through one
:meth:`~repro.mesh.keys.KeyTable.resolve` batch: three sorted-array
searches instead of per-block tree walks.  Forests that violate the
invariant are detected (an in-domain probe resolving at no candidate
level) and rejected.  Equivalence against the reference is
property-tested.
"""

from __future__ import annotations

import functools
from typing import List, Tuple

import numpy as np

from .geometry import BlockIndex, RootGrid
from .keys import KeyTable, block_keys, neighbor_probes, unpack_keys
from .neighbors import NeighborGraph, _directions
from .octree import OctreeForest

__all__ = [
    "UnbalancedForestError",
    "build_neighbor_graph_fast",
    "neighbor_graph_of_keys",
]


class UnbalancedForestError(ValueError):
    """The forest is not 2:1 balanced.

    :func:`~repro.mesh.refinement.apply_tags` never produces such a
    forest, so this means it was refined behind the mesh's back; the
    reference :func:`~repro.mesh.neighbors.build_neighbor_graph` still
    handles it.
    """


@functools.lru_cache(maxsize=None)
def _direction_tables(dim: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Probe offsets, their contact kinds, and facing-child masks.

    ``facing[j, c]`` is set when Morton child ``c`` of a probe in
    direction ``j`` touches the probing block: its offset is 0 where the
    direction is +1 and 1 where it is -1.
    """
    dirs = np.asarray(_directions(dim), dtype=np.int64)
    kinds = (dirs != 0).sum(axis=1).astype(np.int8)
    child_off = (np.arange(1 << dim)[:, None] >> np.arange(dim)) & 1
    facing = (
        ((dirs[:, None, :] != 1) | (child_off[None] == 0))
        & ((dirs[:, None, :] != -1) | (child_off[None] == 1))
    ).all(axis=2)
    for table in (dirs, kinds, facing):
        table.flags.writeable = False  # shared by every caller
    return dirs, kinds, facing


def neighbor_graph_of_keys(
    root: RootGrid,
    blocks: List[BlockIndex],
    coords: np.ndarray,
    levels: np.ndarray,
    table: KeyTable,
) -> NeighborGraph:
    """The neighbor graph of SFC-ordered leaves given as arrays.

    ``coords``/``levels`` describe ``blocks`` row by row and ``table``
    holds their keys in the same order.  Raises
    :class:`UnbalancedForestError` if any in-domain probe cannot be
    resolved at levels ``L-1 / L / L+1``.
    """
    n = len(blocks)
    dirs, dir_kinds, facing = _direction_tables(root.dim)
    src, off, probes = neighbor_probes(root, coords, levels, dirs)
    rows, dst, unresolved = table.resolve(probes, root.dim, facing[off])
    if unresolved.any():
        i = int(np.nonzero(unresolved)[0][0])
        raise UnbalancedForestError(
            f"unresolved probe at level {int(levels[src[i]])}, direction "
            f"{tuple(dirs[off[i]].tolist())}: forest is not 2:1 balanced"
        )
    src = src[rows]
    kinds = dir_kinds[off[rows]]
    keep = src != dst  # periodic self-contacts in degenerate domains
    src, dst, kinds = src[keep], dst[keep], kinds[keep]

    # Undirected dedup keeping the strongest (lowest) kind per pair: one
    # sort of (pair, kind) packed as ``pair * 4 + kind``, first per pair.
    pair = np.minimum(src, dst) * np.int64(n) + np.maximum(src, dst)
    packed = np.sort((pair << 2) | kinds)
    first = np.ones(packed.shape[0], dtype=bool)
    first[1:] = (packed[1:] >> 2) != (packed[:-1] >> 2)
    packed = packed[first]
    pair = packed >> 2
    edges = np.stack([pair // n, pair % n], axis=1)
    return NeighborGraph(blocks, edges, (packed & 3).astype(np.int8))


def build_neighbor_graph_fast(forest: OctreeForest) -> NeighborGraph:
    """Build the neighbor graph of a 2:1-balanced forest, vectorized.

    Raises :class:`UnbalancedForestError` if any in-domain probe cannot
    be resolved at levels ``L-1 / L / L+1`` — the signature of a forest
    deeper than 2:1 balance allows.
    """
    blocks = forest.leaves_dfs()
    keys = block_keys(blocks)
    coords, levels = unpack_keys(keys, forest.dim)
    return neighbor_graph_of_keys(forest.root, blocks, coords, levels, KeyTable(keys))
