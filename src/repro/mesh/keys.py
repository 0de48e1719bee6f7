"""Packed ``int64`` block keys: one integer per octree block.

Extreme-scale block-structured AMR codes (Schornbaum & Rüde) name every
block by a compact integer encoding of its forest position, so per-block
state lives in flat sorted arrays instead of hash maps keyed by
objects.  Here a key is

    ``(morton(coords) << LEVEL_BITS) | level``

with :func:`~repro.mesh.sfc.morton_encode`'s Z-order interleave.  Tree
relations are shifts: the parent's key drops the low ``dim`` Morton bits
with ``level - 1``, and the first (Morton) child's key appends ``dim``
zero bits with ``level + 1``.  Keys of distinct blocks of the same
dimensionality are distinct; their numeric order is *not* the SFC order
across levels (sort by key only to search).
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from .geometry import BlockIndex
from .sfc import _MAX_BITS, morton_decode, morton_encode

__all__ = [
    "LEVEL_BITS",
    "block_keys",
    "coord_bits",
    "first_child_keys",
    "key_levels",
    "pack_keys",
    "parent_keys",
    "unpack_keys",
]

#: Low bits holding the refinement level (levels 0..30 are packable).
LEVEL_BITS = 5
_LEVEL_MASK = np.int64((1 << LEVEL_BITS) - 1)
_MAX_LEVEL = (1 << LEVEL_BITS) - 2  # one level of headroom for child keys


def coord_bits(dim: int) -> int:
    """Per-dimension coordinate bits a key can hold in ``dim`` dims.

    The budget keeps one extra bit per dimension of headroom, so the
    first child of every packable block is packable too, and the key
    stays within a non-negative ``int64``.
    """
    if not 1 <= dim <= 3:
        raise ValueError(f"dim must be 1..3, got {dim}")
    return min((63 - LEVEL_BITS) // dim, _MAX_BITS) - 1


def pack_keys(coords: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Keys of blocks given as ``(n, dim)`` coords and ``(n,)`` levels.

    Raises ``ValueError`` if a level or coordinate falls outside the key
    budget (see :func:`coord_bits`).
    """
    levels = np.asarray(levels, dtype=np.int64)
    coords = np.asarray(coords, dtype=np.int64).reshape(levels.shape[0], -1)
    dim = coords.shape[1]
    if levels.size == 0:
        return np.empty(0, dtype=np.int64)
    bits = coord_bits(dim)
    if levels.min() < 0 or levels.max() > _MAX_LEVEL:
        raise ValueError(f"block levels must be in [0, {_MAX_LEVEL}] to pack")
    if coords.min() < 0 or coords.max() >= (1 << bits):
        raise ValueError(
            f"block coordinates must be in [0, 2^{bits}) to pack in {dim}D"
        )
    codes = morton_encode(coords).astype(np.int64)
    return (codes << LEVEL_BITS) | levels


def block_keys(blocks: Iterable[BlockIndex]) -> np.ndarray:
    """Keys of :class:`BlockIndex` objects (all of one dimensionality)."""
    blocks = list(blocks)
    if not blocks:
        return np.empty(0, dtype=np.int64)
    coords = np.asarray([b.coords for b in blocks], dtype=np.int64)
    levels = np.asarray([b.level for b in blocks], dtype=np.int64)
    return pack_keys(coords, levels)


def unpack_keys(keys: np.ndarray, dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_keys`: ``(coords (n, dim), levels (n,))``."""
    keys = np.asarray(keys, dtype=np.int64).reshape(-1)
    return morton_decode(keys >> LEVEL_BITS, dim), keys & _LEVEL_MASK


def key_levels(keys: np.ndarray) -> np.ndarray:
    """Refinement level of each key."""
    return np.asarray(keys, dtype=np.int64) & _LEVEL_MASK


def parent_keys(keys: np.ndarray, dim: int) -> np.ndarray:
    """Keys of the parents (every key must have ``level > 0``)."""
    keys = np.asarray(keys, dtype=np.int64)
    return (((keys >> LEVEL_BITS) >> dim) << LEVEL_BITS) | ((keys & _LEVEL_MASK) - 1)


def first_child_keys(keys: np.ndarray, dim: int) -> np.ndarray:
    """Keys of each block's first Morton child (``children()[0]``)."""
    keys = np.asarray(keys, dtype=np.int64)
    return (((keys >> LEVEL_BITS) << dim) << LEVEL_BITS) | ((keys & _LEVEL_MASK) + 1)
