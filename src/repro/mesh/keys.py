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

:class:`KeyTable` is the one lookup primitive the remesh path is built
on: a leaf key array sorted once, against which batches of probe keys
are resolved by ``searchsorted`` at the probe's own level, its parent's
level, or its children's.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from .geometry import BlockIndex, RootGrid
from .sfc import _MAX_BITS, morton_decode, morton_encode

__all__ = [
    "LEVEL_BITS",
    "KeyTable",
    "block_keys",
    "blocks_of_keys",
    "coord_bits",
    "first_child_keys",
    "key_levels",
    "neighbor_probes",
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
    if levels.size == 0:
        return np.empty(0, dtype=np.int64)
    coords = np.asarray(coords, dtype=np.int64).reshape(levels.shape[0], -1)
    dim = coords.shape[1]
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


def blocks_of_keys(keys: np.ndarray, dim: int) -> List[BlockIndex]:
    """:class:`BlockIndex` objects of keys (inverse of :func:`block_keys`)."""
    coords, levels = unpack_keys(keys, dim)
    return [
        BlockIndex(lv, tuple(cs))
        for cs, lv in zip(coords.tolist(), levels.tolist())
    ]


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


def neighbor_probes(
    root: RootGrid, coords: np.ndarray, levels: np.ndarray, offsets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keys of the in-domain blocks ``coords[i] + offsets[j]`` at ``levels[i]``.

    Offsets are applied with the root grid's periodic wrap; probes that
    leave a non-periodic domain are dropped.  Returns ``(src, off, keys)``:
    the block row and offset row of each surviving probe (block-major,
    then offset order) and its packed key.
    """
    probe = coords[:, None, :] + offsets[None, :, :]
    ext = np.asarray(root.shape, dtype=np.int64) << levels[:, None, None]
    periodic = np.asarray(root.periodic, dtype=bool)
    if periodic.any():
        probe = np.where(periodic, np.mod(probe, ext), probe)
    valid = ((probe >= 0) & (probe < ext)).all(axis=2)
    src, off = np.nonzero(valid)
    return src, off, pack_keys(probe[src, off], levels[src])


class KeyTable:
    """A leaf key array sorted once, for vectorized probe resolution.

    ``keys`` is kept in its given (SFC) order; every lookup returns
    positions into it, so a hit is directly a block ID.
    """

    def __init__(self, keys: np.ndarray) -> None:
        self.keys = np.asarray(keys, dtype=np.int64)
        self._order = np.argsort(self.keys, kind="stable")
        self._sorted = self.keys[self._order]

    def __len__(self) -> int:
        return int(self.keys.shape[0])

    def find(self, probes: np.ndarray) -> np.ndarray:
        """Position in ``keys`` of each probe key, ``-1`` where absent."""
        probes = np.asarray(probes, dtype=np.int64)
        if not len(self):
            return np.full(probes.shape, -1, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self._sorted, probes), len(self) - 1)
        return np.where(self._sorted[pos] == probes, self._order[pos], -1)

    def resolve(
        self, probes: np.ndarray, dim: int, facing: np.ndarray | None = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Leaves covering or abutting probe blocks, one level either way.

        A probe at level ``L`` resolves to the leaf at ``L`` with its own
        key, else to its parent leaf at ``L - 1``, else, if ``facing``
        is given, to every leaf among its children at ``L + 1`` whose
        Morton child number ``c`` has ``facing[i, c]`` set.  Returns
        ``(rows, leaves, unresolved)``: parallel arrays of probe row and
        leaf position per hit, and a mask of probes with no hit.  In a
        2:1-balanced forest a probe abutting a level-``L`` leaf is always
        resolved when ``facing`` selects the children touching it.
        """
        probes = np.asarray(probes, dtype=np.int64)
        same = self.find(probes)
        rows = [np.nonzero(same >= 0)[0]]
        leaves = [same[rows[0]]]
        rem = np.nonzero((same < 0) & (key_levels(probes) > 0))[0]
        up = self.find(parent_keys(probes[rem], dim))
        hit = up >= 0
        rows.append(rem[hit])
        leaves.append(up[hit])
        unresolved = same < 0
        unresolved[rem[hit]] = False
        if facing is not None:
            rem = np.nonzero(unresolved)[0]
            kid_row, kid = np.nonzero(facing[rem])
            kid_row = rem[kid_row]
            down = self.find(
                first_child_keys(probes[kid_row], dim) | (kid << LEVEL_BITS)
            )
            hit = down >= 0
            rows.append(kid_row[hit])
            leaves.append(down[hit])
            unresolved[kid_row[hit]] = False
        return np.concatenate(rows), np.concatenate(leaves), unresolved
