"""Per-block cost accounting.

Every block holds the same number of cells regardless of refinement
level (§II-B) — cost differences come from *kernel* behaviour (solver
iterations near steep gradients), not from block size.  The paper's
infrastructure change #1 populates per-block cost hooks from telemetry
instead of the framework default of 1; :class:`BlockCostTracker`
implements that measurement loop, including the measurement noise that
makes telemetry-driven costs imperfect predictors.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..mesh.keys import key_levels, parent_keys

__all__ = ["BlockCostTracker"]


class BlockCostTracker:
    """Telemetry-driven per-block cost estimation (§V-A3 change #1).

    Maintains an exponentially-weighted estimate of each block's compute
    cost from measured kernel times.  Measurements carry multiplicative
    noise; smoothing trades responsiveness against noise rejection
    exactly like a production cost hook would.

    Block identity follows the packed block key (stable across
    redistributions and SFC renumbering; see :mod:`repro.mesh.keys`),
    and the estimates live in two aligned arrays sorted by key.  Refined
    children inherit the parent's estimate as their prior.  Callers
    holding :class:`~repro.mesh.geometry.BlockIndex` objects pack them
    once with :func:`repro.mesh.keys.block_keys`.
    """

    def __init__(self, alpha: float = 0.5, default_cost: float = 1.0) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.default_cost = default_cost
        self._keys = np.empty(0, dtype=np.int64)    #: sorted block keys
        self._vals = np.empty(0, dtype=np.float64)  #: estimate per key
        self._dim: Optional[int] = None

    def _set_dim(self, dim: int) -> None:
        if self._dim is None:
            self._dim = dim
        elif dim != self._dim:
            raise ValueError(f"tracker holds {self._dim}D blocks, got {dim}D")

    def _find(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(hit mask, position in the table) of each key."""
        pos = np.searchsorted(self._keys, keys)
        if self._keys.shape[0] == 0:
            return np.zeros(keys.shape[0], dtype=bool), pos
        hit = self._keys[np.minimum(pos, self._keys.shape[0] - 1)] == keys
        return hit, pos

    def observe_keys(self, keys: np.ndarray, measured: np.ndarray, dim: int) -> None:
        """Fold one measurement per block key into the estimates.

        Raises ``ValueError`` (before updating anything) if any
        measurement is negative.  A key listed twice folds its
        measurements in order, as one call per measurement would.
        """
        keys = np.asarray(keys, dtype=np.int64)
        measured = np.asarray(measured, dtype=np.float64)
        if keys.shape != measured.shape:
            raise ValueError("keys and measured must have the same length")
        if (measured < 0).any():
            raise ValueError("measured cost must be >= 0")
        self._set_dim(dim)
        if keys.shape[0] == 0:
            return
        order = np.argsort(keys, kind="stable")
        keys, measured = keys[order], measured[order]
        repeat = np.zeros(keys.shape[0], dtype=bool)
        repeat[1:] = keys[1:] == keys[:-1]
        if repeat.any():
            # Fold first occurrences, then the rest (in order) onto them.
            self.observe_keys(keys[~repeat], measured[~repeat], dim)
            self.observe_keys(keys[repeat], measured[repeat], dim)
            return
        hit, pos = self._find(keys)
        at = pos[hit]
        self._vals[at] = (1 - self.alpha) * self._vals[at] + self.alpha * measured[hit]
        miss = ~hit
        if miss.any():
            self._keys = np.insert(self._keys, pos[miss], keys[miss])
            self._vals = np.insert(self._vals, pos[miss], measured[miss])

    def estimates_keys(self, keys: np.ndarray, dim: int) -> np.ndarray:
        """Current estimate per block key; falls back to ancestors then
        the default.

        A freshly refined block has no history — its parent's estimate is
        the best available prior (same region, same physics).  The search
        walks up one level at a time for the keys still unresolved.
        """
        probe = np.asarray(keys, dtype=np.int64).copy()
        out = np.full(probe.shape[0], self.default_cost, dtype=np.float64)
        todo = np.arange(probe.shape[0])
        while todo.shape[0]:
            hit, pos = self._find(probe)
            out[todo[hit]] = self._vals[pos[hit]]
            up = ~hit & (key_levels(probe) > 0)
            todo = todo[up]
            probe = parent_keys(probe[up], dim)
        return out

    def state(self) -> Tuple[np.ndarray, np.ndarray, Optional[int]]:
        """``(keys, values, dim)`` copies of the estimate table, for
        checkpointing (``dim`` is ``None`` before any observation)."""
        return self._keys.copy(), self._vals.copy(), self._dim

    def load_state(
        self, state: Tuple[np.ndarray, np.ndarray, Optional[int]]
    ) -> None:
        """Replace the estimate table from a :meth:`state` tuple."""
        keys, values, dim = state
        keys = np.asarray(keys, dtype=np.int64)
        order = np.argsort(keys)
        self._keys = keys[order]
        self._vals = np.asarray(values, dtype=np.float64)[order]
        self._dim = dim

    def __len__(self) -> int:
        return int(self._keys.shape[0])
