"""Longest-Processing-Time-first placement (paper §V-B).

Classic greedy makespan minimization (Graham 1969): sort blocks by cost
descending, assign each to the currently least-loaded rank.  Guarantees
makespan ≤ 4/3 · OPT − 1/(3r); in the paper's experiments a commercial
ILP solver could not beat it in 200 s.  LPT ignores communication
locality entirely — it is the ``X = 100`` endpoint of CPLX.
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np

from .context import PlacementContext
from .policy import PlacementPolicy, register_policy

__all__ = ["LPTPolicy", "lpt_assign", "lpt_assign_subset"]


def lpt_assign(
    costs: np.ndarray,
    n_ranks: int,
    initial_loads: np.ndarray | None = None,
) -> np.ndarray:
    """LPT assignment of ``costs`` onto ``n_ranks`` ranks.

    Parameters
    ----------
    costs:
        Per-block cost, block-ID order.
    n_ranks:
        Number of ranks.
    initial_loads:
        Optional pre-existing per-rank load (used by CPLX when
        rebalancing a subset of ranks that keep some of their blocks).

    Notes
    -----
    Ties (equal loads) break toward the lowest rank ID, making the result
    deterministic.  Uses a binary heap of ``(load, rank)`` pairs —
    O(n log n + n log r) total, comfortably inside the 50 ms budget for
    AMR-scale inputs (~2 blocks per rank).  Starting from empty ranks,
    the first round (one block per rank) needs no heap operations.
    """
    n = int(costs.shape[0])
    order = np.argsort(-costs, kind="stable")
    sorted_costs = np.asarray(costs[order], dtype=np.float64).tolist()
    first = 0
    if initial_loads is None:
        # From all-zero loads, while the costs are positive the first
        # round hands the i-th largest block to rank i.
        first = min(n, n_ranks)
        if first and not sorted_costs[first - 1] > 0.0:
            first = 0
        heap = [(sorted_costs[r] if r < first else 0.0, r) for r in range(n_ranks)]
    else:
        loads = np.asarray(initial_loads, dtype=np.float64)
        if loads.shape != (n_ranks,):
            raise ValueError(f"initial_loads shape {loads.shape} != ({n_ranks},)")
        heap = [(float(loads[r]), r) for r in range(n_ranks)]
    heapq.heapify(heap)
    ranks = list(range(first))
    # (load, rank) keys are distinct, so replacing the root pops the
    # same sequence as pop-then-push.
    for cost in sorted_costs[first:]:
        load, rank = heap[0]
        heapq.heapreplace(heap, (load + cost, rank))
        ranks.append(rank)
    assignment = np.empty(n, dtype=np.int64)
    assignment[order] = ranks
    return assignment


def lpt_assign_subset(
    costs: np.ndarray,
    block_ids: np.ndarray,
    rank_ids: np.ndarray,
    assignment: np.ndarray,
) -> np.ndarray:
    """Re-place a subset of blocks onto a subset of ranks with LPT.

    ``block_ids`` are re-assigned among ``rank_ids`` only; all other
    blocks keep their ranks (their loads are *not* seeded into the
    rebalance because CPLX removes every block of a selected rank before
    re-placing — see :mod:`repro.core.cplx`).  Returns a new assignment
    array; the input is not modified.
    """
    out = assignment.copy()
    sub_costs = costs[block_ids]
    local = lpt_assign(sub_costs, int(rank_ids.shape[0]))
    out[block_ids] = rank_ids[local]
    return out


@register_policy("lpt")
class LPTPolicy(PlacementPolicy):
    """Pure load balancing: LPT over measured block costs (CPL100).

    Homogeneous by construction (identical machines); the speed-aware
    variant is :class:`repro.core.hetero.HeteroLPTPolicy`.
    """

    def compute(
        self,
        costs: np.ndarray,
        n_ranks: int,
        ctx: Optional[PlacementContext] = None,
    ) -> np.ndarray:
        return lpt_assign(costs, n_ranks)
