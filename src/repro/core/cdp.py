"""Contiguous-DP (CDP) placement (paper §V-C).

CDP keeps the baseline's locality (contiguous SFC ranges per rank) but
chooses the *range boundaries* to minimize makespan.  Formally: given
block costs ``w_1..w_n`` in SFC order, partition them into ``r``
contiguous segments minimizing the maximum segment sum.

Three solvers are provided:

* :func:`cdp_restricted` — the paper's production variant: only chunk
  sizes ``ceil(n/r)`` and ``floor(n/r)`` are considered, giving an
  ``O(n·r)``-bounded DP (actually ``O(r · (n mod r))``) that is optimal
  *within the explored chunk sizes*.  It is the one-chunk call of
  :func:`cdp_restricted_many`, which solves many independent chunks (the
  chunked CDP inside CPLX) in one batched pass: each rank step is four
  whole-batch numpy ufuncs, so the per-step interpreter cost is paid
  once for all chunks.
* :func:`cdp_full` — the unrestricted ``O(n^2 r)`` DP; exact but too slow
  for large meshes.  Kept for the ablation of the restriction.
* :func:`cdp_optimal_makespan` — exact optimal contiguous makespan via
  parametric binary search with a greedy feasibility check,
  ``O(n log(W/eps))``; used to verify both DPs in tests.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .baseline import assignment_from_counts
from .context import PlacementContext
from .metrics import _rescaled
from .policy import PlacementPolicy, register_policy

__all__ = [
    "CDPPolicy",
    "CDPFullPolicy",
    "cdp_restricted",
    "cdp_restricted_many",
    "cdp_full",
    "cdp_optimal_makespan",
    "counts_makespan",
]


def counts_makespan(costs: np.ndarray, counts: np.ndarray) -> float:
    """Makespan (max segment cost) of a contiguous split given counts."""
    counts = np.asarray(counts, dtype=np.int64)
    if int(counts.sum()) != costs.shape[0]:
        raise ValueError("counts do not sum to the number of blocks")
    bounds = np.concatenate([[0], np.cumsum(counts)])
    prefix = np.concatenate([[0.0], np.cumsum(costs)])
    seg = prefix[bounds[1:]] - prefix[bounds[:-1]]
    return float(seg.max()) if seg.size else 0.0


def _prefix(costs: np.ndarray) -> np.ndarray:
    """``[0, cumsum(costs)]``, kept finite.

    If the total overflows, the prefix is taken over costs scaled by an
    exact power of two (as :func:`repro.core.metrics.load_stats` does).
    The scaling commutes with rounding, so the DP makes the choices it
    would make in unbounded range; finite totals are left untouched.
    """
    with np.errstate(over="ignore"):
        prefix = np.concatenate([[0.0], np.cumsum(costs, dtype=np.float64)])
    if not np.isfinite(prefix[-1]):
        scaled, _ = _rescaled(costs)
        prefix = np.concatenate([[0.0], np.cumsum(scaled, dtype=np.float64)])
    return prefix


def cdp_restricted(costs: np.ndarray, n_ranks: int) -> np.ndarray:
    """Restricted CDP: per-rank counts limited to {floor(n/r), ceil(n/r)}.

    Returns per-rank contiguous *counts* (not an assignment).  The DP
    state is (ranks placed, ceil-sized segments used); since the start
    offset of rank ``k`` with ``j`` ceil segments used is ``k*f + j``,
    the table is ``(r+1) x (e+1)`` where ``e = n mod r`` — hence the
    ``O(nr)`` bound quoted in the paper.  This is the one-chunk call of
    :func:`cdp_restricted_many`.
    """
    return cdp_restricted_many(costs, [(0, int(costs.shape[0]))], [n_ranks])


#: rank steps whose segment-cost rows are gathered in one copy; bounds the
#: per-side slab at ``_SLAB_STEPS x chunks x (e+1)`` floats
_SLAB_STEPS = 32


def cdp_restricted_many(
    costs: np.ndarray,
    ranges: Sequence[Tuple[int, int]],
    shares: Sequence[int],
) -> np.ndarray:
    """Restricted CDP of every chunk ``costs[a:b]`` on its ``shares[i]`` ranks.

    All chunks advance through the rank steps together on one
    ``(chunks, max_e + 1)`` state array, so a step is four whole-batch
    ufuncs instead of one small loop per chunk.  Each chunk's counts are
    exactly what it would get alone: segment sums come from the chunk's
    own prefix sum, ties prefer the floor segment, and the backtrack
    starts from the chunk's own ``(r_i, e_i)``.  States outside a
    chunk's feasibility window are left unmasked; they never feed a
    state on the backtrack path.  Returns the chunks' per-rank counts,
    concatenated in chunk order.
    """
    costs = np.asarray(costs)
    shares = np.asarray(shares, dtype=np.int64)
    if shares.shape[0] != len(ranges):
        raise ValueError("need one rank share per chunk")
    if (shares < 1).any():
        raise ValueError("n_ranks must be >= 1")
    sizes = np.asarray([b - a for a, b in ranges], dtype=np.int64)
    floor, extra = np.divmod(sizes, shares)
    counts = np.repeat(floor, shares)
    width = int(extra.max()) + 1
    if width == 1:
        # Every chunk divides evenly: each rank takes exactly f blocks.
        return counts

    # Per chunk, floor[t] = W[t+f] - W[t] and ceil[t] = W[t+f+1] - W[t]
    # over its own prefix W, padded to (r-1)*f + width.  A strided view
    # then gives one width-wide row per rank step, starting f apart.
    floor_rows, ceil_rows = [], []
    for (a, b), r, f in zip(ranges, shares.tolist(), floor.tolist()):
        prefix = _prefix(costs[a:b])
        m = prefix.shape[0]
        run = np.full((2, (r - 1) * f + width), np.inf)
        np.subtract(prefix[f:], prefix[: m - f], out=run[0, : m - f])
        np.subtract(prefix[f + 1 :], prefix[: m - f - 1], out=run[1, : m - f - 1])
        item = run.strides[1]
        floor_rows.append(as_strided(run[0], (r, width), (f * item, item)))
        ceil_rows.append(as_strided(run[1], (r, width - 1), (f * item, item)))

    n_chunks = shares.shape[0]
    n_steps = int(shares.max())
    dp = np.full((n_chunks, width), np.inf)
    dp[:, 0] = 0.0
    cand_f = np.empty_like(dp)
    cand_c = np.full_like(dp, np.inf)  # column 0: no ceil segment to undo
    # Floor segment keeps j; ceil segment moves j-1 -> j.
    dp_from, cand_c_into = dp[:, :-1], cand_c[:, 1:]
    slab_f = np.full((_SLAB_STEPS, n_chunks, width), np.inf)
    slab_c = np.full((_SLAB_STEPS, n_chunks, width - 1), np.inf)
    choice = np.empty((_SLAB_STEPS, n_chunks, width), dtype=bool)
    # packed[k-1, i] bit j: rank k-1 of chunk i took a ceil segment into state j
    packed = np.empty((n_steps, n_chunks, -(-width // 8)), dtype=np.uint8)
    for s0 in range(0, n_steps, _SLAB_STEPS):
        # A chunk past its own rank count leaves stale rows; its states
        # from then on are never read back.
        for i in range(n_chunks):
            rows = floor_rows[i][s0 : s0 + _SLAB_STEPS]
            slab_f[: rows.shape[0], i] = rows
            slab_c[: rows.shape[0], i] = ceil_rows[i][s0 : s0 + _SLAB_STEPS]
        steps = min(_SLAB_STEPS, n_steps - s0)
        for seg_f, seg_c, took_ceil in zip(slab_f[:steps], slab_c[:steps], choice):
            np.maximum(dp, seg_f, out=cand_f)
            np.maximum(dp_from, seg_c, out=cand_c_into)
            np.less(cand_c, cand_f, out=took_ceil)
            np.minimum(cand_c, cand_f, out=dp)
        packed[s0 : s0 + steps] = np.packbits(choice[:steps], axis=-1)

    # Backtrack each chunk from (r_i, e_i); rows past r_i are never read.
    bits = memoryview(packed.reshape(-1))
    row = packed.shape[2]
    step = n_chunks * row
    ceil_at = []
    starts = np.concatenate([[0], np.cumsum(shares)[:-1]]).tolist()
    for i, (r, j, start) in enumerate(zip(shares.tolist(), extra.tolist(), starts)):
        at = (r - 1) * step + i * row  # chunk i's row for its last rank
        for k in range(r - 1, -1, -1):
            if j == 0:
                break
            if bits[at + (j >> 3)] >> (7 - (j & 7)) & 1:
                ceil_at.append(start + k)
                j -= 1
            at -= step
        if j != 0:
            raise RuntimeError(f"CDP reconstruction failed for chunk {i}")
    counts[ceil_at] += 1
    return counts


def cdp_full(costs: np.ndarray, n_ranks: int) -> np.ndarray:
    """Unrestricted contiguous-partition DP; returns per-rank counts.

    ``DP[i][k] = min over j < i of max(DP[j][k-1], W[i] - W[j])`` — the
    exact recurrence from the paper (§V-C).  O(n^2 r); use only for
    small instances (tests, the restriction ablation).
    """
    n = int(costs.shape[0])
    prefix = _prefix(costs)
    INF = np.inf
    dp = np.full((n + 1, n_ranks + 1), INF, dtype=np.float64)
    cut = np.zeros((n + 1, n_ranks + 1), dtype=np.int64)
    dp[0, 0] = 0.0
    for k in range(1, n_ranks + 1):
        for i in range(0, n + 1):
            # segment (j, i] assigned to rank k-1 (may be empty: j == i)
            seg = prefix[i] - prefix[: i + 1]  # seg[j] = W[i] - W[j]
            cand = np.maximum(dp[: i + 1, k - 1], seg)
            j = int(np.argmin(cand))
            dp[i, k] = cand[j]
            cut[i, k] = j
    counts = np.empty(n_ranks, dtype=np.int64)
    i = n
    for k in range(n_ranks, 0, -1):
        j = int(cut[i, k])
        counts[k - 1] = i - j
        i = j
    if i != 0:
        raise RuntimeError("full CDP reconstruction failed")
    return counts


def cdp_optimal_makespan(costs: np.ndarray, n_ranks: int) -> float:
    """Exact optimal contiguous makespan (value only), via binary search.

    Greedy feasibility: a threshold ``T`` is achievable iff packing blocks
    left-to-right, cutting just before the segment would exceed ``T``,
    uses at most ``r`` segments.  Optimal ``T`` is bracketed between
    ``max(max_cost, total/r)`` and ``total``; we binary-search to within
    machine precision of the answer.
    """
    costs = np.asarray(costs, dtype=np.float64)
    n = int(costs.shape[0])
    if n == 0:
        return 0.0
    total = float(costs.sum())
    lo = max(float(costs.max()), total / n_ranks)
    hi = total

    def feasible(T: float) -> bool:
        segments = 1
        acc = 0.0
        for w in costs:
            if acc + w > T + 1e-12 * max(1.0, T):
                segments += 1
                acc = w
                if segments > n_ranks:
                    return False
            else:
                acc += w
        return True

    if feasible(lo):
        return lo
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return hi


@register_policy("cdp")
class CDPPolicy(PlacementPolicy):
    """Locality-preserving load balance: restricted contiguous DP (CPL0 core)."""

    def compute(
        self,
        costs: np.ndarray,
        n_ranks: int,
        ctx: Optional[PlacementContext] = None,
    ) -> np.ndarray:
        return assignment_from_counts(cdp_restricted(costs, n_ranks))


@register_policy("cdp-full")
class CDPFullPolicy(PlacementPolicy):
    """Unrestricted contiguous DP (ablation arm; O(n^2 r))."""

    def compute(
        self,
        costs: np.ndarray,
        n_ranks: int,
        ctx: Optional[PlacementContext] = None,
    ) -> np.ndarray:
        return assignment_from_counts(cdp_full(costs, n_ranks))
