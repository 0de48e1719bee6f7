"""Tests for the CDP family: restricted DP, full DP, chunking."""

import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import make_costs
from repro.core import (
    cdp_full,
    cdp_optimal_makespan,
    cdp_restricted,
    cdp_restricted_many,
    chunked_cdp_counts,
    counts_makespan,
    get_policy,
    split_chunks,
)
from repro.core.chunked import _rank_shares

instances = st.tuples(
    st.lists(st.floats(0.05, 10.0), min_size=1, max_size=40),
    st.integers(1, 8),
)


def corpus_costs(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "exponential":
        return rng.exponential(1.0, size=n)
    if kind == "ties":
        return rng.integers(0, 3, size=n).astype(np.float64)
    if kind == "ones":
        return np.ones(n)
    if kind == "pareto":
        return np.round(rng.pareto(1.5, size=n) + 1.0, 1)
    return np.zeros(n)


def loop_restricted(costs: np.ndarray, n_ranks: int) -> np.ndarray:
    """Reference: the original one-chunk, per-rank-step restricted CDP loop,
    with explicit feasibility-window masking."""
    n = int(costs.shape[0])
    f, e = divmod(n, n_ranks)
    prefix = np.concatenate([[0.0], np.cumsum(costs, dtype=np.float64)])
    if e == 0:
        return np.full(n_ranks, f, dtype=np.int64)
    dp = np.full(e + 1, np.inf)
    dp[0] = 0.0
    choice = np.zeros((n_ranks + 1, e + 1), dtype=np.int8)
    js = np.arange(e + 1)
    for k in range(1, n_ranks + 1):
        j_lo = max(0, e - (n_ranks - k))
        j_hi = min(e, k)
        start_f = (k - 1) * f + js
        seg_f = prefix[start_f + f] - prefix[start_f] if f > 0 else np.zeros(e + 1)
        cand_f = np.maximum(dp, seg_f)
        cand_c = np.full(e + 1, np.inf)
        start_c = (k - 1) * f + js[:-1]
        cand_c[1:] = np.maximum(dp[:-1], prefix[start_c + f + 1] - prefix[start_c])
        take_ceil = cand_c < cand_f
        ndp = np.where(take_ceil, cand_c, cand_f)
        invalid = (js < j_lo) | (js > j_hi)
        ndp[invalid] = np.inf
        choice[k] = take_ceil & ~invalid
        dp = ndp
    counts = np.empty(n_ranks, dtype=np.int64)
    j = e
    for k in range(n_ranks, 0, -1):
        if choice[k, j]:
            counts[k - 1] = f + 1
            j -= 1
        else:
            counts[k - 1] = f
    return counts


def brute_restricted(costs: np.ndarray, r: int) -> float:
    n = len(costs)
    f, e = divmod(n, r)
    best = float("inf")
    for ceil_pos in itertools.combinations(range(r), e):
        counts = [f + 1 if i in ceil_pos else f for i in range(r)]
        best = min(best, counts_makespan(costs, np.asarray(counts)))
    return best


class TestRestricted:
    @given(instances)
    def test_optimal_within_restriction(self, inst):
        # The DP and the brute force take segment sums from the same
        # prefix, so the optimum must match exactly, not approximately.
        costs, r = np.asarray(inst[0]), inst[1]
        counts = cdp_restricted(costs, r)
        assert counts_makespan(costs, counts) == brute_restricted(costs, r)

    @given(
        st.lists(
            st.one_of(st.integers(0, 2).map(float), st.floats(0.0, 10.0)),
            min_size=0,
            max_size=120,
        ),
        st.integers(1, 40),
    )
    def test_matches_loop_reference(self, costs, r):
        """Batched DP without masking == the masked per-step loop, ties included."""
        costs = np.asarray(costs, dtype=np.float64)
        assert np.array_equal(cdp_restricted(costs, r), loop_restricted(costs, r))

    @given(instances)
    def test_counts_are_legal(self, inst):
        costs, r = np.asarray(inst[0]), inst[1]
        counts = cdp_restricted(costs, r)
        n = len(costs)
        f, e = divmod(n, r)
        assert counts.sum() == n
        assert set(counts.tolist()) <= {f, f + 1}
        assert (counts == f + 1).sum() == e

    def test_divisible_case_unique(self):
        costs = np.ones(12)
        counts = cdp_restricted(costs, 4)
        assert counts.tolist() == [3, 3, 3, 3]

    def test_improves_on_worst_contiguous(self):
        # One expensive block: restriction still avoids pairing it badly.
        costs = np.array([1.0, 1.0, 10.0, 1.0, 1.0])
        counts = cdp_restricted(costs, 2)  # sizes {2, 3}
        m = counts_makespan(costs, counts)
        # best restricted split: [1,1] | [10,1,1] = 12 or [1,1,10] | [1,1]=12
        assert m == pytest.approx(12.0)


class TestFullDP:
    @given(instances)
    @settings(max_examples=25)
    def test_matches_parametric_optimum(self, inst):
        costs, r = np.asarray(inst[0]), inst[1]
        if len(costs) > 25:
            costs = costs[:25]
        counts = cdp_full(costs, r)
        assert counts.sum() == len(costs)
        m = counts_makespan(costs, counts)
        assert m == pytest.approx(cdp_optimal_makespan(costs, r), rel=1e-6)

    @given(instances)
    @settings(max_examples=25)
    def test_full_never_worse_than_restricted(self, inst):
        costs, r = np.asarray(inst[0]), inst[1]
        mf = counts_makespan(costs, cdp_full(costs, r))
        mr = counts_makespan(costs, cdp_restricted(costs, r))
        assert mf <= mr + 1e-9

    def test_allows_empty_segments(self):
        # More ranks than blocks: full DP legally leaves ranks empty.
        counts = cdp_full(np.array([3.0, 1.0]), 4)
        assert counts.sum() == 2
        assert counts_makespan(np.array([3.0, 1.0]), counts) == pytest.approx(3.0)


class TestCountsMakespan:
    def test_mismatched_counts_rejected(self):
        with pytest.raises(ValueError):
            counts_makespan(np.ones(5), np.array([2, 2]))

    def test_known_value(self):
        assert counts_makespan(np.array([1, 2, 3, 4.0]), np.array([2, 2])) == 7.0


class TestChunking:
    def test_split_chunks_cover_exactly(self):
        costs = np.ones(100)
        ranges = split_chunks(costs, 7)
        assert ranges[0][0] == 0 and ranges[-1][1] == 100
        for (a0, b0), (a1, b1) in zip(ranges, ranges[1:]):
            assert b0 == a1
        assert all(b > a for a, b in ranges)

    def test_split_balances_cost_not_count(self):
        costs = np.array([10.0] * 10 + [1.0] * 90)
        ranges = split_chunks(costs, 2)
        left = costs[ranges[0][0]:ranges[0][1]].sum()
        right = costs[ranges[1][0]:ranges[1][1]].sum()
        assert abs(left - right) <= 10.0  # within one max-cost block

    def test_rank_shares_sum_and_minimum(self):
        shares = _rank_shares(np.array([10.0, 1.0, 1.0]), 8)
        assert shares.sum() == 8
        assert (shares >= 1).all()
        assert shares[0] > shares[1]

    def test_rank_shares_too_few_ranks(self):
        with pytest.raises(ValueError):
            _rank_shares(np.ones(5), 3)

    @given(instances, st.integers(1, 4))
    @settings(max_examples=25)
    def test_chunked_counts_legal(self, inst, rpc):
        costs, r = np.asarray(inst[0]), inst[1]
        counts = chunked_cdp_counts(costs, r, ranks_per_chunk=rpc)
        assert counts.shape == (r,)
        assert counts.sum() == len(costs)
        assert (counts >= 0).all()

    def test_single_chunk_equals_plain_cdp(self):
        rng = np.random.default_rng(0)
        costs = rng.exponential(1.0, size=50)
        a = chunked_cdp_counts(costs, 8, ranks_per_chunk=100)
        b = cdp_restricted(costs, 8)
        assert np.array_equal(a, b)

    def test_batched_matches_per_chunk(self):
        """One batched pass gives each chunk exactly its standalone counts."""
        rng = np.random.default_rng(1)
        shares = [3, 9, 1, 12, 7]
        for kind in ("exponential", "ties", "zeros"):
            costs = corpus_costs(kind, 200, rng)
            ranges = split_chunks(costs, 5)
            batched = cdp_restricted_many(costs, ranges, shares)
            per_chunk = np.concatenate(
                [loop_restricted(costs[a:b], s) for (a, b), s in zip(ranges, shares)]
            )
            assert np.array_equal(batched, per_chunk), kind

    def test_segment_sums_use_per_chunk_prefix(self):
        """Tenths round differently off a global prefix than off each
        chunk's own; this case flips six counts if the chunks share one."""
        costs = np.random.default_rng(1).integers(1, 4, size=80) * 0.1
        counts = chunked_cdp_counts(costs, 48, ranks_per_chunk=8)
        assert counts.tolist() == [
            2, 1, 2, 2, 2, 1, 1, 2, 1, 2, 2, 2, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2,
            2, 1, 1, 2, 2, 2, 1, 1, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1, 2, 1, 2, 2,
            1, 1, 2, 1,
        ]

    def test_cplx_peak_memory_at_8192_ranks(self):
        """Segment costs are gathered in fixed 32-step slabs and choices kept
        as bits; a full (ranks x states) float table would need ~24 MiB."""
        costs = make_costs("exponential", int(8192 * 2.25), seed=0)
        policy = get_policy("cplx:50")
        tracemalloc.start()
        try:
            policy.place(costs, 8192)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    def test_chunking_quality_close_to_global(self):
        """Ablation guard: chunked CDP loses little vs global restricted CDP."""
        rng = np.random.default_rng(2)
        costs = rng.exponential(1.0, size=600)
        global_m = counts_makespan(costs, cdp_restricted(costs, 64))
        chunked_m = counts_makespan(
            costs, chunked_cdp_counts(costs, 64, ranks_per_chunk=16)
        )
        assert chunked_m <= global_m * 1.35


#: costs whose float64 total overflows
huge_costs = st.lists(st.floats(1e300, 1.7e308), min_size=2, max_size=30).map(
    lambda c: np.asarray(c, dtype=np.float64)
)


def scaled_down(costs):
    """``costs * 2**-k`` with the largest cost in [0.5, 1)."""
    return np.ldexp(costs, -int(np.frexp(costs.max())[1]))


class TestOverflow:
    """Costs whose total overflows float64 place as if scaled down.

    A power-of-two scale is exact, so the DP must make the choices it
    makes on the scaled costs, with no warning and no failed backtrack.
    """

    @given(huge_costs, st.integers(1, 8))
    @settings(max_examples=60)
    def test_counts_match_scaled_costs(self, costs, r):
        small = scaled_down(costs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cdp_restricted(costs, r).tolist() == cdp_restricted(small, r).tolist()
            assert cdp_full(costs, r).tolist() == cdp_full(small, r).tolist()
            for rpc in (1, 3, 512):
                got = chunked_cdp_counts(costs, r, ranks_per_chunk=rpc)
                want = chunked_cdp_counts(small, r, ranks_per_chunk=rpc)
                assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("policy", ["cdp", "cdp-full", "cplx:0", "cplx:50"])
    def test_policies_place_overflowing_total(self, policy):
        costs = np.array([1e308] * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = get_policy(policy).place(costs, 2).assignment
        want = get_policy(policy).place(scaled_down(costs), 2).assignment
        assert got.tolist() == want.tolist()
        assert sorted(set(got.tolist())) == [0, 1]

    def test_same_assignment_under_python_O(self):
        """``python -O`` strips asserts; CDP must not depend on them."""
        script = (
            "import numpy as np\n"
            "from repro.core import get_policy\n"
            "for p in ('cdp', 'cdp-full', 'cplx:0', 'cplx:50'):\n"
            "    print(p, get_policy(p).place(np.array([1e308] * 3), 2)"
            ".assignment.tolist())\n"
            "print(get_policy('cplx:50').place(np.full(3000, 1e306), 1024)"
            ".assignment.tolist())\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        runs = [
            subprocess.run([sys.executable, *flags, "-c", script], env=env,
                           capture_output=True, text=True, timeout=120)
            for flags in ([], ["-O"])
        ]
        for run in runs:
            assert run.returncode == 0, run.stderr
        assert runs[0].stdout == runs[1].stdout


class TestGoldenCounts:
    """Counts pinned from the original per-chunk loop implementation.

    Any change to the DP's tie-break, backtrack or segment-sum rounding
    moves this digest, even where the makespan stays optimal.
    """

    GOLDEN = "aa31a6d2c878d18d0efcff8c4bdd7861e95118d100fc37b4d6729e338a55f4c0"

    @staticmethod
    def cases():
        rng = np.random.default_rng(20250611)
        for kind in ("exponential", "ties", "ones", "pareto", "zeros"):
            for _ in range(80):
                r = int(rng.integers(1, 97))
                n = int(rng.integers(0, 4 * r + 2))
                rpc = int(rng.integers(1, 49))
                yield corpus_costs(kind, n, rng), r, rpc

    def test_counts_digest(self):
        h = hashlib.sha256()
        for costs, r, rpc in self.cases():
            h.update(cdp_restricted(costs, r).astype("<i8").tobytes())
            counts = chunked_cdp_counts(costs, r, ranks_per_chunk=rpc)
            h.update(counts.astype("<i8").tobytes())
        assert h.hexdigest() == self.GOLDEN
