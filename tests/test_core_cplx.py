"""Tests for CPLX — the paper's hybrid policy (§V-D)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CPLX,
    LPTPolicy,
    contiguity_fraction,
    get_policy,
    load_stats,
    lpt_assign,
    select_rebalance_ranks,
)
from repro.core.baseline import assignment_from_counts
from repro.core.chunked import chunked_cdp_counts

from tests.helpers import extreme_floats

costs_strategy = st.lists(st.floats(0.05, 10.0), min_size=8, max_size=120).map(
    np.asarray
)

#: zero, subnormal and huge costs, plus ties; includes the empty list
mixed_costs = st.lists(
    st.one_of(extreme_floats, st.sampled_from([1.0, 2.0])), max_size=60
).map(lambda c: np.asarray(c, dtype=np.float64))


class TestSelection:
    def test_x0_selects_none(self):
        assert select_rebalance_ranks(np.arange(10.0), 0.0).size == 0

    def test_x100_selects_all(self):
        sel = select_rebalance_ranks(np.arange(10.0), 100.0)
        assert sorted(sel.tolist()) == list(range(10))

    def test_both_ends_selected(self):
        loads = np.array([10.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 1.0])
        sel = set(select_rebalance_ranks(loads, 25.0).tolist())
        assert 0 in sel  # most loaded
        assert 7 in sel  # least loaded

    def test_minimum_two_when_positive(self):
        sel = select_rebalance_ranks(np.array([3.0, 1.0, 2.0]), 1.0)
        assert sel.size == 2

    def test_invalid_x(self):
        with pytest.raises(ValueError):
            select_rebalance_ranks(np.ones(4), 150.0)

    @given(
        st.lists(st.floats(0.0, 10.0), min_size=2, max_size=64).map(np.asarray),
        st.floats(0.0, 100.0),
    )
    def test_selection_size_tracks_x(self, loads, x):
        sel = select_rebalance_ranks(loads, x)
        r = loads.shape[0]
        expected = int(round(x / 100 * r))
        if x > 0:
            expected = max(expected, 2)
        assert sel.size == min(expected, r)
        assert np.unique(sel).size == sel.size


class TestEndpoints:
    @given(costs_strategy, st.integers(2, 12))
    @settings(max_examples=30)
    def test_x0_is_chunked_cdp(self, costs, r):
        a = CPLX(x_percent=0).compute(costs, r)
        b = get_policy("cdp-chunked").compute(costs, r)
        assert np.array_equal(a, b)

    @given(costs_strategy, st.integers(2, 12))
    @settings(max_examples=30)
    def test_x100_matches_lpt_makespan(self, costs, r):
        """X=100 re-places every block with LPT over all ranks.

        The assignment may be a rank permutation of plain LPT (the pool
        order differs), but per-rank load multiset and makespan match.
        """
        a = CPLX(x_percent=100).compute(costs, r)
        b = lpt_assign(costs, r)
        la = np.sort(np.bincount(a, weights=costs, minlength=r))
        lb = np.sort(np.bincount(b, weights=costs, minlength=r))
        assert np.allclose(la, lb)

    @given(mixed_costs, st.integers(1, 16))
    @settings(max_examples=300)
    def test_x100_is_lpt(self, costs, r):
        """CPL100 skips the CDP stage, with the same result as running it:
        every rank is selected and the whole pool is re-placed."""
        got = CPLX(x_percent=100).place(costs, r).assignment
        assert np.array_equal(got, LPTPolicy().place(costs, r).assignment)
        counts = chunked_cdp_counts(costs, r, ranks_per_chunk=512)
        staged = assignment_from_counts(counts)
        if costs.size and r >= 2:
            loads = np.bincount(staged, weights=costs, minlength=r)
            ranks = select_rebalance_ranks(loads, 100.0)
            ids = np.nonzero(np.isin(staged, ranks))[0]
            staged[ids] = ranks[lpt_assign(costs[ids], int(ranks.size))]
        assert np.array_equal(got, staged)

    def test_invalid_x_rejected(self):
        with pytest.raises(ValueError):
            CPLX(x_percent=-5)


class TestTradeoff:
    def test_makespan_weakly_improves_with_x(self):
        rng = np.random.default_rng(0)
        costs = rng.exponential(1.0, size=256)
        r = 32
        makespans = []
        for x in (0, 25, 50, 75, 100):
            a = CPLX(x_percent=x).compute(costs, r)
            makespans.append(load_stats(costs, a, r).makespan)
        # Endpoints: LPT-side no worse than CDP-side; interior between-ish.
        assert makespans[-1] <= makespans[0] + 1e-9
        assert min(makespans) >= makespans[-1] - 1e-9

    def test_contiguity_decreases_with_x(self):
        rng = np.random.default_rng(1)
        costs = rng.exponential(1.0, size=256)
        fracs = [
            contiguity_fraction(CPLX(x_percent=x).compute(costs, 32))
            for x in (0, 50, 100)
        ]
        assert fracs[0] > fracs[1] > fracs[2]

    def test_unselected_ranks_keep_blocks(self):
        rng = np.random.default_rng(2)
        costs = rng.exponential(1.0, size=64)
        r = 16
        cdp = CPLX(x_percent=0).compute(costs, r)
        hybrid = CPLX(x_percent=25).compute(costs, r)
        loads = np.bincount(cdp, weights=costs, minlength=r)
        selected = set(select_rebalance_ranks(loads, 25.0).tolist())
        for b in range(64):
            if cdp[b] not in selected:
                assert hybrid[b] == cdp[b], f"block {b} moved off unselected rank"
            else:
                assert hybrid[b] in selected

    @given(costs_strategy, st.integers(2, 10))
    @settings(max_examples=20)
    def test_all_x_produce_valid_assignments(self, costs, r):
        for x in (0.0, 10.0, 33.3, 66.6, 100.0):
            a = CPLX(x_percent=x).place(costs, r)  # place() validates
            assert a.assignment.shape == costs.shape

    def test_single_rank_degenerate(self):
        a = CPLX(x_percent=50).compute(np.ones(5), 1)
        assert (a == 0).all()
