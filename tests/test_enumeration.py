"""Enumeration, exact catalogs, argmax selection, and uniform sampling."""

import csv
import dataclasses
import functools
import hashlib
import importlib
import io
import inspect
import itertools
import math
import pickle
import random
import sys
import tracemalloc
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate, islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from econorder import (
    CapExceededError,
    CatalogEntry,
    ConfigError,
    EconomicOrder,
    EconomyConfig,
    InfeasibleError,
    MicroOutcome,
    Regime,
    RevenueGrid,
    catalog,
    empirical_frequencies,
    enumerate_orders,
    enumerate_outcomes,
    feasible_outcome_count,
    multiplicity,
    sample_outcomes,
    validate_order,
)
from econorder import core, counting, enumeration, reports
from econorder.errors import WalkDepthError
from econorder.checks import random_counting_instance

BENCH = Path(__file__).resolve().parents[1] / "bench"

GRID_2 = RevenueGrid((1, 2), (1, 1))
GRID_3 = RevenueGrid((1, 2, 3), (1, 1, 1))

SAMPLER_GRIDS = [
    (RevenueGrid((1, 2, 3), (1, 2, 2)), EconomyConfig(4, 8, Regime.MONOPOLISTIC)),
    (RevenueGrid((1, 2, 3), (2, 3, 2)), EconomyConfig(6, 12, Regime.PERFECT)),
    # levels of 3 and 4 slots beside a one-slot level
    (RevenueGrid((1, 2, 3), (3, 1, 4)), EconomyConfig(5, 10, Regime.PERFECT)),
    # orders (0, 3, 1) and (2, 0, 2) each leave a level empty
    (RevenueGrid((1, 2, 4), (3, 1, 3)), EconomyConfig(4, 10, Regime.PERFECT)),
    # firms on the one-slot level take slot 0; (0, 4, 0) puts all there
    (RevenueGrid((1, 2, 3), (2, 1, 3)), EconomyConfig(4, 8, Regime.MONOPOLISTIC)),
]
SAMPLER_IDS = ["mon", "per", "per-wide-beside-one-slot", "per-empty-levels", "mon-one-slot-level"]
# sha256 of repr(list(islice(catalog(grid, config).sample(41), 449))) per
# SAMPLER_GRIDS grid: 449 draws cross the 64, 128 and 256-draw batches
SAMPLER_DIGESTS = [
    "df03147bc449b5ca80c76a0c272fb9bed623190289f755e3c7bb8992d7a90c1d",
    "5b83f5e8cbb6a548df8db283c34846fb3fe9d4ed016dee8d510e43eb990529d0",
    "07c38adc374fc1ae01d3e1dd93dc9ccf7f9473f58e6032340547730869936051",
    "9a6185ef98dfd05e7a89a1c86eb29065c4c247659a58a51108827d59a796c6f4",
    "631811dafa5bffe6b18ebace999614db0b814fee38da7523292771decd908445",
]

# Grids with gaps and level 0, and totals that are unconstrained, realisable
# or arbitrary (often infeasible).
LEVELS = st.lists(st.integers(0, 12), min_size=1, max_size=6, unique=True).map(sorted)


def revenue_totals(levels, n_firms):
    return st.one_of(
        st.none(),
        st.lists(st.sampled_from(levels), min_size=n_firms, max_size=n_firms).map(sum),
        st.integers(0, n_firms * levels[-1] + 2),
    )


@st.composite
def feasible_economies(draw, max_levels=4, max_degeneracy=9):
    """Levels from 0..12 (so level 0 and gaps), up to 12 firms and a
    realisable or no total; by default up to 4 levels with degeneracies up
    to 9, where mon totals run far above 2**53."""
    levels = draw(st.lists(st.integers(0, 12), min_size=1, max_size=max_levels, unique=True).map(sorted))
    degens = draw(st.lists(st.integers(1, max_degeneracy), min_size=len(levels), max_size=len(levels)))
    n_firms = draw(st.integers(1, 12))
    total = draw(
        st.one_of(
            st.none(),
            st.lists(st.sampled_from(levels), min_size=n_firms, max_size=n_firms).map(sum),
        )
    )
    regime = draw(st.sampled_from(list(Regime)))
    return RevenueGrid(tuple(levels), tuple(degens)), EconomyConfig(n_firms, total, regime)


# 956 orders; under mon a 98-bit total that no probability reduces by, under
# per a 24-bit total that 861 of them reduce by
FIVE_LEVELS = RevenueGrid((1, 2, 3, 4, 5), (1, 2, 2, 3, 3))
FIVE_LEVEL_TOTALS = {Regime.MONOPOLISTIC: (98, 0), Regime.PERFECT: (24, 861)}


def five_level_catalog(regime):
    return catalog(FIVE_LEVELS, EconomyConfig(30, 90, regime))


def brute_force_orders(levels, n_firms, total):
    """Every occupancy of ``n_firms`` over ``levels`` meeting the total, sorted."""
    found = []
    for head in itertools.product(range(n_firms + 1), repeat=len(levels) - 1):
        occ = head + (n_firms - sum(head),)
        if occ[-1] >= 0 and (total is None or sum(a * e for a, e in zip(occ, levels)) == total):
            found.append(occ)
    return sorted(found)


def assert_columns_transpose(orders, expected):
    """The listing keeps one list of Python ints per level: the transpose
    of the expected occupancies, empty lists when there are none."""
    columns = orders.columns
    assert len(orders) == len(expected)
    assert type(columns) is tuple and all(type(column) is list for column in columns)
    assert columns == tuple([occ[k] for occ in expected] for k in range(len(columns)))
    assert all(type(a) is int for column in columns for a in column)


class TestEnumerateOrders:
    def test_revenue_constraint_keeps_only_split(self):
        config = EconomyConfig(2, 3, Regime.MONOPOLISTIC)
        assert [o.occupancy for o in enumerate_orders(GRID_2, config)] == [(1, 1)]

    def test_forced_by_revenue_cap(self):
        config = EconomyConfig(2, 4, Regime.MONOPOLISTIC)
        assert [o.occupancy for o in enumerate_orders(GRID_2, config)] == [(0, 2)]

    def test_three_level_brute_force(self):
        # brute force over all compositions of 3 into 3 parts as the oracle
        config = EconomyConfig(3, 6, Regime.MONOPOLISTIC)
        expected = []
        for a1 in range(4):
            for a2 in range(4 - a1):
                a3 = 3 - a1 - a2
                if a1 * 1 + a2 * 2 + a3 * 3 == 6:
                    expected.append((a1, a2, a3))
        got = [o.occupancy for o in enumerate_orders(GRID_3, config)]
        assert got == sorted(expected)
        assert set(got) == {(0, 3, 0), (1, 1, 1)}

    def test_empty_when_infeasible(self):
        config = EconomyConfig(2, 5, Regime.MONOPOLISTIC)
        orders = enumerate_orders(GRID_2, config)
        assert len(orders) == 0 and list(orders) == []
        assert orders.columns == ([], [])

    def test_lexicographic_order(self):
        config = EconomyConfig(4, None, Regime.MONOPOLISTIC)
        occs = [o.occupancy for o in enumerate_orders(GRID_2, config)]
        assert occs == sorted(occs)

    @given(
        levels=LEVELS,
        n_firms=st.integers(1, 8),
        regime=st.sampled_from(list(Regime)),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, levels, n_firms, regime, data):
        total = data.draw(revenue_totals(levels, n_firms))
        grid = RevenueGrid(tuple(levels), ())
        config = EconomyConfig(n_firms, total, regime)
        expected = brute_force_orders(levels, n_firms, total)
        orders = enumerate_orders(grid, config)
        assert [o.occupancy for o in orders] == expected
        assert_columns_transpose(orders, expected)
        # the listing checks its cap once per run of orders that share all
        # but the last three levels, so a drawn cap also lands inside a run
        inside = data.draw(st.integers(0, len(expected) + 1))
        for cap in {0, len(expected) - 1, len(expected), len(expected) + 1, inside} - {-1}:
            if cap < len(expected):
                with pytest.raises(CapExceededError):
                    enumerate_orders(grid, config, cap=cap)
            else:
                capped = enumerate_orders(grid, config, cap=cap)
                assert [o.occupancy for o in capped] == expected
                assert_columns_transpose(capped, expected)

    @pytest.mark.parametrize(
        "levels, n_firms, total",
        [
            ((0,), 4, None),
            ((0,), 4, 0),
            ((3,), 2, 6),
            ((0, 5), 3, None),
            ((0, 5), 3, 10),
            ((2, 7), 4, 13),  # infeasible: no columns filled
            ((0, 4, 9), 5, None),
            ((0, 4, 9), 5, 18),
            ((1, 2, 3), 6, 12),
        ],
    )
    def test_columns_are_the_transposed_listing(self, levels, n_firms, total):
        # one to three levels, level 0 and gaps, with and without a total;
        # under a cap at the order count the same columns, one below it none
        grid = RevenueGrid(levels, ())
        config = EconomyConfig(n_firms, total, Regime.PERFECT)
        expected = brute_force_orders(levels, n_firms, total)
        assert_columns_transpose(enumerate_orders(grid, config), expected)
        assert_columns_transpose(enumerate_orders(grid, config, cap=len(expected)), expected)
        if expected:
            with pytest.raises(CapExceededError):
                enumerate_orders(grid, config, cap=len(expected) - 1)

    # the revenues of each order's firms, in listing order: lexicographic in
    # the occupancy, so fewer firms on the lowest level come first
    @pytest.mark.parametrize(
        "n_firms, total, revenues",
        [
            (1, 7, [(7,)]),
            (2, 7, [(3, 4), (2, 5), (1, 6)]),
            (
                3,
                12,
                [
                    (4, 4, 4), (3, 4, 5), (3, 3, 6), (2, 5, 5), (2, 4, 6), (2, 3, 7),
                    (2, 2, 8), (1, 5, 6), (1, 4, 7), (1, 3, 8), (1, 2, 9), (1, 1, 10),
                ],
            ),
        ],
    )
    def test_twelve_hundred_levels(self, n_firms, total, revenues):
        # far deeper than the interpreter's recursion limit
        grid = RevenueGrid(tuple(range(1, 1201)), ())
        expected = []
        for firms in revenues:
            occ = [0] * 1200
            for e in firms:
                occ[e - 1] += 1
            expected.append(tuple(occ))
        mon = EconomyConfig(n_firms, total, Regime.MONOPOLISTIC)
        per = EconomyConfig(n_firms, total, Regime.PERFECT)
        assert [o.occupancy for o in enumerate_orders(grid, mon)] == expected
        # labeled firms: each ordered split of the total into n_firms positive parts
        for config, outcomes in ((mon, math.comb(total - 1, n_firms - 1)), (per, len(expected))):
            cat = catalog(grid, config)
            assert [order.occupancy for order in cat.orders] == expected
            assert cat.total_outcomes == outcomes

    @pytest.mark.parametrize("total", [3, 5], ids=["feasible", "infeasible"])
    @pytest.mark.parametrize("build", [enumerate_orders, catalog], ids=["orders", "catalog"])
    def test_negative_cap_is_a_config_error(self, build, total):
        # refused before listing, so an infeasible economy raises it too
        with pytest.raises(ConfigError, match="cap: must be non-negative, got -1"):
            build(GRID_2, EconomyConfig(2, total, Regime.MONOPOLISTIC), cap=-1)

    def test_two_thousand_levels_one_firm(self):
        # an entry that has placed its one firm is kept at once, not pushed
        # level by level (quadratic in the levels per order before)
        n_levels = 2000
        grid = RevenueGrid(tuple(range(1, n_levels + 1)), ())
        expected = sorted(
            tuple(int(k == j) for k in range(n_levels)) for j in range(n_levels)
        )  # every occupancy of one firm, by the definition
        config = EconomyConfig(1, None, Regime.MONOPOLISTIC)
        assert [o.occupancy for o in enumerate_orders(grid, config)] == expected
        # each order is kept alone, so the listing moves its rows into the
        # columns in batches; the cap counts the rows still waiting
        assert_columns_transpose(enumerate_orders(grid, config, cap=n_levels), expected)
        with pytest.raises(CapExceededError):
            enumerate_orders(grid, config, cap=n_levels - 1)
        with pytest.raises(CapExceededError):
            enumerate_orders(grid, config, cap=enumeration._ROWS_KEPT - 2)

    @pytest.mark.parametrize(
        "levels", [(1, 2, 3), (1, 2)], ids=["zipped-three", "zipped-two"]
    )
    @pytest.mark.parametrize("n_firms", [10**6, 10**150])
    def test_a_run_past_the_cap_is_refused_before_it_is_stored(self, levels, n_firms):
        # the root entry is one zipped run of about N/3 orders (three levels,
        # Pi = N + N//3) or N + 1 (two levels, no total), refused by its
        # length before any column grows; at N = 10^150 len(range) overflows
        total = n_firms + n_firms // 3 if len(levels) == 3 else None
        config = EconomyConfig(n_firms, total, Regime.PERFECT)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="order list"):
                enumerate_orders(RevenueGrid(levels, ()), config, cap=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


# enumerate_orders' selector constants that force each member on any grid
# with a total and three or more levels
STACK_MEMBER = {"LISTING_MIN_ROWS": 2**62}
ARRAY_MEMBER = {"LISTING_MIN_ROWS": 0, "LISTING_MAX_VALUES": 2**62}


def listed_by(constants, grid, config, cap=None):
    """enumerate_orders' columns with the selector's constants patched, or
    the CapExceededError it raised as (message, count, cap); and the member
    that listed them."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in constants.items():
            patch.setattr(enumeration, name, value)
        member = enumeration._listing(grid, config)
        try:
            return enumeration.enumerate_orders(grid, config, cap=cap).columns, member
        except CapExceededError as refusal:
            return (str(refusal), refusal.count, refusal.cap), member


class TestListingMembers:
    """The stack and array members of enumerate_orders list the same columns
    and refuse the same caps, each forced by the selector's constants."""

    @given(
        levels=st.lists(st.integers(0, 12), min_size=3, max_size=6, unique=True).map(sorted),
        n_firms=st.integers(1, 9),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_members_agree(self, levels, n_firms, data):
        # gaps, level 0, and totals realisable, arbitrary or past either end
        total = data.draw(
            st.one_of(
                st.lists(st.sampled_from(levels), min_size=n_firms, max_size=n_firms).map(sum),
                st.integers(0, n_firms * levels[-1] + 2),
            )
        )
        grid = RevenueGrid(tuple(levels), ())
        config = EconomyConfig(n_firms, total, Regime.PERFECT)
        columns, stack = listed_by(STACK_MEMBER, grid, config)
        assert stack is enumeration._stack_columns
        assert listed_by(ARRAY_MEMBER, grid, config) == (columns, enumeration._level_columns)
        assert_columns_transpose(
            enumeration.enumerate_orders(grid, config), brute_force_orders(levels, n_firms, total)
        )
        count = len(columns[0])
        # B of enumerate_orders bounds the orders
        q = min(n_firms, (total - n_firms * levels[0]) // (levels[1] - levels[0]))
        assert count <= (math.comb(q + len(levels) - 2, len(levels) - 2) if q >= 0 else 0)
        inside = data.draw(st.integers(0, count))
        for cap in {0, count - 1, count, count + 1, inside} - {-1}:
            refused = listed_by(STACK_MEMBER, grid, config, cap)[0]
            assert listed_by(ARRAY_MEMBER, grid, config, cap)[0] == refused
            if cap < count:
                message = "order list has more than %d elements, exceeding the cap of %d"
                assert refused == (message % (cap, cap), None, cap)
            else:
                assert refused == columns

    @pytest.mark.parametrize(
        "levels, n_firms, total, member",
        [
            ((1, 2, 3, 4, 5), 30, 90, "_level_columns"),  # the exact-orders deck's smallest catalog
            ((1, 3, 4, 9, 10), 40, 200, "_level_columns"),
            ((1, 2, 3, 4), 100, 250, "_level_columns"),
            ((1, 2, 3), 1000, 2000, "_level_columns"),  # B = 1001: one run of 501 orders
            ((1, 2, 3), 300, 450, "_stack_columns"),  # B = 151, below 3 * LISTING_MIN_ROWS
            ((1, 2, 3), 12, 20, "_stack_columns"),  # the uniform sampling grids
            ((1, 2, 3, 4, 5), 20, 23, "_stack_columns"),  # the chain sampling grids
            ((0, 3, 7, 20), 12, 60, "_stack_columns"),
            (tuple(range(1, 2001)), 1, 1000, "_stack_columns"),  # B per level is 1
            (tuple(range(1, 1201)), 3, 12, "_stack_columns"),  # n*B is 3.5e11
            ((1, 2, 3, 4, 5), 10**6, 3 * 10**6, "_stack_columns"),  # n*B is 8.3e17
            ((1, 2, 3, 4, 5), 10**150, 3 * 10**150, "_stack_columns"),  # past int64
            ((1, 2, 3, 4, 5), 30, None, "_stack_columns"),
        ],
    )
    def test_selector(self, levels, n_firms, total, member):
        config = EconomyConfig(n_firms, total, Regime.MONOPOLISTIC)
        assert enumeration._listing(RevenueGrid(levels, ()), config).__name__ == member

    def test_the_walk_runs_on_the_benchmark_mon_catalogs_only(self, monkeypatch, tmp_path):
        # the benchmark's decks, as bench/workloads.py builds them: each
        # exact-orders mon catalog is counted by the ratio walk, and no per
        # catalog and no sampling grid is
        monkeypatch.syspath_prepend(str(BENCH))
        monkeypatch.delitem(sys.modules, "workloads", raising=False)
        workloads = importlib.import_module("workloads")
        walked = []
        walk = counting._ratio_walk

        def spy(columns, degeneracies):
            walked.append(len(columns[0]))
            return walk(columns, degeneracies)

        monkeypatch.setattr(counting, "_ratio_walk", spy)
        deck = workloads.ExactOrders(seed=0, workdir=tmp_path)
        for op in (op for op in deck.ops if op.kind == "catalog"):
            before = len(walked)
            cat = catalog(*op.args)
            mon = op.args[1].regime is Regime.MONOPOLISTIC
            assert walked[before:] == ([len(cat.counts)] if mon else []), op.args
        assert len(walked) == deck.DRAWS * len(deck.LADDER)
        walked.clear()
        sampling = workloads.Sampling(seed=0, workdir=tmp_path)  # draws its grids by catalogs
        for op in sampling.ops:
            catalog(*op.args[:2])
        assert walked == []

    def test_int64_counts_run_on_the_benchmark_per_catalogs_only(self, monkeypatch, tmp_path):
        # the benchmark's decks, as bench/workloads.py builds them: each
        # exact-orders per catalog is counted by the int64 route, and no mon
        # catalog, no sampling grid and no per grid past the bound is
        monkeypatch.syspath_prepend(str(BENCH))
        monkeypatch.delitem(sys.modules, "workloads", raising=False)
        workloads = importlib.import_module("workloads")
        routed = []
        int64_route = counting._bose_einstein_int64

        def spy(tabled, size):
            routed.append(size)
            return int64_route(tabled, size)

        monkeypatch.setattr(counting, "_bose_einstein_int64", spy)
        deck = workloads.ExactOrders(seed=0, workdir=tmp_path)
        for op in (op for op in deck.ops if op.kind == "catalog"):
            before = len(routed)
            cat = catalog(*op.args)
            grid, config = op.args
            assert config.total_revenue == 3 * config.n_firms and grid.levels == (1, 2, 3, 4, 5)
            per = config.regime is Regime.PERFECT
            assert routed[before:] == ([len(cat.counts)] if per else []), op.args
        assert len(routed) == deck.DRAWS * len(deck.LADDER)
        routed.clear()
        sampling = workloads.Sampling(seed=0, workdir=tmp_path)  # draws its grids by catalogs
        for op in sampling.ops:
            catalog(*op.args[:2])
        # a deck grid, listed by the array member, whose last level has 10^6
        # slots: C(a_4 + 10^6 - 1, a_4) is far past 2**63
        grid = RevenueGrid((1, 2, 3, 4, 5), (3, 1, 3, 2, 10**6))
        config = EconomyConfig(60, 180, Regime.PERFECT)
        assert enumeration._listing(grid, config) is enumeration._level_columns
        cat = catalog(grid, config)
        assert routed == []
        assert cat.counts[-1] == multiplicity(cat.orders[-1], grid, Regime.PERFECT) > 2**63

    def test_ties_are_taken_on_the_int64_counts_of_the_benchmark_per_catalogs_only(
        self, monkeypatch, tmp_path
    ):
        # the benchmark's decks, as bench/workloads.py builds them: each
        # exact-orders per catalog finds its ties on the int64 array the count
        # hands back, before that array becomes a list, and never by the
        # catalog's lazy pass over the counts; each mon catalog and each
        # sampling grid finds them by the lazy pass once
        monkeypatch.syspath_prepend(str(BENCH))
        monkeypatch.delitem(sys.modules, "workloads", raising=False)
        workloads = importlib.import_module("workloads")
        on_array, lazy = [], []

        class Watched(np.ndarray):
            def max(self, *args, **kwargs):
                on_array.append(len(self))
                return np.asarray(self).max(*args, **kwargs)

        int64_route = counting._bose_einstein_int64
        monkeypatch.setattr(
            counting, "_bose_einstein_int64", lambda *args: int64_route(*args).view(Watched)
        )
        lazy_pass = enumeration.OrderCatalog._ties

        def spy(cat):
            lazy.append(len(cat.counts))
            return lazy_pass.func(cat)

        spied = functools.cached_property(spy)
        spied.__set_name__(enumeration.OrderCatalog, "_ties")
        monkeypatch.setattr(enumeration.OrderCatalog, "_ties", spied)
        deck = workloads.ExactOrders(seed=0, workdir=tmp_path)
        for op in (op for op in deck.ops if op.kind == "catalog"):
            before = len(on_array), len(lazy)
            cat = catalog(*op.args)
            ties = cat.tie_set()
            per = op.args[1].regime is Regime.PERFECT
            n = len(cat.counts)
            assert on_array[before[0] :] == ([n] if per else []), op.args
            assert lazy[before[1] :] == ([] if per else [n]), op.args
            best = max(cat.counts)
            assert ties == tuple(o for o, c in zip(cat.orders, cat.counts) if c == best)
        assert len(on_array) == deck.DRAWS * len(deck.LADDER)
        on_array.clear()
        sampling = workloads.Sampling(seed=0, workdir=tmp_path)  # draws its grids by catalogs
        lazy.clear()
        for op in sampling.ops:
            catalog(*op.args[:2])
        assert on_array == [] and len(lazy) == len(sampling.ops)


class TestEnumerateOutcomes:
    def test_two_firm_unconstrained_monopolistic(self):
        config = EconomyConfig(2, None, Regime.MONOPOLISTIC)
        groups = enumerate_outcomes(GRID_2, config)
        sizes = {o.occupancy: len(m) for o, m in groups.items()}
        assert sizes == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
        assert sum(sizes.values()) == 4

    def test_two_firm_unconstrained_perfect(self):
        config = EconomyConfig(2, None, Regime.PERFECT)
        groups = enumerate_outcomes(GRID_2, config)
        assert {o.occupancy: len(m) for o, m in groups.items()} == {
            (2, 0): 1,
            (1, 1): 1,
            (0, 2): 1,
        }

    def test_stars_and_bars_listing(self):
        # two identical firms over one level with two slots
        grid = RevenueGrid((3,), (2,))
        config = EconomyConfig(2, 6, Regime.PERFECT)
        groups = enumerate_outcomes(grid, config)
        (members,) = groups.values()
        assignments = {m.assignment for m in members}
        assert assignments == {
            (((0, 0), 2),),
            (((0, 0), 1), ((0, 1), 1)),
            (((0, 1), 2),),
        }

    def test_group_sizes_match_formula_randomized(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            grid, config = random_counting_instance(rng)
            groups = enumerate_outcomes(grid, config, cap=200_000)
            for order, members in groups.items():
                assert len(members) == multiplicity(order, grid, config.regime)

    @pytest.mark.parametrize(
        "count, message",
        [(1.5, "non-negative integers"), (-1, "count -1 at level 0 is below 1"), (0, "count 0")],
        ids=["1.5", "-1", "0"],
    )
    def test_order_of_a_hand_built_outcome_checks_its_counts(self, count, message):
        # the second pair keeps the level's total >= 1, so only a check per pair catches it
        outcome = MicroOutcome(Regime.PERFECT, (((0, 0), count), ((0, 1), 2)))
        with pytest.raises(ConfigError, match=message):
            outcome.order(RevenueGrid((1,), (2,)))

    @pytest.mark.parametrize(
        "regime, assignment, level",
        [
            (Regime.MONOPOLISTIC, ((-1, 0), (0, 5)), -1),
            (Regime.PERFECT, (((-1, 0), 2), ((0, 0), 1)), -1),
            (Regime.MONOPOLISTIC, ((0, 0), (2, 0)), 2),
            (Regime.PERFECT, (((0, 0), 1), ((2, 0), 1)), 2),
        ],
        ids=["mon-below", "per-below", "mon-above", "per-above"],
    )
    def test_order_of_a_hand_built_outcome_checks_its_levels(self, regime, assignment, level):
        # level -1 used to wrap to the top level, and level 2 raised IndexError
        with pytest.raises(ConfigError, match=r"level %d is not in 0\.\.1" % level):
            MicroOutcome(regime, assignment).order(GRID_2)

    @pytest.mark.parametrize(
        "regime, assignment",
        [
            (Regime.MONOPOLISTIC, ((0, 7), (1, 0))),
            (Regime.PERFECT, (((0, 7), 1), ((1, 0), 1))),
            (Regime.MONOPOLISTIC, ((0, -1), (1, 0))),
        ],
        ids=["mon-above", "per-above", "mon-below"],
    )
    def test_order_of_a_hand_built_outcome_checks_its_slots(self, regime, assignment):
        # GRID_2 has one slot per level, so slot 7 (or -1) is no position of it
        outcome = MicroOutcome(regime, assignment)
        slot = assignment[0][0][1] if regime is Regime.PERFECT else assignment[0][1]
        with pytest.raises(ConfigError, match=r"slot %d at level 0 is not in 0\.\.0" % slot):
            outcome.order(GRID_2)
        with pytest.raises(ConfigError, match="slot"):
            empirical_frequencies([outcome], GRID_2)

    @given(
        levels=st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True).map(sorted),
        degeneracies=st.lists(st.integers(1, 3), min_size=3, max_size=3),
        n_firms=st.integers(1, 4),
        regime=st.sampled_from(list(Regime)),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_lists_every_outcome_once_against_itertools(self, levels, degeneracies, n_firms, regime, data):
        # labeled firms: every tuple of positions; identical firms: every
        # multiset, as sorted (position, count) pairs; both filtered by revenue
        total = data.draw(revenue_totals(levels, n_firms))
        grid = RevenueGrid(tuple(levels), tuple(degeneracies[: len(levels)]))
        positions = [(k, s) for k, g in enumerate(grid.degeneracies) for s in range(g)]
        if regime is Regime.MONOPOLISTIC:
            walks = itertools.product(positions, repeat=n_firms)
        else:
            walks = itertools.combinations_with_replacement(positions, n_firms)
        expected = []
        for placed in walks:
            if total is None or sum(levels[k] for k, _ in placed) == total:
                runs = tuple((pos, placed.count(pos)) for pos in sorted(set(placed)))
                expected.append(placed if regime is Regime.MONOPOLISTIC else runs)
        groups = enumerate_outcomes(grid, EconomyConfig(n_firms, total, regime))
        listed = [m.assignment for members in groups.values() for m in members]
        assert sorted(listed) == sorted(expected)
        assert len(set(listed)) == len(listed)
        assert [o.occupancy for o in groups] == sorted(o.occupancy for o in groups)
        for order, members in groups.items():
            assert members  # no empty group
            for m in members:
                assert m.regime is regime and m.drawn_order is None
                assert m.order(grid) == order
            if regime is Regime.MONOPOLISTIC:  # labeled outcomes in lexicographic order
                assert [m.assignment for m in members] == sorted(m.assignment for m in members)

    @pytest.mark.parametrize("regime", list(Regime), ids=["mon", "per"])
    def test_group_sizes_never_read_the_closed_form(self, monkeypatch, regime):
        # multiplicity feeds only the cap check, so a spy that counts every
        # order as one outcome leaves the groups as they were
        cases = [
            (RevenueGrid((0, 2, 3), (2, 1, 3)), EconomyConfig(5, 10, regime)),
            (RevenueGrid((1, 2, 5), (1, 3, 2)), EconomyConfig(4, None, regime)),
            (FIVE_LEVELS, EconomyConfig(5, 15, regime)),
        ]

        def sizes():
            return [
                {order.occupancy: len(members) for order, members in enumerate_outcomes(*case).items()}
                for case in cases
            ]

        expected = sizes()
        calls = []
        monkeypatch.setattr(enumeration, "multiplicity", lambda *args: calls.append(args) or 1)
        assert sizes() == expected
        assert len(calls) == sum(map(len, expected))
        for (grid, config), by_order in zip(cases, expected):
            assert by_order == {o: multiplicity(o, grid, regime) for o in by_order}

    def test_cap_refusal_names_the_bound(self):
        config = EconomyConfig(12, None, Regime.MONOPOLISTIC)
        with pytest.raises(CapExceededError) as err:
            enumerate_outcomes(GRID_2, config, cap=100)
        assert err.value.count == 2**12
        assert err.value.cap == 100

    def test_cap_refuses_more_orders_than_the_cap_before_counting(self, monkeypatch):
        # every feasible order holds an outcome, so 1,143 orders exceed a cap
        # of 1,000 outcomes before any multiplicity is computed
        calls = []
        monkeypatch.setattr(enumeration, "multiplicity", lambda *args: calls.append(args))
        grid = RevenueGrid((1, 2, 3, 4, 5), (1, 2, 2, 3, 3))
        config = EconomyConfig(32, 96, Regime.MONOPOLISTIC)
        with pytest.raises(CapExceededError, match="outcome space has more than 1000") as err:
            enumerate_outcomes(grid, config, cap=1000)
        assert err.value.count is None and err.value.cap == 1000
        assert calls == []
        assert len(enumerate_orders(grid, config)) == 1143

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("total", [None, enumeration.MAX_WALK_FIRMS], ids=["free", "total"])
    def test_walk_takes_firms_up_to_its_bound(self, regime, total):
        # one level, one slot: a single outcome, walked one frame per firm
        n = enumeration.MAX_WALK_FIRMS
        groups = enumerate_outcomes(RevenueGrid((1,), (1,)), EconomyConfig(n, total, regime))
        assert [(order.occupancy, len(members)) for order, members in groups.items()] == [((n,), 1)]

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("n_firms", [enumeration.MAX_WALK_FIRMS + 1, 1_200])
    def test_more_firms_than_the_bound_refuse_before_listing(self, monkeypatch, regime, n_firms):
        # 1,200 firms used to end in a bare RecursionError
        def fail(*args, **kwargs):
            raise AssertionError("orders listed before the firm bound was checked")

        monkeypatch.setattr(enumeration, "enumerate_orders", fail)
        with pytest.raises(WalkDepthError, match="%d firms" % n_firms):
            enumerate_outcomes(RevenueGrid((1,), (1,)), EconomyConfig(n_firms, None, regime))


class TestCatalog:
    def test_two_firm_probabilities_exact(self):
        config = EconomyConfig(2, None, Regime.MONOPOLISTIC)
        cat = catalog(GRID_2, config)
        probs = {e.order.occupancy: e.probability for e in cat.entries}
        assert probs == {
            (1, 1): Fraction(1, 2),
            (0, 2): Fraction(1, 4),
            (2, 0): Fraction(1, 4),
        }
        assert sum(probs.values()) == 1

    def test_perfect_three_way_split(self):
        config = EconomyConfig(2, None, Regime.PERFECT)
        cat = catalog(GRID_2, config)
        assert all(e.probability == Fraction(1, 3) for e in cat.entries)

    def test_single_order_probability_one(self):
        config = EconomyConfig(2, 3, Regime.MONOPOLISTIC)
        cat = catalog(GRID_2, config)
        assert len(cat.entries) == 1
        assert cat.entries[0].probability == 1

    def test_entries_sorted_descending_with_lex_ties(self):
        config = EconomyConfig(4, None, Regime.MONOPOLISTIC)
        cat = catalog(GRID_2, config)
        omegas = [e.multiplicity for e in cat.entries]
        assert omegas == sorted(omegas, reverse=True)
        assert cat.entries[0].order.occupancy == (2, 2)

    @given(
        levels=LEVELS,
        n_firms=st.integers(1, 8),
        regime=st.sampled_from(list(Regime)),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_listed_records_equal_validated_ones(self, levels, n_firms, regime, data):
        # the listing builds its orders without EconomicOrder's checks, and
        # the catalog counts them without as_occupancy's
        total = data.draw(revenue_totals(levels, n_firms))
        degens = data.draw(st.lists(st.integers(1, 3), min_size=len(levels), max_size=len(levels)))
        grid = RevenueGrid(tuple(levels), tuple(degens))
        config = EconomyConfig(n_firms, total, regime)
        orders = enumerate_orders(grid, config)
        for order in orders:
            assert type(order) is EconomicOrder
            assert EconomicOrder(order.occupancy) == order
            assert hash(EconomicOrder(order.occupancy)) == hash(order)
            assert all(type(a) is int and a >= 0 for a in order.occupancy)
        if not orders:
            return
        cat = catalog(grid, config)
        assert list(cat.orders) == list(orders)
        assert cat.orders == orders
        for order, count in zip(cat.orders, cat.counts):
            assert count == multiplicity(list(order.occupancy), grid, regime)
        assert all(type(c) is int for c in accumulate(cat.counts))
        assert type(cat.total_outcomes) is int
        assert cat.total_outcomes == sum(cat.counts)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            catalog(GRID_2, EconomyConfig(2, 5, Regime.MONOPOLISTIC))

    @given(economy=feasible_economies(max_levels=5, max_degeneracy=3))
    @example(economy=(RevenueGrid((0, 1, 2, 3), (1, 1, 1, 1)), EconomyConfig(6, 9, Regime.PERFECT)))
    @example(economy=(RevenueGrid((1, 2, 3), (1, 1, 1)), EconomyConfig(2, None, Regime.MONOPOLISTIC)))
    @settings(max_examples=150, deadline=None)
    def test_views_equal_their_full_scan_definitions(self, economy):
        # the examples: every order tied; three tied at the top above three
        cat = catalog(*economy)
        listing = [
            CatalogEntry(order, count, Fraction(count, cat.total_outcomes))
            for order, count in zip(cat.orders, cat.counts)
        ]
        ranked = sorted(listing, key=lambda e: -e.multiplicity)  # stable
        assert list(cat.entries) == ranked
        assert [cat.entries[i] for i in range(-len(ranked), len(ranked))] == ranked + ranked
        assert cat.entries[1::2] == tuple(ranked[1::2])
        assert len(cat.entries) == len(listing)
        top = max(cat.counts)
        ties = tuple(e.order for e in listing if e.multiplicity == top)
        assert cat.tie_set() == ties
        assert cat.most_probable() == ties[0] == cat.entries[0].order
        with pytest.raises(IndexError):
            cat.entries[len(ranked)]
        # the orders view: a read-only sequence of records made from the columns
        orders, n = cat.orders, len(listing)
        listed = list(orders)
        assert [o.occupancy for o in listed] == list(zip(*orders.columns))
        assert all(type(o) is EconomicOrder for o in listed) and len(orders) == n
        assert [orders[i] for i in range(-n, n)] == listed + listed
        cuts = (slice(None), slice(1, None, 2), slice(None, None, -1), slice(n, None), slice(-2, 1))
        for cut in cuts:
            assert orders[cut] == tuple(listed[cut])
        for index in (n, -n - 1):
            with pytest.raises(IndexError):
                orders[index]
        again = enumerate_orders(*economy)
        assert again == orders and hash(again) == hash(orders) and again is not orders
        assert orders != tuple(listed) and orders != listed  # a view equals only a view
        copy = pickle.loads(pickle.dumps(orders))
        assert copy == orders and list(copy) == listed and copy.columns == orders.columns
        assert pickle.loads(pickle.dumps(cat)) == cat == catalog(*economy)
        assert hash(cat) == hash(catalog(*economy))

    @pytest.mark.parametrize("regime", list(Regime))
    def test_queries_never_sort(self, monkeypatch, regime):
        # only reading ``entries`` ranks the catalog, and only once
        sorts = []

        def counted(*args, **kwargs):
            sorts.append(args)
            return sorted(*args, **kwargs)

        monkeypatch.setattr(enumeration, "sorted", counted, raising=False)
        cat = five_level_catalog(regime)
        cat.most_probable(), cat.tie_set(), len(cat.entries)
        list(islice(cat.sample(3), 100))
        assert sorts == []
        cat.entries[0], cat.entries[1:], list(cat.entries)
        assert len(sorts) == 1

    @pytest.mark.parametrize(
        "economy, n_ties",
        [
            ((FIVE_LEVELS, EconomyConfig(30, 90, Regime.MONOPOLISTIC)), 1),
            ((FIVE_LEVELS, EconomyConfig(30, 90, Regime.PERFECT)), 1),
            ((RevenueGrid((1, 2, 3), (1, 1, 1)), EconomyConfig(2, None, Regime.MONOPOLISTIC)), 3),
        ],
        ids=["mon", "per", "three-ties"],
    )
    def test_queries_make_records_only_for_the_orders_they_return(
        self, monkeypatch, economy, n_ties
    ):
        # the listing, the counts and the top check make no record per
        # listed order: catalog makes the top one, for the closed form
        made = []

        def spy(cls, size, **slots):
            made.append((cls.__name__, size))
            return core._records(cls, size, **slots)

        monkeypatch.setattr(enumeration, "_records", spy)
        cat = catalog(*economy)
        assert made == [("EconomicOrder", 1)]
        cat.most_probable()
        assert made[1:] == [("EconomicOrder", 1)]
        assert len(cat.tie_set()) == n_ties
        assert made[2:] == [("EconomicOrder", n_ties)]
        assert len(cat.orders) > n_ties
        # a stream makes each drawn order's record once, and its draws share
        # it; 448 draws fill the 64, 128 and 256-draw batches exactly
        del made[:]
        drawn = [o.drawn_order for o in islice(cat.sample(5), 448)]
        orders_made = sum(size for name, size in made if name == "EconomicOrder")
        assert orders_made == len(set(drawn)) == len({id(order) for order in drawn})

    @given(economy=feasible_economies(max_levels=5))
    @example(economy=(FIVE_LEVELS, EconomyConfig(30, 90, Regime.PERFECT)))
    @settings(max_examples=100, deadline=None)
    def test_artifacts_from_the_columns_render_the_entries(self, tmp_path_factory, economy):
        # orders.csv and spontaneous.json are written from the columns; the
        # reference renders each entry through its Fraction
        cat = catalog(*economy)
        path = tmp_path_factory.mktemp("out") / "orders.csv"
        reports.write_orders_csv(path, cat)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(
            ["occupancy", "multiplicity", "probability_num", "probability_den", "probability_float"]
        )
        for e in cat.entries:
            p = e.probability
            occupancy = " ".join(str(a) for a in e.order.occupancy)
            writer.writerow([occupancy, e.multiplicity, p.numerator, p.denominator, repr(float(p))])
        assert path.read_text() == expected.getvalue()
        top = cat.entries[0]
        assert reports.spontaneous_payload(cat) == {
            "order": list(top.order.occupancy),
            "multiplicity": str(top.multiplicity),
            "probability_num": str(top.probability.numerator),
            "probability_den": str(top.probability.denominator),
            "probability_float": float(top.probability),
            "tie_set": [list(o.occupancy) for o in cat.tie_set()],
            "total_outcomes": str(cat.total_outcomes),
            "n_orders": len(cat.entries),
        }

    def test_columns_are_the_only_stored_listing(self):
        # the running totals are the sampler's, and the listing-order pairs
        # are zip(orders, counts): neither is a field or a view
        names = [f.name for f in dataclasses.fields(enumeration.OrderCatalog)]
        assert names == ["orders", "counts", "total_outcomes", "degeneracies", "regime", "entries"]
        assert not hasattr(five_level_catalog(Regime.PERFECT), "listing")
        assert list(inspect.signature(enumeration._Entries).parameters) == ["orders", "counts", "total"]

    def test_replaced_entries_round_trip(self):
        # how bench/selftest.py builds wrong catalogs for its gates
        cat = five_level_catalog(Regime.MONOPOLISTIC)
        entries = tuple(cat.entries)
        assert cat.entries[1:] == entries[1:]
        same = dataclasses.replace(cat, entries=entries)
        assert same.entries is entries
        assert (same.orders, same.counts, same.total_outcomes) == (
            cat.orders, cat.counts, cat.total_outcomes
        )
        e0 = entries[0]
        wrong = CatalogEntry(e0.order, e0.multiplicity, e0.probability + Fraction(1, cat.total_outcomes))
        skewed = dataclasses.replace(cat, entries=(wrong,) + cat.entries[1:])
        assert skewed.entries == (wrong,) + entries[1:]
        assert list(dataclasses.replace(cat).entries) == list(entries)

    def test_probabilities_invariant_under_money_rescaling(self):
        base = catalog(GRID_3, EconomyConfig(4, 8, Regime.MONOPOLISTIC))
        for c in (2, 10):
            scaled = catalog(GRID_3.scaled(c), EconomyConfig(4, 8 * c, Regime.MONOPOLISTIC))
            assert [(e.order, e.probability) for e in scaled.entries] == [
                (e.order, e.probability) for e in base.entries
            ]


class TestCatalogEntry:
    @pytest.mark.parametrize("regime", list(Regime))
    def test_probability_is_reduced_on_first_read_and_kept(self, regime):
        cat = five_level_catalog(regime)
        total = cat.total_outcomes
        reduced = 0
        for entry in cat.entries:
            probability = entry.probability
            assert probability == Fraction(entry.multiplicity, total)
            assert math.gcd(probability.numerator, probability.denominator) == 1
            assert entry.probability is probability
            reduced += probability.denominator != total
        assert (total.bit_length(), reduced) == FIVE_LEVEL_TOTALS[regime]

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize(
        "view",
        [lambda e: e, hash, repr, pickle.dumps, dataclasses.asdict, dataclasses.astuple],
        ids=["eq", "hash", "repr", "pickle", "asdict", "astuple"],
    )
    def test_catalog_entries_match_constructed_ones(self, regime, view):
        # every entry the view makes equals the one the constructor builds
        cat = five_level_catalog(regime)
        for entry in cat.entries:
            built = CatalogEntry(
                entry.order, entry.multiplicity, Fraction(entry.multiplicity, cat.total_outcomes)
            )
            assert view(entry) == view(built)

    def test_entries_stay_frozen_dataclasses(self):
        entry = five_level_catalog(Regime.PERFECT).entries[0]
        assert [f.name for f in dataclasses.fields(entry)] == ["order", "multiplicity", "probability"]
        assert dataclasses.replace(entry) == entry
        assert pickle.loads(pickle.dumps(entry)) == entry
        for name in ("multiplicity", "probability"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(entry, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(entry, name)

    def test_constructor_keeps_the_probability_it_is_given(self):
        given_probability = Fraction(2, 3)
        entry = CatalogEntry(EconomicOrder((1, 1)), 2, given_probability)
        assert entry.probability is given_probability
        assert entry != CatalogEntry(EconomicOrder((1, 1)), 2, Fraction(1, 3))

    @given(economy=feasible_economies())
    @example(economy=(FIVE_LEVELS, EconomyConfig(30, 90, Regime.MONOPOLISTIC)))
    @settings(max_examples=100, deadline=None)
    def test_float_probability_is_multiplicity_over_total(self, economy):
        # what the artifacts and check_sampler read instead of the Fraction
        cat = catalog(*economy)
        for entry in cat.entries:
            assert entry.multiplicity / cat.total_outcomes == float(entry.probability)

    @pytest.mark.parametrize("regime", list(Regime))
    def test_catalog_calls_multiplicity_once_on_the_top_entry(self, monkeypatch, regime):
        # the column tables count every order; the closed form checks the top one
        calls = []

        def counted(order, grid, regime):
            calls.append(order)
            return multiplicity(order, grid, regime)

        monkeypatch.setattr(enumeration, "multiplicity", counted)
        cat = five_level_catalog(regime)
        assert calls == [cat.entries[0].order]

    # once as the selector picks the listing member, once with the array
    # member forced wherever a total lies on three or more levels, so that
    # per catalogs are counted on its int64 columns and mon catalogs by the
    # ratio walk
    @pytest.mark.parametrize("constants", [{}, ARRAY_MEMBER], ids=["selected", "array-member"])
    @given(economy=feasible_economies(max_levels=5, max_degeneracy=4))
    # a gapped tail: on levels 3 7 20, step, a_down and rest_up are 13, 17
    # and 4; 11 orders, two of which continue a run
    @example(economy=(RevenueGrid((0, 3, 7, 20), (2, 3, 4, 2)), EconomyConfig(21, 139, Regime.MONOPOLISTIC)))
    # three levels: the listing is one run
    @example(economy=(RevenueGrid((1, 2, 3), (2, 1, 3)), EconomyConfig(12, 24, Regime.MONOPOLISTIC)))
    # every row starts a run: 10 orders, none continuing
    @example(economy=(RevenueGrid((0, 3, 7, 20), (2, 1, 3, 2)), EconomyConfig(20, 100, Regime.MONOPOLISTIC)))
    # long runs: 884 orders in 67 runs, the longest 26 rows
    @example(economy=(RevenueGrid((1, 2, 3, 4), (2, 1, 3, 2)), EconomyConfig(200, 300, Regime.MONOPOLISTIC)))
    @example(economy=(RevenueGrid((0,), (4,)), EconomyConfig(12, 0, Regime.MONOPOLISTIC)))
    @example(economy=(RevenueGrid((0, 3, 4, 9, 12), (4, 1, 3, 1, 2)), EconomyConfig(12, None, Regime.PERFECT)))
    # 10^4 firms, a_2 <= 6: the order (9994, 0, 6) counts C(g_2 + 5, 6), the
    # int64 route's bound, 0.99865 * 2**63 at g_2 = 4332 and 1.00003 * 2**63
    # at g_2 = 4333, one past the bound
    @example(economy=(RevenueGrid((1, 2, 3), (1, 1, 4332)), EconomyConfig(10**4, 10**4 + 12, Regime.PERFECT)))
    @example(economy=(RevenueGrid((1, 2, 3), (1, 1, 4333)), EconomyConfig(10**4, 10**4 + 12, Regime.PERFECT)))
    # a_0 = a_2 <= 6: each level's factors fit int64, their products do not
    @example(economy=(RevenueGrid((1, 2, 3), (4332, 1, 4332)), EconomyConfig(12, 24, Regime.PERFECT)))
    # what the selector itself hands to the array member on three levels:
    # B = 1001, one run of 501 orders; and B = 401 with a gap and level 0
    @example(economy=(RevenueGrid((1, 2, 3), (2, 1, 3)), EconomyConfig(1000, 2000, Regime.MONOPOLISTIC)))
    @example(economy=(RevenueGrid((1, 2, 3), (2, 1, 3)), EconomyConfig(1000, 2000, Regime.PERFECT)))
    @example(economy=(RevenueGrid((0, 3, 7), (2, 3, 2)), EconomyConfig(400, 1400, Regime.MONOPOLISTIC)))
    # one order, (0, 0, 400), yet B = 401: a run with no continuing row
    @example(economy=(RevenueGrid((1, 2, 3), (2, 1, 3)), EconomyConfig(400, 1200, Regime.MONOPOLISTIC)))
    @settings(max_examples=200, deadline=None)
    def test_column_counts_equal_multiplicity(self, constants, economy):
        grid, config = economy
        with pytest.MonkeyPatch.context() as patch:
            for name, value in constants.items():
                patch.setattr(enumeration, name, value)
            cat = catalog(grid, config)
        for order, count in zip(cat.orders, cat.counts):
            # a Python int, so that no artifact sees a numpy integer
            assert type(count) is int and count == multiplicity(order, grid, config.regime)
        assert all(type(a) is int for column in cat.orders.columns for a in column)
        assert cat.orders.arrays is None
        assert cat.total_outcomes == feasible_outcome_count(grid, config)


class TestSpontaneousOrder:
    def test_even_split_most_probable(self):
        cat = catalog(GRID_2, EconomyConfig(2, None, Regime.MONOPOLISTIC))
        assert cat.most_probable().occupancy == (1, 1)

    def test_single_feasible_order(self):
        cat = catalog(GRID_2, EconomyConfig(2, 3, Regime.MONOPOLISTIC))
        assert cat.most_probable().occupancy == (1, 1)

    def test_perfect_tie_reported_and_lex_smallest_chosen(self):
        cat = catalog(GRID_2, EconomyConfig(2, None, Regime.PERFECT))
        assert cat.most_probable().occupancy == (0, 2)
        assert [o.occupancy for o in cat.tie_set()] == [(0, 2), (1, 1), (2, 0)]

    @given(economy=feasible_economies(max_levels=5, max_degeneracy=2))
    @example(economy=(RevenueGrid((0, 1, 2, 3), (1, 1, 1, 1)), EconomyConfig(6, 9, Regime.PERFECT)))
    @example(economy=(RevenueGrid((1, 2, 3), (1, 1, 1)), EconomyConfig(2, None, Regime.MONOPOLISTIC)))
    @settings(max_examples=100, deadline=None)
    def test_tie_set_is_every_entry_at_the_top_count(self, economy):
        # the examples: every order tied; three tied at the top above three
        cat = catalog(*economy)
        top = max(e.multiplicity for e in cat.entries)
        assert cat.tie_set() == tuple(e.order for e in cat.entries if e.multiplicity == top)

    # each listing member forced wherever a total lies on three or more
    # levels, so that per catalogs take their ties on the int64 counts of
    # the array member and on the chain's Python ints of the stack member
    @pytest.mark.parametrize("constants", [STACK_MEMBER, ARRAY_MEMBER], ids=["stack", "array"])
    @given(economy=feasible_economies(max_levels=5, max_degeneracy=4))
    # many ties on the int64 route: a per count is a_4 + 1, so every order
    # with the largest a_4 ties
    @example(economy=(RevenueGrid((1, 2, 3, 4, 5), (1, 1, 1, 1, 2)), EconomyConfig(30, 90, Regime.PERFECT)))
    # every order counts 1 and ties: 956 orders
    @example(economy=(RevenueGrid((1, 2, 3, 4, 5), (1, 1, 1, 1, 1)), EconomyConfig(30, 90, Regime.PERFECT)))
    @example(economy=(RevenueGrid((0, 3, 4, 9, 12), (1, 1, 1, 1, 1)), EconomyConfig(12, None, Regime.PERFECT)))
    @settings(max_examples=150, deadline=None)
    def test_top_and_ties_are_the_first_and_every_order_at_the_largest_count(
        self, constants, economy
    ):
        grid, config = economy
        with pytest.MonkeyPatch.context() as patch:
            for name, value in constants.items():
                patch.setattr(enumeration, name, value)
            cat = catalog(grid, config)
        best = max(cat.counts)
        ties = tuple(order for order, count in zip(cat.orders, cat.counts) if count == best)
        fields = (cat.orders, cat.counts, cat.total_outcomes, cat.degeneracies, cat.regime)
        for built in (cat, enumeration.OrderCatalog(*fields)):
            assert built.most_probable() == ties[0]
            assert built.tie_set() == ties
            assert built._top == cat.counts.index(best)

    def test_constrained_argmax_against_direct_comparison(self):
        grid = GRID_3
        config = EconomyConfig(4, 8, Regime.MONOPOLISTIC)
        cat = catalog(grid, config)
        best = max(
            enumerate_orders(grid, config),
            key=lambda o: (multiplicity(o, grid, config.regime),
                           tuple(-a for a in o.occupancy)),
        )
        assert cat.most_probable() == best

    def test_argmax_matches_largest_outcome_group(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            grid, config = random_counting_instance(rng)
            orders = enumerate_orders(grid, config)
            if not orders:
                continue
            cat = catalog(grid, config)
            groups = enumerate_outcomes(grid, config, cap=200_000)
            best_by_size = max(len(m) for m in groups.values())
            chosen = cat.most_probable()
            assert len(groups[chosen]) == best_by_size


class TestSampling:
    def test_constrained_two_firm_alternates_over_split_outcomes(self):
        config = EconomyConfig(2, 3, Regime.MONOPOLISTIC)
        stream = sample_outcomes(GRID_2, config, seed=5)
        drawn = list(islice(stream, 400))
        assignments = {d.assignment for d in drawn}
        assert assignments == {((0, 0), (1, 0)), ((1, 0), (0, 0))}
        share = sum(1 for d in drawn if d.assignment == ((0, 0), (1, 0))) / 400
        assert 0.4 < share < 0.6

    def test_single_firm_economy(self):
        grid = RevenueGrid((2,), (1,))
        config = EconomyConfig(1, 2, Regime.MONOPOLISTIC)
        outcome = next(sample_outcomes(grid, config, seed=0))
        assert outcome.assignment == ((0, 0),)

    def test_determinism_across_streams(self):
        config = EconomyConfig(4, 6, Regime.MONOPOLISTIC)
        a = list(islice(sample_outcomes(GRID_2, config, seed=33), 50))
        b = list(islice(sample_outcomes(GRID_2, config, seed=33), 50))
        assert a == b
        c = list(islice(sample_outcomes(GRID_2, config, seed=34), 50))
        assert a != c

    def test_uniform_frequencies_within_three_sigma(self):
        grid = RevenueGrid((1, 2), (1, 1))
        config = EconomyConfig(4, 6, Regime.MONOPOLISTIC)
        cat = catalog(grid, config)
        draws = 100_000
        freqs = empirical_frequencies(
            islice(sample_outcomes(grid, config, seed=8), draws), grid
        )
        for entry in cat.entries:
            p = float(entry.probability)
            sigma = math.sqrt(p * (1 - p) / draws)
            observed = float(freqs.get(entry.order, Fraction(0)))
            assert abs(observed - p) <= 3 * sigma + 1e-12

    def test_infeasible_sampling_raises(self):
        with pytest.raises(InfeasibleError):
            sample_outcomes(GRID_2, EconomyConfig(2, 5, Regime.MONOPOLISTIC), seed=0)

    @pytest.mark.parametrize("grid, config", SAMPLER_GRIDS, ids=SAMPLER_IDS)
    def test_micro_outcome_chi_square(self, grid, config):
        # every feasible micro-outcome, not only every order, is equally likely
        outcomes = [o for group in enumerate_outcomes(grid, config).values() for o in group]
        draws = 50 * len(outcomes)
        tally = dict.fromkeys(outcomes, 0)
        for outcome in islice(sample_outcomes(grid, config, seed=17), draws):
            tally[outcome] += 1  # a KeyError would be an infeasible draw
        assert len(tally) == len(outcomes) and min(tally.values()) > 0
        pvalue = stats.chisquare(list(tally.values())).pvalue
        assert pvalue > 0.001

    @pytest.mark.parametrize("grid, config", SAMPLER_GRIDS, ids=SAMPLER_IDS)
    def test_slot_built_outcomes_equal_constructed_ones(self, grid, config):
        # the sampler sets an outcome's slots directly, skipping __init__
        for outcome in islice(sample_outcomes(grid, config, seed=23), 64 + 128 + 256):
            built = MicroOutcome(outcome.regime, outcome.assignment, outcome.drawn_order)
            assert outcome == built and hash(outcome) == hash(built)
            assert repr(outcome) == repr(built)
            assert outcome.drawn_order is built.drawn_order
            assert pickle.dumps(outcome) == pickle.dumps(built)
            copy = pickle.loads(pickle.dumps(outcome))
            assert copy == built and copy.drawn_order == built.drawn_order
            replaced = dataclasses.replace(outcome)
            assert replaced == built and replaced.drawn_order is built.drawn_order

    @pytest.mark.parametrize(
        "grid, config, total",
        [
            (RevenueGrid((2,), (1,)), EconomyConfig(1, 2, Regime.MONOPOLISTIC), 1),
            (RevenueGrid((2,), (1,)), EconomyConfig(3, 6, Regime.PERFECT), 1),
            (GRID_2, EconomyConfig(3, None, Regime.MONOPOLISTIC), 8),
            (GRID_2, EconomyConfig(7, None, Regime.PERFECT), 8),
            (
                RevenueGrid((1, 2, 3, 4, 5), (12, 2, 3, 2, 3)),
                EconomyConfig(40, 70, Regime.MONOPOLISTIC),
                None,
            ),
            (
                RevenueGrid((1, 2, 3, 4, 5), (30, 20, 30, 20, 30)),
                EconomyConfig(40, 90, Regime.PERFECT),
                None,
            ),
        ],
        ids=["mon-1", "per-1", "mon-8", "per-8", "mon-over-64-bits", "per-over-64-bits"],
    )
    def test_picks_consume_the_stream_as_randrange_does(self, grid, config, total):
        # a total of 1 or a power of two rejects half of its raw draws
        cat = catalog(grid, config)
        if total is None:
            assert cat.total_outcomes.bit_length() > 64
        else:
            assert cat.total_outcomes == total
        rng = random.Random(31)
        rng.getrandbits(128)  # the numpy Generator's seed
        cumulative = list(accumulate(cat.counts))
        expected = [
            cat.orders[bisect_right(cumulative, rng.randrange(cat.total_outcomes))]
            for _ in range(64 + 128)  # the first two batches
        ]
        assert [o.drawn_order for o in islice(cat.sample(31), 64 + 128)] == expected

    def test_grid_without_shared_pair_sums_reaches_both_orders(self):
        # on levels (1, 3, 4) no two distinct level pairs share a revenue sum,
        # the grid on which a pair-move chain never leaves its first order
        grid = RevenueGrid((1, 3, 4), (1, 2, 1))
        config = EconomyConfig(6, 14, Regime.PERFECT)
        cat = catalog(grid, config)
        assert {e.order.occupancy: e.probability for e in cat.entries} == {
            (2, 4, 0): Fraction(5, 7),
            (3, 1, 2): Fraction(2, 7),
        }
        draws = 20_000
        freqs = empirical_frequencies(islice(sample_outcomes(grid, config, seed=5), draws), grid)
        assert set(freqs) == {e.order for e in cat.entries}
        for entry in cat.entries:
            p = float(entry.probability)
            sigma = math.sqrt(p * (1 - p) / draws)
            assert abs(float(freqs[entry.order]) - p) <= 4 * sigma

    def test_order_cap_raises_before_sampling(self):
        grid = RevenueGrid((1, 3, 4), (1, 2, 1))
        config = EconomyConfig(6, 14, Regime.PERFECT)  # 2 orders, 7 outcomes
        with pytest.raises(CapExceededError):
            sample_outcomes(grid, config, seed=0, cap=1)
        # the cap bounds orders, not outcomes: 2 orders fit under a cap of 2
        stream = sample_outcomes(grid, config, seed=0, cap=2)
        assert next(stream).order(grid).occupancy in {(2, 4, 0), (3, 1, 2)}

    @given(
        levels=st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True).map(sorted),
        degens=st.lists(st.integers(1, 4), min_size=4, max_size=4),
        n_firms=st.integers(1, 7),
        regime=st.sampled_from(list(Regime)),
        picks=st.lists(st.integers(0, 3), min_size=7, max_size=7),
        seed=st.integers(0, 2**40),
        k=st.integers(1, 150),
        m=st.integers(1, 100),
    )
    @settings(max_examples=60, deadline=None)
    def test_draws_feasible_and_seeded(self, levels, degens, n_firms, regime, picks, seed, k, m):
        # levels 1..12 leave gaps, degeneracies 1..4 give one-slot levels, and
        # a few firms over up to four levels leave levels empty; k and k + m
        # fall on both sides of the sampler's first batch of draws
        grid = RevenueGrid(tuple(levels), tuple(degens[: len(levels)]))
        # a realisable total: the revenue of some placement of the firms
        total = sum(levels[p % len(levels)] for p in picks[:n_firms])
        config = EconomyConfig(n_firms, total, regime)
        stream = sample_outcomes(grid, config, seed)
        assert inspect.isgenerator(stream)
        longer = list(islice(stream, k + m))
        first = list(islice(sample_outcomes(grid, config, seed), k))
        assert [(o.assignment, o.drawn_order) for o in first] == [
            (o.assignment, o.drawn_order) for o in longer[:k]
        ]
        for outcome in longer:
            assert outcome.drawn_order == outcome.order(grid)
            assert validate_order(outcome.drawn_order, grid, config).feasible
            if regime is Regime.MONOPOLISTIC:
                placed = [(pos, 1) for pos in outcome.assignment]
            else:
                placed = list(outcome.assignment)
                assert placed == sorted(placed) and all(c > 0 for _, c in placed)
            assert all(type(x) is int for (level, slot), c in placed for x in (level, slot, c))
            assert all(0 <= slot < grid.degeneracies[level] for (level, slot), _ in placed)
            assert sum(c for _, c in placed) == n_firms
            assert sum(c * grid.levels[level] for (level, _), c in placed) == total


class TestEmpiricalFrequencies:
    def test_single_outcome_stream(self):
        config = EconomyConfig(2, 3, Regime.MONOPOLISTIC)
        stream = sample_outcomes(GRID_2, config, seed=1)
        freqs = empirical_frequencies(islice(stream, 1), GRID_2)
        assert freqs == {EconomicOrder((1, 1)): Fraction(1)}

    def test_uniform_four_outcome_stream(self):
        # feeding the four unconstrained two-firm outcomes once each puts
        # half the mass on the even split
        config = EconomyConfig(2, None, Regime.MONOPOLISTIC)
        groups = enumerate_outcomes(GRID_2, config)
        all_outcomes = [m for members in groups.values() for m in members]
        freqs = empirical_frequencies(all_outcomes, GRID_2)
        assert freqs[EconomicOrder((1, 1))] == Fraction(1, 2)

    def test_frequencies_sum_to_one(self):
        config = EconomyConfig(4, None, Regime.PERFECT)
        stream = sample_outcomes(GRID_2, config, seed=2)
        freqs = empirical_frequencies(islice(stream, 999), GRID_2)
        assert sum(freqs.values()) == 1

    def test_empty_stream_raises(self):
        with pytest.raises(InfeasibleError):
            empirical_frequencies([], GRID_2)

    def test_outcomes_without_a_carried_order(self):
        # enumerated and hand-built outcomes carry no order; it is read off the assignment
        config = EconomyConfig(2, None, Regime.PERFECT)
        enumerated = [m for group in enumerate_outcomes(GRID_2, config).values() for m in group]
        assert all(m.drawn_order is None for m in enumerated)
        by_hand = MicroOutcome(Regime.PERFECT, (((0, 0), 1), ((1, 0), 1)))
        freqs = empirical_frequencies(enumerated + [by_hand], GRID_2)
        assert freqs == {
            EconomicOrder((0, 2)): Fraction(1, 4),
            EconomicOrder((1, 1)): Fraction(1, 2),
            EconomicOrder((2, 0)): Fraction(1, 4),
        }

    def test_equal_orders_from_separate_catalogs_share_one_key(self):
        grid = RevenueGrid((1, 2, 3), (2, 3, 2))
        config = EconomyConfig(6, 12, Regime.PERFECT)
        first = list(islice(catalog(grid, config).sample(1), 300))
        second = list(islice(catalog(grid, config).sample(2), 300))
        assert first[0].drawn_order is not second[0].drawn_order
        by_hand = [MicroOutcome(o.regime, o.assignment) for o in first[:100]]
        stream = first + second + by_hand
        freqs = empirical_frequencies(stream, grid)
        keys = [order.occupancy for order in freqs]
        assert all(type(order) is EconomicOrder for order in freqs)
        assert keys == sorted(set(keys))  # one key per order, sorted by occupancy
        tally = Counter(o.order(grid).occupancy for o in stream)
        assert {order.occupancy: p for order, p in freqs.items()} == {
            occ: Fraction(count, len(stream)) for occ, count in tally.items()
        }
        assert sum(freqs.values()) == 1

    def test_carried_order_is_tallied_and_left_out_of_equality(self):
        config = EconomyConfig(4, 6, Regime.MONOPOLISTIC)
        drawn = list(islice(sample_outcomes(GRID_2, config, seed=3), 50))
        enumerated = {m for group in enumerate_outcomes(GRID_2, config).values() for m in group}
        for outcome in drawn:
            bare = MicroOutcome(outcome.regime, outcome.assignment)
            assert outcome == bare and hash(outcome) == hash(bare)
            assert outcome in enumerated
        # the tally reads the carried order, not the assignment
        relabelled = [
            MicroOutcome(o.regime, o.assignment, EconomicOrder((4, 0))) for o in drawn
        ]
        assert empirical_frequencies(relabelled, GRID_2) == {EconomicOrder((4, 0)): Fraction(1)}


def test_feasible_outcome_count_matches_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(10):
        grid, config = random_counting_instance(rng)
        total = feasible_outcome_count(grid, config)
        groups = enumerate_outcomes(grid, config, cap=200_000)
        assert total == sum(len(m) for m in groups.values())


# The placement of sampled outcomes, one numpy call or more per bar, kept
# here verbatim as the reference for the stream the batched placers must
# reproduce: the same assignments and the same Generator state after.
def _positions(degeneracies: tuple[int, ...]) -> list:
    return [(k, s) for k, g in enumerate(degeneracies) for s in range(g)]


def _place_firms(
    gen: np.random.Generator, occ: np.ndarray, degeneracies: tuple[int, ...]
) -> list[tuple]:
    """One uniform outcome per row of ``occ``, distinguishable firms.

    The level labels of each row are shuffled over the firms, and each firm
    draws a slot below its level's degeneracy (a single slot draws nothing).
    """
    size, n_levels = occ.shape
    labels = np.repeat(np.tile(np.arange(n_levels), size), occ.ravel()).reshape(size, -1)
    labels = gen.permuted(labels, axis=1)
    g = np.array(degeneracies)
    first = np.cumsum(g) - g  # index of each level's slot 0 in the position list
    flat = first[labels] + gen.integers(0, g[labels])
    positions = _positions(degeneracies).__getitem__
    return [tuple(map(positions, row)) for row in flat.tolist()]


def _place_units(
    gen: np.random.Generator, occ: np.ndarray, degeneracies: tuple[int, ...]
) -> list[tuple]:
    """One uniform outcome per row of ``occ``, indistinguishable firms.

    The a firms and g - 1 bars of a level fill a + g - 1 places; Floyd's
    algorithm picks the bar places with one integer draw each, the i-th draw
    uniform on 0..a+i and replaced by a+i if that place is taken, and slot j
    holds the places between bars j - 1 and j.
    """
    size = len(occ)
    batch = np.arange(size)
    table = np.empty((size, sum(degeneracies)), dtype=np.int64)
    col = 0
    for k, g in enumerate(degeneracies):
        a = occ[:, k]
        if g == 1:
            table[:, col] = a
        else:
            taken = np.zeros((size, int(a.max()) + g - 1), dtype=bool)
            for i in range(g - 1):
                place = gen.integers(0, a + i + 1)
                taken[batch, np.where(taken[batch, place], a + i, place)] = True
            bars = np.nonzero(taken)[1].reshape(size, g - 1)  # each row's bar places, in order
            table[:, col] = bars[:, 0]
            table[:, col + 1 : col + g - 1] = np.diff(bars, axis=1) - 1
            table[:, col + g - 1] = a + g - 2 - bars[:, -1]
        col += g
    rows, cols = np.nonzero(table)  # row by row, each row's columns in position order
    positions = map(_positions(degeneracies).__getitem__, cols.tolist())
    pairs = list(zip(positions, table[rows, cols].tolist()))
    ends = np.cumsum(np.count_nonzero(table, axis=1)).tolist()
    return [tuple(pairs[start:end]) for start, end in zip([0, *ends], ends)]


class TestPlacementStream:
    @given(
        degeneracies=st.lists(st.integers(1, 7), min_size=1, max_size=5).map(tuple),
        n_firms=st.integers(1, 12),
        size=st.integers(1, 300),
        spread=st.integers(1, 5),
        occ_seed=st.integers(0, 2**32),
        seed=st.integers(0, 2**64),
    )
    @settings(max_examples=150, deadline=None)
    def test_batched_placers_reproduce_the_per_bar_stream(
        self, degeneracies, n_firms, size, spread, occ_seed, seed
    ):
        # each row puts its firms on at most ``spread`` levels, so levels are
        # often empty; one-slot levels come with degeneracy 1
        n_levels = len(degeneracies)
        pick = random.Random(occ_seed)
        rows = []
        for _ in range(size):
            used = pick.sample(range(n_levels), min(spread, n_levels))
            row = [0] * n_levels
            for _ in range(n_firms):
                row[pick.choice(used)] += 1
            rows.append(tuple(row))
        occ = np.array(rows)
        for reference, placer in (
            (_place_firms, enumeration._place_firms),
            (_place_units, enumeration._place_units),
        ):
            expected_gen, gen = np.random.default_rng(seed), np.random.default_rng(seed)
            expected = reference(expected_gen, occ, degeneracies)
            assert placer(degeneracies)(gen, occ) == expected
            assert gen.bit_generator.state == expected_gen.bit_generator.state

    @pytest.mark.parametrize(
        "grid, config, digest", [(*case, d) for case, d in zip(SAMPLER_GRIDS, SAMPLER_DIGESTS)],
        ids=SAMPLER_IDS,
    )
    def test_first_draws_keep_their_digest(self, grid, config, digest):
        drawn = list(islice(catalog(grid, config).sample(41), 449))
        assert hashlib.sha256(repr(drawn).encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "regime, digest",
        [
            (Regime.MONOPOLISTIC, "13079fd617e5a6df3d5671957335fe479b3d45544e781c746eaa99b6065f781a"),
            (Regime.PERFECT, "3e9b5589e379b911815e304177f2fa444988a1f70efede21e8b09b65b991138d"),
        ],
        ids=["mon", "per"],
    )
    def test_thousand_draws_from_the_order_column_keep_their_digest(self, regime, digest):
        # sha256 of each draw's assignment and carried order, taken when the
        # sampler still picked from a list of catalog entries (956 orders)
        drawn = list(islice(five_level_catalog(regime).sample(2024), 1000))
        text = repr([(d.assignment, d.drawn_order.occupancy) for d in drawn])
        assert hashlib.sha256(text.encode()).hexdigest() == digest
