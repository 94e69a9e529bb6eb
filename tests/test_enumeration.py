"""Enumeration, exact catalogs, argmax selection, and uniform sampling."""

import inspect
import itertools
import math
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from econorder import (
    CapExceededError,
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
from econorder.checks import random_counting_instance

GRID_2 = RevenueGrid((1, 2), (1, 1))
GRID_3 = RevenueGrid((1, 2, 3), (1, 1, 1))

# Grids with gaps and level 0, and totals that are unconstrained, realisable
# or arbitrary (often infeasible).
LEVELS = st.lists(st.integers(0, 12), min_size=1, max_size=6, unique=True).map(sorted)


def revenue_totals(levels, n_firms):
    return st.one_of(
        st.none(),
        st.lists(st.sampled_from(levels), min_size=n_firms, max_size=n_firms).map(sum),
        st.integers(0, n_firms * levels[-1] + 2),
    )


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
        assert enumerate_orders(GRID_2, config) == []

    def test_lexicographic_order(self):
        config = EconomyConfig(4, None, Regime.MONOPOLISTIC)
        occs = [o.occupancy for o in enumerate_orders(GRID_2, config)]
        assert occs == sorted(occs)

    @given(levels=LEVELS, n_firms=st.integers(1, 8), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, levels, n_firms, data):
        total = data.draw(revenue_totals(levels, n_firms))
        grid = RevenueGrid(tuple(levels), ())
        config = EconomyConfig(n_firms, total, Regime.PERFECT)
        expected = []
        for head in itertools.product(range(n_firms + 1), repeat=len(levels) - 1):
            occ = head + (n_firms - sum(head),)
            if occ[-1] >= 0 and (total is None or sum(a * e for a, e in zip(occ, levels)) == total):
                expected.append(occ)
        expected.sort()
        assert [o.occupancy for o in enumerate_orders(grid, config)] == expected
        capped = enumerate_orders(grid, config, cap=len(expected))
        assert [o.occupancy for o in capped] == expected
        if expected:
            with pytest.raises(CapExceededError):
                enumerate_orders(grid, config, cap=len(expected) - 1)


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

    @pytest.mark.parametrize("count", [1.5, -1])
    def test_order_of_a_hand_built_outcome_checks_its_counts(self, count):
        outcome = MicroOutcome(Regime.PERFECT, (((0, 0), count),))
        with pytest.raises(ConfigError, match="non-negative integers"):
            outcome.order(1)

    def test_cap_refusal_names_the_bound(self):
        config = EconomyConfig(12, None, Regime.MONOPOLISTIC)
        with pytest.raises(CapExceededError) as err:
            enumerate_outcomes(GRID_2, config, cap=100)
        assert err.value.count == 2**12
        assert err.value.cap == 100


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
        assert [entry.order for entry in cat.listing] == orders
        for entry in cat.listing:
            assert entry.multiplicity == multiplicity(list(entry.order.occupancy), grid, regime)
            assert entry.probability == Fraction(entry.multiplicity, cat.total_outcomes)
        assert all(type(c) is int for c in cat.cumulative)
        assert type(cat.total_outcomes) is int

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            catalog(GRID_2, EconomyConfig(2, 5, Regime.MONOPOLISTIC))

    def test_probabilities_invariant_under_money_rescaling(self):
        base = catalog(GRID_3, EconomyConfig(4, 8, Regime.MONOPOLISTIC))
        for c in (2, 10):
            scaled = catalog(GRID_3.scaled(c), EconomyConfig(4, 8 * c, Regime.MONOPOLISTIC))
            assert [(e.order, e.probability) for e in scaled.entries] == [
                (e.order, e.probability) for e in base.entries
            ]


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

    @pytest.mark.parametrize(
        "grid, config",
        [
            (RevenueGrid((1, 2, 3), (1, 2, 2)), EconomyConfig(4, 8, Regime.MONOPOLISTIC)),
            (RevenueGrid((1, 2, 3), (2, 3, 2)), EconomyConfig(6, 12, Regime.PERFECT)),
            # levels of 3 and 4 slots beside a one-slot level
            (RevenueGrid((1, 2, 3), (3, 1, 4)), EconomyConfig(5, 10, Regime.PERFECT)),
            # orders (0, 3, 1) and (2, 0, 2) each leave a level empty
            (RevenueGrid((1, 2, 4), (3, 1, 3)), EconomyConfig(4, 10, Regime.PERFECT)),
            # firms on the one-slot level take slot 0; (0, 4, 0) puts all there
            (RevenueGrid((1, 2, 3), (2, 1, 3)), EconomyConfig(4, 8, Regime.MONOPOLISTIC)),
        ],
        ids=["mon", "per", "per-wide-beside-one-slot", "per-empty-levels", "mon-one-slot-level"],
    )
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
        assert next(stream).order(grid.n).occupancy in {(2, 4, 0), (3, 1, 2)}

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
            assert outcome.drawn_order == outcome.order(grid.n)
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
