"""Multiplicity counting against brute-force and big-integer oracles."""

import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from econorder import (
    EconomicOrder,
    EconomyConfig,
    Regime,
    RevenueGrid,
    enumerate_outcomes,
    log_multiplicity,
    multiplicity,
    stirling_log_multiplicity,
)


def brute_force_count(occ, degens, regime):
    """Independent count by direct generation over labeled assignments or
    level-sorted multisets, without any closed-form shortcut."""
    n_firms = sum(occ)
    n_levels = len(occ)
    positions = [(k, s) for k in range(n_levels) for s in range(degens[k])]
    count = 0
    if regime is Regime.MONOPOLISTIC:
        for assignment in product(positions, repeat=n_firms):
            levels = [0] * n_levels
            for k, _ in assignment:
                levels[k] += 1
            if tuple(levels) == tuple(occ):
                count += 1
        return count
    seen = set()
    for assignment in product(positions, repeat=n_firms):
        levels = [0] * n_levels
        for k, _ in assignment:
            levels[k] += 1
        if tuple(levels) == tuple(occ):
            seen.add(tuple(sorted(assignment)))
    return len(seen)


@pytest.mark.parametrize(
    "occ,degens,regime,expected",
    [
        ((0, 2), (1, 1), Regime.MONOPOLISTIC, 1),
        ((1, 1), (1, 1), Regime.MONOPOLISTIC, 2),
        ((2, 0), (1, 1), Regime.MONOPOLISTIC, 1),
        ((0, 2), (1, 1), Regime.PERFECT, 1),
        ((1, 1), (1, 1), Regime.PERFECT, 1),
        ((2, 0), (1, 1), Regime.PERFECT, 1),
        # two identical firms over two slots of one level: stars and bars
        ((2, 0), (2, 1), Regime.PERFECT, 3),
        # brute force over 2^3 labeled assignments with one firm at level 1
        ((1, 2), (1, 1), Regime.MONOPOLISTIC, 3),
    ],
)
def test_multiplicity_examples(occ, degens, regime, expected):
    grid = RevenueGrid(tuple(range(1, len(occ) + 1)), degens)
    assert multiplicity(EconomicOrder(occ), grid, regime) == expected
    assert brute_force_count(occ, degens, regime) == expected


def test_multiplicity_small_lattice_against_brute_force():
    # exhaustive sweep over a reduced lattice of degeneracies and occupancies
    for degens in product((1, 2, 3), repeat=2):
        grid = RevenueGrid((1, 2), degens)
        for occ in product(range(4), repeat=2):
            if sum(occ) == 0:
                continue
            for regime in Regime:
                assert multiplicity(occ, grid, regime) == brute_force_count(
                    occ, degens, regime
                ), (occ, degens, regime)


@given(
    occ=st.lists(st.integers(0, 5), min_size=2, max_size=4),
    degens=st.lists(st.integers(1, 4), min_size=4, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_permutation_symmetry_perfect(occ, degens):
    # Bose-Einstein counting is a per-level product, so simultaneously
    # permuting (a_k, g_k) pairs leaves it unchanged
    degens = degens[: len(occ)]
    n = len(occ)
    grid = RevenueGrid(tuple(range(1, n + 1)), tuple(degens))
    base = multiplicity(occ, grid, Regime.PERFECT)
    pairs = sorted(zip(occ, degens), key=lambda t: (t[1], t[0]))
    permuted_occ = tuple(a for a, _ in pairs)
    permuted_deg = tuple(g for _, g in pairs)
    grid2 = RevenueGrid(tuple(range(1, n + 1)), permuted_deg)
    assert multiplicity(permuted_occ, grid2, Regime.PERFECT) == base


@given(
    occ=st.lists(st.integers(0, 6), min_size=2, max_size=4),
    degens=st.lists(st.integers(1, 4), min_size=4, max_size=4),
    bump=st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
def test_degeneracy_monotonicity(occ, degens, bump):
    degens = degens[: len(occ)]
    n = len(occ)
    k = bump % n
    grid = RevenueGrid(tuple(range(1, n + 1)), tuple(degens))
    bumped = list(degens)
    bumped[k] += 1
    grid_up = RevenueGrid(tuple(range(1, n + 1)), tuple(bumped))
    for regime in Regime:
        assert multiplicity(occ, grid_up, regime) >= multiplicity(occ, grid, regime)


@given(
    occ=st.lists(st.integers(0, 60), min_size=1, max_size=6),
    degens=st.lists(st.integers(1, 9), min_size=6, max_size=6),
)
def test_boltzmann_multiplicity_equals_multinomial(occ, degens):
    grid = RevenueGrid(tuple(range(1, len(occ) + 1)), tuple(degens[: len(occ)]))
    # the closed form N! / prod a_k! * prod g_k^a_k
    numerator = math.factorial(sum(occ)) * math.prod(g**a for a, g in zip(occ, grid.degeneracies))
    expected, rest = divmod(numerator, math.prod(math.factorial(a) for a in occ))
    assert rest == 0
    assert multiplicity(occ, grid, Regime.MONOPOLISTIC) == expected


def test_money_scale_invariance_of_multiplicity():
    grid = RevenueGrid((1, 3, 7), (2, 1, 3))
    for c in (2, 10):
        scaled = grid.scaled(c)
        for occ in ((2, 1, 1), (0, 4, 0), (1, 0, 3)):
            for regime in Regime:
                assert multiplicity(occ, grid, regime) == multiplicity(occ, scaled, regime)


def test_log_multiplicity_examples():
    grid = RevenueGrid((1, 2), (1, 1))
    assert log_multiplicity((1, 1), grid, Regime.MONOPOLISTIC) == pytest.approx(
        math.log(2), rel=1e-14
    )
    assert log_multiplicity((0, 2), grid, Regime.PERFECT) == pytest.approx(0.0, abs=1e-14)
    big = log_multiplicity((500, 500), grid, Regime.MONOPOLISTIC)
    assert big == pytest.approx(math.log(math.comb(1000, 500)), rel=1e-12)


def test_log_multiplicity_matches_exact_log():
    cases = [
        ((5, 7, 2), (2, 3, 1)),
        ((40, 10, 13), (1, 4, 2)),
        ((100, 50, 25), (3, 3, 3)),
    ]
    grid_levels = (1, 2, 3)
    for occ, degens in cases:
        grid = RevenueGrid(grid_levels, degens)
        for regime in Regime:
            exact = multiplicity(occ, grid, regime)
            assert exact < 2**512
            assert log_multiplicity(occ, grid, regime) == pytest.approx(
                math.log(exact), rel=1e-12
            )


def test_ln_consistency_under_2_pow_200():
    # exp(log multiplicity) vs the exact integer, for counts below 2^200
    cases = [((60, 60), (1, 1)), ((30, 80), (2, 2)), ((10, 5), (3, 1))]
    for occ, degens in cases:
        grid = RevenueGrid((1, 2), degens)
        for regime in Regime:
            exact = multiplicity(occ, grid, regime)
            assert exact < 2**200
            assert math.exp(log_multiplicity(occ, grid, regime)) == pytest.approx(
                exact, rel=1e-9
            )


class TestStirling:
    def test_boltzmann_large_arguments(self):
        # frozen from the exact big-integer oracle:
        # ln C(2000,1000) = 1382.2680, the approximate form gives 1391.0138
        grid = RevenueGrid((1, 2), (1, 1))
        approx = stirling_log_multiplicity((1000, 1000), grid, Regime.MONOPOLISTIC)
        exact = log_multiplicity((1000, 1000), grid, Regime.MONOPOLISTIC)
        assert exact == pytest.approx(1382.26799, abs=1e-4)
        assert approx == pytest.approx(1391.01380, abs=1e-4)
        assert abs(approx - exact) / exact < 0.01

    def test_boltzmann_both_entries_64(self):
        grid = RevenueGrid((1, 2), (64, 64))
        approx = stirling_log_multiplicity((64, 64), grid, Regime.MONOPOLISTIC)
        exact = log_multiplicity((64, 64), grid, Regime.MONOPOLISTIC)
        assert abs(approx - exact) / exact < 0.01

    def test_boltzmann_zero_occupancy_composition(self):
        # all firms at the top level: ln N! - N ln N + N + N ln g2
        grid = RevenueGrid((1, 2), (1, 3))
        n = 50
        value = stirling_log_multiplicity((0, n), grid, Regime.MONOPOLISTIC)
        expected = math.lgamma(n + 1) + n * math.log(3) - n * math.log(n) + n
        assert value == pytest.approx(expected, rel=1e-12)

    def test_perfect_form_value_and_error_vs_exact(self):
        # frozen oracle values: with a=g=100 per level the closed Stirling
        # form overshoots ln multiplicity by the usual sqrt-term error
        grid = RevenueGrid((1, 2), (3, 3))
        approx = stirling_log_multiplicity((100, 100), grid, Regime.PERFECT)
        exact = log_multiplicity((100, 100), grid, Regime.PERFECT)
        assert exact == pytest.approx(2 * math.log(math.comb(102, 100)), rel=1e-12)
        assert approx == pytest.approx(19.68784, abs=1e-4)
        # small degeneracies are poorly served by the crude Stirling form
        assert abs(approx - exact) / exact == pytest.approx(0.15174, abs=1e-3)

    def test_perfect_error_shrinks_with_size(self):
        errors = []
        for m in (64, 128, 256, 512):
            grid = RevenueGrid((1,), (m,))
            approx = stirling_log_multiplicity((m,), grid, Regime.PERFECT)
            exact = log_multiplicity((m,), grid, Regime.PERFECT)
            errors.append(abs(approx - exact) / exact)
        assert errors == sorted(errors, reverse=True)
        assert errors[0] == pytest.approx(0.0310, abs=2e-3)  # 3.1% at 64
        assert errors[-1] < 0.01  # under 1% by 512

    def test_zero_occupancy_contributes_nothing_perfect(self):
        grid = RevenueGrid((1, 2), (1, 4))
        with_zero = stirling_log_multiplicity((0, 9), grid, Regime.PERFECT)
        only_level = stirling_log_multiplicity((9,), RevenueGrid((2,), (4,)), Regime.PERFECT)
        assert with_zero == pytest.approx(only_level, rel=1e-14)

    def test_real_valued_occupancy_accepted(self):
        grid = RevenueGrid((1, 2), (1, 1))
        value = stirling_log_multiplicity((6.5, 3.5), grid, Regime.MONOPOLISTIC)
        assert math.isfinite(value)


def test_counting_oracle_against_enumeration_small():
    # formula counts equal exhaustive micro-outcome group sizes
    for degens in ((1, 1), (2, 1), (2, 3)):
        grid = RevenueGrid((1, 2), degens)
        for n_firms in (1, 2, 3, 4):
            for regime in Regime:
                config = EconomyConfig(n_firms, None, regime)
                groups = enumerate_outcomes(grid, config)
                for order, members in groups.items():
                    assert len(members) == multiplicity(order, grid, regime)
