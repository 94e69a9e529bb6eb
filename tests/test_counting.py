"""Multiplicity counting against brute-force and big-integer oracles."""

import math
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from econorder import (
    ConfigError,
    EconomicOrder,
    EconomyConfig,
    Regime,
    RevenueGrid,
    catalog,
    enumerate_outcomes,
    log_multiplicity,
    multiplicity,
    stirling_log_multiplicity,
)
from econorder import counting
from econorder.counting import PRIME_ROUTE_MIN_WORK, PRIME_ROUTE_SIEVE_RATIO

SOURCE_ROOT = str(Path(counting.__file__).resolve().parent.parent)


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


@pytest.mark.parametrize("regime", list(Regime), ids=["mon", "per"])
def test_multiplicity_refuses_a_sequence_of_the_wrong_length(regime):
    message = "order: occupancy length 3 does not match grid with 2 levels"
    with pytest.raises(ConfigError, match=message):
        multiplicity((1, 1, 0), RevenueGrid((1, 2), (1, 2)), regime)


@pytest.mark.parametrize(
    "occ",
    [(0, 1, 10**22 - 1), (10**22 - 10**19, 10**19, 0)],
    ids=["power", "binomial"],
)
def test_multiplicity_refuses_a_factor_past_comb_by_name(occ):
    # N = 10^22 on levels with g (1, 1, 2): 2**(N - 1) and C(N, 10^19), both
    # on the chain route, are factors no memory holds; the power used to be
    # started rather than refused
    grid = RevenueGrid((1, 2, 3), (1, 1, 2))
    message = "count: N = %d firms is too many to form an order's exact count" % 10**22
    with pytest.raises(ConfigError, match=message):
        multiplicity(occ, grid, Regime.MONOPOLISTIC)


def test_catalog_refuses_a_level_zero_power_past_comb_by_name():
    # levels 1 2 3, g 2 1 1, N = 10^20, Pi = N + 1: the one order (N - 1, 1, 0)
    # is counted by the chain, whose level-0 table needs 2**(N - 1)
    n = 10**20
    grid = RevenueGrid((1, 2, 3), (2, 1, 1))
    message = "count: N = %d firms is too many to form an order's exact count" % n
    with pytest.raises(ConfigError, match=message):
        catalog(grid, EconomyConfig(n, n + 1, Regime.MONOPOLISTIC))


def test_multiplicity_refuses_a_sieve_past_numpy_by_name():
    # (N/2, N/2, 0) at N = 10^22 takes the prime route, whose sieve of N + 1
    # flags is past numpy's largest array; it used to raise a bare ValueError
    grid = RevenueGrid((1, 2, 3), (1, 1, 2))
    message = "count: N = %d firms is too many to form an order's exact count" % 10**22
    with pytest.raises(ConfigError, match=message):
        multiplicity((10**22 // 2, 10**22 // 2, 0), grid, Regime.MONOPOLISTIC)


# multiplicity in a process whose address space may not grow past 1 GiB
LIMITED_SIEVE = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
from econorder import ConfigError, Regime, RevenueGrid, multiplicity
try:
    multiplicity((5 * 10**10, 5 * 10**10, 0), RevenueGrid((1, 2, 3), (1, 1, 2)), Regime.MONOPOLISTIC)
except ConfigError as exc:
    print(exc)
"""


def test_multiplicity_refuses_a_sieve_past_memory_by_name():
    # at N = 10^11 the sieve takes 100 GB, past the limit: it used to raise a
    # bare MemoryError
    path = os.pathsep.join(filter(None, (SOURCE_ROOT, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", LIMITED_SIEVE],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout.strip() == (
        "count: N = %d firms is too many to form an order's exact count" % 10**11
    )


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


def chain_work(occ):
    """s = sum_k min(a_k, firms left after level k), written out afresh."""
    work = 0
    for k, a in enumerate(occ):
        work += min(a, sum(occ[k + 1 :]))
    return work


@st.composite
def large_occupancies(draw):
    """Occupancies with N > PRIME_ROUTE_MIN_WORK and s on either side of it.

    - spread: three to five levels of more than C/2 firms each, so s > C;
    - skewed: one level of C to 3C firms, the rest at most C/8 each, so
      s <= 2 * (firms off the big level) <= C;
    - single: one level of up to 3C firms, s = 0.
    Zero entries are inserted anywhere, and change neither N nor s.
    """
    c = PRIME_ROUTE_MIN_WORK
    kind = draw(st.sampled_from(["spread", "skewed", "single"]))
    if kind == "spread":
        occ = draw(st.lists(st.integers(c // 2 + 1, c), min_size=3, max_size=5))
    elif kind == "skewed":
        occ = draw(st.lists(st.integers(0, c // 8), min_size=0, max_size=4))
        occ.insert(draw(st.integers(0, len(occ))), draw(st.integers(c + 1, 3 * c)))
    else:
        occ = [draw(st.integers(c + 1, 3 * c))]
    for _ in range(draw(st.integers(0, 2))):
        occ.insert(draw(st.integers(0, len(occ))), 0)
    return kind, tuple(occ)


@given(drawn=large_occupancies(), degens=st.lists(st.integers(1, 4), min_size=7, max_size=7))
@settings(max_examples=60, deadline=None)
def test_multiplicity_equals_factorial_reference_on_both_routes(drawn, degens):
    kind, occ = drawn
    assert (chain_work(occ) > PRIME_ROUTE_MIN_WORK) == (kind == "spread")
    grid = RevenueGrid(tuple(range(1, len(occ) + 1)), tuple(degens[: len(occ)]))
    expected = (
        math.factorial(sum(occ))
        // math.prod(math.factorial(a) for a in occ)
        * math.prod(g**a for a, g in zip(occ, grid.degeneracies))
    )
    assert multiplicity(occ, grid, Regime.MONOPOLISTIC) == expected


def test_prime_route_taken_only_above_the_chain_work(monkeypatch):
    calls = []
    prime_route = counting._multinomial_by_primes

    def spy(*args):
        calls.append(args)
        return prime_route(*args)

    monkeypatch.setattr(counting, "_multinomial_by_primes", spy)
    grid = RevenueGrid((1, 2, 3), (1, 2, 3))
    n = PRIME_ROUTE_MIN_WORK
    multiplicity((n // 3, n // 3, n - 2 * (n // 3)), grid, Regime.MONOPOLISTIC)
    assert calls == []  # N <= C chains without computing s
    multiplicity((n, n, n), grid, Regime.MONOPOLISTIC)
    assert len(calls) == 1  # s = 2C


def chained_binomials(occ, degens):
    left, count = sum(occ), 1
    for a, g in zip(occ, degens):
        count *= math.comb(left, a) * g**a
        left -= a
    return count


@pytest.mark.parametrize(
    "occ, prime",
    [
        # two levels at a million firms: s = N // ratio still chains
        ((10**6 - 10_000, 10_000), False),
        ((10**6 - 10_001, 10_001), True),
        # N // ratio below PRIME_ROUTE_MIN_WORK: the work bound alone decides
        ((10**5 - 2_001, 2_001), True),
        ((10**5 - 2_000, 2_000), False),
        # the exact-orders benchmark deck's big counts (s = 8,500 and 17,000)
        ((3_000, 2_500, 2_000, 1_500, 1_000), True),
        ((6_000, 5_000, 4_000, 3_000, 2_000), True),
    ],
)
def test_prime_route_pays_for_its_sieve(monkeypatch, occ, prime):
    # prime route only while s > max(PRIME_ROUTE_MIN_WORK, N // PRIME_ROUTE_SIEVE_RATIO)
    n, work = sum(occ), chain_work(occ)
    assert (work > max(PRIME_ROUTE_MIN_WORK, n // PRIME_ROUTE_SIEVE_RATIO)) == prime
    calls = []
    prime_route = counting._multinomial_by_primes

    def spy(*args):
        calls.append(args)
        return prime_route(*args)

    monkeypatch.setattr(counting, "_multinomial_by_primes", spy)
    degens = (1, 2, 3, 2, 1)[: len(occ)]
    grid = RevenueGrid(tuple(range(1, len(occ) + 1)), degens)
    got = multiplicity(occ, grid, Regime.MONOPOLISTIC)
    assert len(calls) == prime
    # equal to the route not taken
    assert got == (chained_binomials(occ, degens) if prime else prime_route(occ, degens))


def test_skewed_occupancy_at_a_million_firms_chains(monkeypatch):
    def fail(*args):
        raise AssertionError("prime route taken for a skewed occupancy")

    monkeypatch.setattr(counting, "_multinomial_by_primes", fail)
    n = 10**6
    grid = RevenueGrid((1, 2, 3, 4, 5), (1, 2, 3, 1, 1))
    got = multiplicity((n - 10, 5, 5, 0, 0), grid, Regime.MONOPOLISTIC)
    assert got == math.comb(n, 5) * math.comb(n - 5, 5) * 2**5 * 3**5


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

    @pytest.mark.parametrize("n_levels", [3, 20], ids=["floats", "arrays"])
    def test_ln_n_factorial_past_the_float_range_is_a_config_error(self, n_levels):
        # ln N! is finite up to N = 2.5599e305 and past the float range from
        # 2.56e305 on; both evaluators refuse the sum by name
        grid = RevenueGrid(tuple(range(1, n_levels + 1)), ())
        below = (1.27995e305, 1.27995e305) + (0.0,) * (n_levels - 2)
        assert math.isfinite(stirling_log_multiplicity(below, grid, Regime.MONOPOLISTIC))
        above = (1.28e305, 1.28e305) + (0.0,) * (n_levels - 2)
        with pytest.raises(ConfigError, match=r"Stirling sum at N = 2.56e\+305 is past the float range"):
            stirling_log_multiplicity(above, grid, Regime.MONOPOLISTIC)
        # Bose-Einstein has no N! term
        assert math.isfinite(stirling_log_multiplicity(above, grid, Regime.PERFECT))
        # all on one level, ln N! is finite but a ln a = 1.80019e308 is not:
        # the sum is refused by name, not returned as -inf
        one_level = (2.5599e305,) + (0.0,) * (n_levels - 1)
        with pytest.raises(ConfigError, match=r"Stirling sum at N = 2.5599e\+305 is past the float"):
            stirling_log_multiplicity(one_level, grid, Regime.MONOPOLISTIC)

    def test_real_valued_occupancy_accepted(self):
        grid = RevenueGrid((1, 2), (1, 1))
        value = stirling_log_multiplicity((6.5, 3.5), grid, Regime.MONOPOLISTIC)
        assert math.isfinite(value)

    @given(
        regime=st.sampled_from(list(Regime)),
        cells=st.lists(
            st.tuples(
                st.one_of(st.just(0.0), st.integers(0, 10**6).map(float), st.floats(0.0, 1e12)),
                st.one_of(st.just(1), st.integers(1, 10**4)),
            ),
            min_size=1,
            max_size=12,
        ),
        as_order=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_xlogx_reference(self, regime, cells, as_order):
        # the written-out x ln x loops must give exactly what one x ln x
        # helper per term gives, sign of zero included (repr-equal)
        occ = tuple(a for a, _ in cells)
        if as_order:
            occ = EconomicOrder(tuple(int(a) for a in occ))
        grid = RevenueGrid(tuple(range(1, len(cells) + 1)), tuple(g for _, g in cells))
        got = stirling_log_multiplicity(occ, grid, regime)
        assert repr(got) == repr(xlogx_stirling_reference(occ, grid, regime))


def _xlogx(value):
    return 0.0 if value == 0.0 else value * math.log(value)


def xlogx_stirling_reference(order, grid, regime):
    """The Stirling forms with one x ln x call per term (0 ln 0 = 0)."""
    occ = tuple(float(a) for a in order)
    if regime is Regime.MONOPOLISTIC:
        total = math.lgamma(sum(occ) + 1.0)
        for a, g in zip(occ, grid.degeneracies):
            if a:
                total += a * math.log(g)
            total -= _xlogx(a)
            total += a
        return total
    total = 0.0
    for a, g in zip(occ, grid.degeneracies):
        total += _xlogx(a + g - 1.0) - _xlogx(a) - _xlogx(g - 1.0)
    return total


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
