"""Multiplier solving, closed-form occupancies, and condensation detection."""

import gc
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from econorder import (
    ConfigError,
    EconomyConfig,
    InfeasibleError,
    Regime,
    RevenueGrid,
    SingularityError,
    catalog,
    detect_condensation,
    entropy_identity_residual,
    enumerate_orders,
    log_W,
    macro_from_multipliers,
    occupancy,
    solve_multipliers,
    solve_multipliers_bisection,
    stirling_log_multiplicity,
)
import econorder.macro
import econorder.maxent
from econorder.checks import random_solver_instance
from econorder.configio import load_run_config
from econorder.maxent import ARRAY_MIN_LEVELS

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"
GRID_2 = RevenueGrid((1, 2), (1, 1))
GRID_3 = RevenueGrid((1, 2, 3), (1, 1, 1))

# two-level closed form: a1 = (N e2 - Pi)/(e2 - e1), beta = ln(a1 g2 / (a2 g1))/(e2 - e1)
TWO_LEVEL_ALPHA = -math.log(6) - math.log(1.5)
TWO_LEVEL_BETA = math.log(1.5)


class TestOccupancy:
    def test_boltzmann_at_zero_multipliers_returns_degeneracies(self):
        grid = RevenueGrid((1, 2, 5), (3, 1, 4))
        assert occupancy(0.0, 0.0, grid, Regime.MONOPOLISTIC) == pytest.approx(
            [3.0, 1.0, 4.0]
        )

    def test_boltzmann_two_level_closed_form(self):
        got = occupancy(TWO_LEVEL_ALPHA, TWO_LEVEL_BETA, GRID_2, Regime.MONOPOLISTIC)
        assert got == pytest.approx([6.0, 4.0], rel=1e-12)

    def test_bose_einstein_unit_gap(self):
        grid = RevenueGrid((1,), (1,))
        got = occupancy(math.log(2), 0.0, grid, Regime.PERFECT)
        assert got == pytest.approx([1.0], rel=1e-14)

    def test_bose_einstein_domain_violation_names_level(self):
        with pytest.raises(SingularityError) as err:
            occupancy(-0.5, 0.1, GRID_3, Regime.PERFECT)
        assert err.value.level_index == 0


class TestSolve:
    def test_single_level_degenerate(self):
        grid = RevenueGrid((3,), (1,))
        config = EconomyConfig(5, 15, Regime.MONOPOLISTIC)
        sol = solve_multipliers(grid, config)
        assert sol.boundary and sol.converged
        assert sol.alpha is None and sol.beta is None
        assert sol.occupancy == (5.0,)

    def test_two_level_constraint_determined(self):
        config = EconomyConfig(10, 14, Regime.MONOPOLISTIC)
        sol = solve_multipliers(GRID_2, config)
        assert sol.converged
        assert sol.occupancy == pytest.approx((6.0, 4.0), rel=1e-10)
        assert sol.alpha == pytest.approx(TWO_LEVEL_ALPHA, abs=1e-10)
        assert sol.beta == pytest.approx(TWO_LEVEL_BETA, abs=1e-10)

    def test_perfect_three_level_against_bisection_oracle(self):
        config = EconomyConfig(10, 18, Regime.PERFECT)
        sol = solve_multipliers(GRID_3, config)
        oracle = solve_multipliers_bisection(GRID_3, config)
        assert sol.converged
        assert abs(sol.residual_n) <= 1e-10 * 10
        assert abs(sol.residual_pi) <= 1e-10 * 18
        assert sol.alpha == pytest.approx(oracle.alpha, abs=1e-12)
        assert sol.beta == pytest.approx(oracle.beta, abs=1e-12)

    def test_infeasible_when_mean_outside_grid(self):
        with pytest.raises(InfeasibleError):
            solve_multipliers(GRID_2, EconomyConfig(10, 9, Regime.MONOPOLISTIC))
        with pytest.raises(InfeasibleError):
            solve_multipliers(GRID_2, EconomyConfig(10, 21, Regime.MONOPOLISTIC))

    def test_boundary_high_end(self):
        sol = solve_multipliers(GRID_2, EconomyConfig(10, 20, Regime.PERFECT))
        assert sol.boundary
        assert sol.occupancy == (0.0, 10.0)

    def test_unconstrained_config_rejected(self):
        with pytest.raises(ConfigError):
            solve_multipliers(GRID_2, EconomyConfig(10, None, Regime.MONOPOLISTIC))

    def test_negative_beta_supported_monopolistic(self):
        # mean above the unweighted grid mean forces beta < 0
        config = EconomyConfig(10, 17, Regime.MONOPOLISTIC)
        sol = solve_multipliers(GRID_2, config)
        assert sol.converged and sol.beta < 0
        assert sum(sol.occupancy) == pytest.approx(10.0, rel=1e-10)

    def test_negative_beta_supported_perfect(self):
        config = EconomyConfig(10, 17, Regime.PERFECT)
        sol = solve_multipliers(GRID_2, config)
        assert sol.converged and sol.beta < 0
        gap_top = sol.alpha + sol.beta * 2
        assert gap_top > 0

    @pytest.mark.parametrize("regime", [Regime.MONOPOLISTIC, Regime.PERFECT])
    def test_randomized_newton_vs_oracle(self, regime):
        rng = np.random.default_rng(314 + int(regime))
        for _ in range(25):
            grid, config = random_solver_instance(rng, regime)
            sol = solve_multipliers(grid, config)
            assert sol.converged, (grid.levels, config.n_firms, config.total_revenue)
            oracle = solve_multipliers_bisection(grid, config)
            assert abs(sol.alpha - oracle.alpha) <= 1e-8
            assert abs(sol.beta - oracle.beta) <= 1e-8

    @pytest.mark.parametrize("regime", list(Regime))
    def test_iteration_budget(self, regime):
        # the two-level closed-form start; a start at b = 0 takes 5.66 (mon)
        # and 6.51 (per) steps on average here, and up to 10
        rng = np.random.default_rng(0)
        iterations = []
        for _ in range(200):
            grid, config = random_solver_instance(rng, regime)
            sol = solve_multipliers(grid, config)
            assert sol.converged and not sol.pinned
            iterations.append(sol.iterations)
        assert np.mean(iterations) <= 5.0 and max(iterations) <= 8

    def test_condensation_demo_iteration_budget(self):
        # a start at b = 0 takes 10 steps here
        run = load_run_config(CONFIGS / "condensation.ini")
        sol = solve_multipliers(run.grid, run.economy)
        assert sol.converged and sol.iterations <= 6

    def test_boltzmann_log_linearity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            grid, config = random_solver_instance(rng, Regime.MONOPOLISTIC)
            sol = solve_multipliers(grid, config)
            logs = np.log(np.array(sol.occupancy) / np.array(grid.degeneracies, float))
            e = np.array(grid.levels, float)
            slope, intercept = np.polyfit(e, logs, 1)
            assert float(np.max(np.abs(logs - (slope * e + intercept)))) <= 1e-9

    def test_scale_covariance(self):
        base = solve_multipliers(GRID_2, EconomyConfig(10, 14, Regime.MONOPOLISTIC))
        for c in (2, 10):
            scaled = solve_multipliers(
                GRID_2.scaled(c), EconomyConfig(10, 14 * c, Regime.MONOPOLISTIC)
            )
            assert scaled.alpha == pytest.approx(base.alpha, abs=1e-12)
            assert scaled.beta * c == pytest.approx(base.beta, rel=1e-12)
            assert scaled.occupancy == pytest.approx(base.occupancy, rel=1e-12)

    def test_bose_einstein_exceeds_boltzmann_at_equal_multipliers(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            x = float(rng.uniform(0.01, 6.0))
            g = int(rng.integers(1, 9))
            grid = RevenueGrid((1,), (g,))
            be = occupancy(x, 0.0, grid, Regime.PERFECT)[0]
            mb = occupancy(x, 0.0, grid, Regime.MONOPOLISTIC)[0]
            assert be > mb


# Close levels with almost every firm on one of them: a tiny condensation
# gap next to large multipliers.  The last instance sits one revenue unit
# below the top of its feasible range.
HARD_INSTANCES = [
    ((174, 190), (21, 17), 803586, 152681318, Regime.PERFECT),
    ((87, 95), (1, 18), 752586, 65474989, Regime.PERFECT),
    ((146, 149), (2, 25), 76, 11156, Regime.MONOPOLISTIC),
    ((101, 117, 207, 272, 316, 391, 393), (2, 1, 11, 1, 4, 18, 21), 1745, 685784, Regime.PERFECT),
]


# Small grids whose line search tries a point past overflow on the float
# evaluator: one trial x below -709.78 (mon, N = 1.5e305), and x beyond 709.78
# at the far level of a per grid one revenue unit above its ground state.
OVERFLOWING_TRIALS = [
    (
        RevenueGrid((4, 5, 176, 178, 179, 181), (2, 28, 2, 3, 11, 25)),
        EconomyConfig(15 * 10**304, 4 * 15 * 10**304 + 10**285, Regime.MONOPOLISTIC),
    ),
    (RevenueGrid((1, 2, 2000), (1, 2, 3)), EconomyConfig(10**6, 10**6 + 1, Regime.PERFECT)),
]

EPS = float(np.finfo(float).eps)
# The two evaluators compute x = alpha + beta e by the same IEEE operations and
# differ only in the libm behind exp, expm1, log1p and log (each within an ulp
# or two) and in summation order (one rounding per term).  So a level's value
# agrees to 8 eps, a sum of n terms to (8 + 2n) eps of its terms' magnitude,
# and below the smallest normal float to a few of its subnormal ulps.
LEVEL_RTOL = 8 * EPS
TINY = 64 * float(np.finfo(float).tiny)
# Two solves that both stop within 1e-10 of N and Pi, with one polishing
# Newton step, agree to the square root of eps.
SOLVED_RTOL = math.sqrt(EPS)


def sum_rtol(n):
    return (8 + 2 * n) * EPS


def assert_solutions_agree(floats, arrays, grid, config):
    """The float and array solves of one economy agree: the same stopping
    state, both within 1e-10 of N and Pi, and (alpha, beta) and the
    occupancy within SOLVED_RTOL."""
    assert (floats.converged, floats.pinned, floats.method) == (
        arrays.converged, arrays.pinned, arrays.method
    )
    for sol in (floats, arrays):
        assert abs(sol.residual_n) <= 1e-10 * config.n_firms
        assert abs(sol.residual_pi) <= 1e-10 * max(1, config.total_revenue)
    for got, want in zip(floats.occupancy, arrays.occupancy):
        assert abs(got - want) <= SOLVED_RTOL * config.n_firms
    # x at the far end of the grid is of size |alpha| + |beta| e_max
    scale = 1.0 + abs(arrays.alpha) + abs(arrays.beta) * grid.levels[-1]
    assert abs(floats.alpha - arrays.alpha) <= SOLVED_RTOL * scale
    assert abs(floats.beta - arrays.beta) * grid.levels[-1] <= SOLVED_RTOL * scale


def assert_newton_solves(grid, config):
    """Converged Newton solution whose occupancy meets both constraints to
    1e-10, recomputed here from the returned occupancy."""
    sol = solve_multipliers(grid, config)
    assert sol.converged and sol.method == "newton" and not sol.pinned
    occ = np.array(sol.occupancy)
    assert abs(occ.sum() - config.n_firms) <= 1e-10 * config.n_firms
    revenue = float(occ @ np.array(grid.levels, float))
    assert abs(revenue - config.total_revenue) <= 1e-10 * config.total_revenue
    return sol


class TestNewtonRobustness:
    @pytest.mark.parametrize("levels, degens, n_firms, total, regime", HARD_INSTANCES)
    def test_hard_instances_converge(self, levels, degens, n_firms, total, regime):
        grid = RevenueGrid(levels, degens)
        sol = assert_newton_solves(grid, EconomyConfig(n_firms, total, regime))
        # the returned occupancy is the closed form at the returned multipliers
        closed = occupancy(sol.alpha, sol.beta, grid, regime)
        assert np.max(np.abs(closed - np.array(sol.occupancy))) <= 1e-8 * n_firms

    @pytest.mark.parametrize(
        "grid, config",
        [(RevenueGrid(levels, degens), EconomyConfig(n, total, regime))
         for levels, degens, n, total, regime in HARD_INSTANCES]
        + OVERFLOWING_TRIALS
        + [
            # one unit above the ground state: x reaches ~3000 at the top, so
            # expm1 overflows and the top occupancies underflow to zero
            (
                RevenueGrid(tuple(range(1, 2001)), tuple(1 + k % 5 for k in range(2000))),
                EconomyConfig(40_000, 40_001, regime),
            )
            for regime in Regime
        ],
    )
    def test_no_floating_point_warnings(self, grid, config, monkeypatch):
        # exp and expm1 overflow far from the wall (x beyond about 710); every
        # public entry point silences that for its own call and leaves the
        # floating-point state as it found it; nothing else may warn, and the
        # float evaluator neither warns nor raises OverflowError
        regime = config.regime
        far = 800.0 if regime is Regime.PERFECT else -800.0  # x = far * e_k
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_multipliers(grid, config)
            calls = [
                lambda: solve_multipliers(grid, config),
                lambda: entropy_identity_residual(sol.alpha, sol.beta, grid, regime),
                lambda: macro_from_multipliers(sol.alpha, sol.beta),
                lambda: occupancy(0.0, far, grid, regime),
                lambda: log_W(0.0, far, grid, regime),
            ]
            for call in calls:
                state = np.geterr()
                call()
                assert np.geterr() == state
        # the far point did overflow: every occupancy is 0 (per) or inf (mon)
        far_occ = occupancy(0.0, far, grid, regime)
        assert np.all(far_occ == 0.0) if regime is Regime.PERFECT else np.all(np.isinf(far_occ))
        # and gave what the array evaluator gives, on either side of the constant
        far_arrays, far_log_z = econorder.maxent._ArrayLevels(*grid.vectors, regime).closed_form(
            0.0, far
        )
        assert far_occ.tolist() == far_arrays.tolist()
        assert -log_W(0.0, far, grid, regime) == far_log_z
        if grid.n < ARRAY_MIN_LEVELS:
            monkeypatch.setattr(econorder.maxent, "ARRAY_MIN_LEVELS", 0)
            assert_solutions_agree(sol, solve_multipliers(grid, config), grid, config)

    @pytest.mark.parametrize(
        "levels, degens, n_firms, total",
        [
            # one revenue unit below the top: the oracle's scalar expm1 overflowed
            ((101, 117, 207, 272, 316, 391, 393), (2, 1, 11, 1, 4, 18, 21), 1745, 685784),
            # 28 units above the ground state of close, high levels: the oracle
            # lost the excess revenue in the rounding of Pi
            ((184, 185), (1, 7), 18089, 18089 * 184 + 28),
            # per condensing at the top level: the oracle used to bisect in
            # coordinates anchored at the lowest level and missed 1e-10
            ((71, 73, 75, 120), (3, 30, 12, 1), 425749, 51089858),
            ((5, 6), (30, 1), 10**6, 6 * 10**6 - 1),
        ],
    )
    def test_oracle_agrees_on_hard_perfect_instances(self, levels, degens, n_firms, total):
        grid = RevenueGrid(levels, degens)
        config = EconomyConfig(n_firms, total, Regime.PERFECT)
        sol = assert_newton_solves(grid, config)
        oracle = solve_multipliers_bisection(grid, config)
        assert oracle.converged
        gap = np.max(np.abs(np.array(sol.occupancy) - np.array(oracle.occupancy)))
        assert gap <= 1e-8 * n_firms

    @given(
        regime=st.sampled_from(list(Regime)),
        base=st.integers(0, 200),
        gaps=st.lists(st.one_of(st.integers(1, 3), st.integers(1, 60)), min_size=1, max_size=6),
        degens=st.lists(st.integers(1, 30), min_size=7, max_size=7),
        n_firms=st.integers(1, 10**6),
        end=st.sampled_from(["low", "high", "inside"]),
        offset=st.integers(1, 50),
        fraction=st.floats(0.0, 1.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_converges_and_matches_oracle(
        self, regime, base, gaps, degens, n_firms, end, offset, fraction
    ):
        levels = tuple(base + sum(gaps[:k]) for k in range(len(gaps) + 1))
        grid = RevenueGrid(levels, tuple(degens[: len(levels)]))
        lo, hi = n_firms * levels[0], n_firms * levels[-1]
        assume(hi - lo >= 2)
        total = {
            "low": lo + min(offset, hi - lo - 1),
            "high": hi - min(offset, hi - lo - 1),
            "inside": lo + 1 + int(fraction * (hi - lo - 2)),
        }[end]
        config = EconomyConfig(n_firms, total, regime)
        sol = assert_newton_solves(grid, config)
        oracle = solve_multipliers_bisection(grid, config)
        assert oracle.converged
        gap = np.max(np.abs(np.array(sol.occupancy) - np.array(oracle.occupancy)))
        assert gap <= 1e-8 * n_firms


class TestArgmaxConvergence:
    @pytest.mark.parametrize("regime", [Regime.MONOPOLISTIC, Regime.PERFECT])
    def test_normalized_distance_shrinks(self, regime):
        grid = RevenueGrid((1, 2, 3), (2, 2, 2))
        distances = []
        for n_firms in (10, 20, 40):
            config = EconomyConfig(n_firms, 9 * n_firms // 5, regime)
            exact = np.array(catalog(grid, config).most_probable().occupancy, float)
            sol = solve_multipliers(grid, config)
            distances.append(
                float(np.abs(exact / n_firms - np.array(sol.occupancy) / n_firms).sum())
            )
        assert distances[-1] <= distances[0]


class TestCondensation:
    def test_monopolistic_never_condenses(self):
        config = EconomyConfig(100, 105, Regime.MONOPOLISTIC)
        sol = solve_multipliers(GRID_3, config)
        report = detect_condensation(sol, GRID_3, config)
        assert not report.condensed

    def test_near_ground_mean_condenses(self):
        # revenue constraint leaves at most 5 firms above the ground level
        config = EconomyConfig(100, 105, Regime.PERFECT)
        sol = solve_multipliers(GRID_3, config)
        report = detect_condensation(sol, GRID_3, config)
        assert report.condensed
        assert report.ground_fraction > 0.9
        assert report.gap > 0

    def test_centered_mean_does_not_condense(self):
        config = EconomyConfig(12, 24, Regime.PERFECT)
        sol = solve_multipliers(GRID_3, config)
        report = detect_condensation(sol, GRID_3, config)
        assert not report.condensed
        assert report.gap > 1e-6
        assert report.ground_fraction == pytest.approx(1 / 3, rel=1e-9)

    def test_top_level_pile_up_condenses(self):
        # mean revenue 22/N below the top level: beta < 0, so the condensing
        # end is the top level, which holds all but about 1.4 firms
        grid = RevenueGrid((174, 190), (21, 17))
        config = EconomyConfig(803586, 152681318, Regime.PERFECT)
        sol = solve_multipliers(grid, config)
        assert sol.beta < 0
        report = detect_condensation(sol, grid, config)
        assert report.condensed
        assert report.ground_fraction > 0.99

    def test_thresholds_are_configurable(self):
        config = EconomyConfig(12, 24, Regime.PERFECT)
        sol = solve_multipliers(GRID_3, config)
        report = detect_condensation(sol, GRID_3, config, fraction_threshold=0.3)
        assert report.condensed


class TestEntropyOf:
    def test_two_level_frozen_value(self):
        # closed Stirling form for the (6, 4) occupancy; the exact count is
        # ln C(10,6) = ln 210 = 5.3471, which the crude Stirling substitution
        # overshoots at these small arguments
        value = stirling_log_multiplicity((6.0, 4.0), GRID_2, Regime.MONOPOLISTIC)
        assert value == pytest.approx(8.80868, abs=1e-4)
        assert value == pytest.approx(
            math.lgamma(11) - 6 * math.log(6) - 4 * math.log(4) + 10, rel=1e-12
        )

    def test_concentrated_order_minimises_entropy(self):
        config = EconomyConfig(6, None, Regime.MONOPOLISTIC)
        values = {
            o.occupancy: stirling_log_multiplicity(o, GRID_2, Regime.MONOPOLISTIC)
            for o in enumerate_orders(GRID_2, config)
        }
        lowest = min(values.values())
        assert values[(6, 0)] == pytest.approx(lowest)
        assert values[(0, 6)] == pytest.approx(lowest)

    def test_perfect_extensivity_under_doubling(self):
        small = RevenueGrid((1, 2), (100, 80))
        large = RevenueGrid((1, 2), (200, 160))
        u1 = stirling_log_multiplicity((150.0, 90.0), small, Regime.PERFECT)
        u2 = stirling_log_multiplicity((300.0, 180.0), large, Regime.PERFECT)
        assert u2 / (2 * u1) == pytest.approx(1.0, abs=0.01)

    def test_negative_occupancy_rejected(self):
        with pytest.raises(ConfigError):
            stirling_log_multiplicity((-1.0, 2.0), GRID_2, Regime.MONOPOLISTIC)

    def test_solution_entropy_close_to_feasible_maximum(self):
        config = EconomyConfig(30, 45, Regime.MONOPOLISTIC)
        sol = solve_multipliers(GRID_3, config)
        relaxed = stirling_log_multiplicity(sol.occupancy, GRID_3, config.regime)
        best_feasible = max(
            stirling_log_multiplicity(o, GRID_3, config.regime)
            for o in enumerate_orders(GRID_3, config)
        )
        assert relaxed >= best_feasible - 1e-9


def evaluator_grids(min_levels=2):
    """Grids of min_levels to 6 levels and of ARRAY_MIN_LEVELS - 1, + 0 and
    + 1 levels, with small and large gaps, starting at level 0 or above it."""
    sizes = st.one_of(
        st.integers(min_levels, 6),
        st.sampled_from([ARRAY_MIN_LEVELS - 1, ARRAY_MIN_LEVELS, ARRAY_MIN_LEVELS + 1]),
    )

    def build(base, gaps, degens):
        levels = tuple(base + sum(gaps[:k]) for k in range(len(gaps) + 1))
        return RevenueGrid(levels, tuple(degens[: len(levels)]))

    return sizes.flatmap(
        lambda n: st.builds(
            build,
            st.sampled_from([0, 1, 37, 200]),
            st.lists(
                st.one_of(st.integers(1, 3), st.integers(1, 60)), min_size=n - 1, max_size=n - 1
            ),
            st.lists(st.integers(1, 30), min_size=n, max_size=n),
        )
    )


def evaluator_pair(grid, regime, *shift):
    """The float and array members of the evaluator pair on one grid, as
    maxent._evaluator builds them with ARRAY_MIN_LEVELS above, then below,
    the grid's level count."""
    pair = []
    for split in (grid.n + 1, 0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(econorder.maxent, "ARRAY_MIN_LEVELS", split)
            pair.append(econorder.maxent._evaluator(grid, regime, *shift))
    return pair


class TestEvaluatorsAgree:
    """The float member of the evaluator pair against the array member, both
    built by the selector on the same grid, to the tolerances fixed above."""

    @given(
        grid=evaluator_grids(min_levels=1),
        regime=st.sampled_from(list(Regime)),
        # x at the condensing end: at the wall, near it, or far past overflow
        gap=st.one_of(st.floats(1e-12, 1e-3), st.floats(-800.0, 800.0)),
        beta=st.one_of(st.floats(-2.0, 2.0), st.floats(-40.0, 40.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_closed_form(self, grid, regime, gap, beta):
        anchor = grid.levels[0] if beta >= 0 else grid.levels[-1]
        alpha = gap - beta * anchor
        floats_at, arrays_at = evaluator_pair(grid, regime)
        try:
            floats, log_z = floats_at.closed_form(alpha, beta)
        except SingularityError as wall:
            with pytest.raises(SingularityError) as err:
                arrays_at.closed_form(alpha, beta)
            assert err.value.level_index == wall.level_index
            assert str(err.value) == str(wall)
            return
        arrays, array_log_z = arrays_at.closed_form(alpha, beta)
        for got, want in zip(floats, arrays.tolist()):
            if math.isinf(want) or want == 0.0:
                assert got == want  # past overflow, as numpy has it
            else:
                assert math.isclose(got, want, rel_tol=LEVEL_RTOL, abs_tol=TINY)
        if math.isinf(array_log_z):
            assert log_z == array_log_z
        else:
            assert math.isclose(log_z, array_log_z, rel_tol=sum_rtol(grid.n), abs_tol=TINY)

    # (levels, alpha, beta, the wall's level and x under perfect competition):
    # x < 0 below levels where x > 0, x = alpha + beta e exactly zero on an
    # interior level, of either sign, and x < 0 on one level while expm1
    # overflows on another, in either order along the grid.  The wall is the level where x is smallest.
    WALLS = {
        "negative-below-positive": ((1, 3, 4), -2.0, 1.0, 0, "-1"),
        "interior-plus-zero": ((1, 2, 3), -2.0, 1.0, 0, "-1"),
        "every-level-plus-zero": ((1, 2, 3), 0.0, 0.0, 0, "0"),
        "every-level-minus-zero": ((1, 2, 3), -0.0, -0.0, 0, "-0"),
        "minus-zero-at-level-zero": ((0, 1, 2), -0.0, -1.0, 2, "-2"),
        "negative-then-overflow": ((1, 2, 1000), -1.5, 1.0, 0, "-0.5"),
        "overflow-then-negative": ((1, 2, 1000), 999.5, -1.0, 2, "-0.5"),
    }

    @pytest.mark.parametrize("case", WALLS)
    @pytest.mark.parametrize("regime", list(Regime))
    def test_walls_raise_alike(self, case, regime):
        levels, alpha, beta, k, x = self.WALLS[case]
        pair = evaluator_pair(RevenueGrid(levels, (2, 1, 3)), regime)
        if regime is Regime.MONOPOLISTIC:  # no wall: g e^(-x), inf past overflow
            floats, arrays = (levels.closed_form(alpha, beta) for levels in pair)
            assert floats[0] == arrays[0].tolist() and floats[1] == arrays[1]
            return
        for levels in pair:
            with pytest.raises(SingularityError) as err:
                levels.closed_form(alpha, beta)
            assert err.value.level_index == k
            assert str(err.value) == (
                "Bose-Einstein occupancy undefined at level %d: alpha + beta*e = %s <= 0" % (k, x)
            )

    # just off the wall: x = 5e-324 on every level (g / x overflows to inf),
    # and x = 2**-60 + e 2**-70, where expm1(x) = x exactly
    @pytest.mark.parametrize("alpha, beta", [(5e-324, 0.0), (2.0**-60, 2.0**-70)])
    @pytest.mark.parametrize("regime", list(Regime))
    def test_just_off_the_wall_alike(self, alpha, beta, regime):
        floats, arrays = (
            levels.closed_form(alpha, beta)
            for levels in evaluator_pair(RevenueGrid((1, 2, 3), (2, 1, 3)), regime)
        )
        assert floats[0] == arrays[0].tolist()
        assert floats[1] == arrays[1]

    @given(
        grid=evaluator_grids(min_levels=1),
        regime=st.sampled_from(list(Regime)),
        scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e3, 1e6]),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_stirling(self, grid, regime, scale, data):
        occ = data.draw(st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=grid.n, max_size=grid.n
        ))
        occ = tuple(scale * a for a in occ)
        floats_at, arrays_at = evaluator_pair(grid, regime)
        floats, arrays = floats_at.stirling(occ), arrays_at.stirling(occ)
        # the sum of the magnitudes of the terms either evaluator adds
        if regime is Regime.MONOPOLISTIC:
            magnitude = math.lgamma(sum(occ) + 1.0) + sum(
                a * (abs(math.log(g)) + abs(math.log(a)) + 1.0) if a else 0.0
                for a, g in zip(occ, grid.degeneracies)
            )
        else:
            magnitude = sum(
                abs(x * math.log(x)) if x else 0.0
                for a, g in zip(occ, grid.degeneracies)
                for x in (a + g - 1.0, a, g - 1.0)
            )
        assert abs(floats - arrays) <= sum_rtol(3 * grid.n) * magnitude + TINY

    @given(
        grid=evaluator_grids(),
        regime=st.sampled_from(list(Regime)),
        n_firms=st.integers(1, 10**6),
        end=st.sampled_from(["low", "high", "inside"]),
        offset=st.integers(1, 50),
        fraction=st.floats(0.0, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_solve(self, grid, regime, n_firms, end, offset, fraction):
        lo, hi = n_firms * grid.levels[0], n_firms * grid.levels[-1]
        assume(hi - lo >= 2)
        total = {
            "low": lo + min(offset, hi - lo - 1),
            "high": hi - min(offset, hi - lo - 1),
            "inside": lo + 1 + int(fraction * (hi - lo - 2)),
        }[end]
        config = EconomyConfig(n_firms, total, regime)
        anchored = econorder.maxent._anchored(grid, config)
        floats, arrays = (
            econorder.maxent._newton(levels, anchored, config)
            for levels in evaluator_pair(grid, regime, *anchored[:2])
        )
        assert floats.converged
        assert_solutions_agree(floats, arrays, grid, config)

    @pytest.mark.parametrize("grid, config", OVERFLOWING_TRIALS)
    def test_trial_points_past_overflow(self, grid, config, monkeypatch):
        overflowed = []
        inf_on_overflow = econorder.maxent._inf_on_overflow

        def spy(f, x):
            value = inf_on_overflow(f, x)
            overflowed.append(math.isinf(value))
            return value

        monkeypatch.setattr(econorder.maxent, "_inf_on_overflow", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            floats = solve_multipliers(grid, config)
        assert any(overflowed)
        monkeypatch.setattr(econorder.maxent, "ARRAY_MIN_LEVELS", 0)
        arrays = solve_multipliers(grid, config)
        assert floats.iterations == arrays.iterations
        assert_solutions_agree(floats, arrays, grid, config)


# one level either side of the evaluators' split
NARROW, WIDE = (
    RevenueGrid(tuple(range(1, n + 1)), tuple(1 + k % 3 for k in range(n)))
    for n in (ARRAY_MIN_LEVELS - 1, ARRAY_MIN_LEVELS)
)


@pytest.mark.parametrize("grid", [GRID_2, NARROW, WIDE], ids=["2-levels", "narrow", "wide"])
@pytest.mark.parametrize("regime", list(Regime))
class TestNonFiniteInputs:
    """Refused by name on both sides of ARRAY_MIN_LEVELS, never a NaN result."""

    @pytest.mark.parametrize(
        "alpha, beta",
        [(bad, 0.1) for bad in (math.nan, math.inf, -math.inf)]
        + [(0.5, bad) for bad in (math.nan, math.inf, -math.inf)],
    )
    def test_multipliers(self, grid, regime, alpha, beta):
        for call in (occupancy, log_W, entropy_identity_residual):
            with pytest.raises(ConfigError, match="finite"):
                call(alpha, beta, grid, regime)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_stirling_occupancy(self, grid, regime, bad):
        occ = [1.0] * grid.n
        occ[-1] = bad
        with pytest.raises(ConfigError, match="finite"):
            stirling_log_multiplicity(occ, grid, regime)

    def test_identity_past_overflow(self, grid, regime):
        # an infinite occupancy has no Stirling entropy: refused, no warning
        alpha = 1e-320 if regime is Regime.PERFECT else -800.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="overflows"):
                entropy_identity_residual(alpha, 0.0, grid, regime)

    def test_stirling_negative_occupancy(self, grid, regime):
        occ = [1.0] * grid.n
        occ[0] = -1.0
        with pytest.raises(ConfigError, match="non-negative"):
            stirling_log_multiplicity(occ, grid, regime)


TWO_THOUSAND_LEVELS = RevenueGrid(tuple(range(1, 2001)), tuple(1 + k % 3 for k in range(2000)))


@pytest.mark.parametrize("grid", [GRID_3, TWO_THOUSAND_LEVELS], ids=["3-levels", "2000-levels"])
@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("container", [tuple, list, np.array])
def test_both_members_refuse_a_bad_stirling_entry_with_one_message(grid, regime, container):
    # each member checks its own input once: NaN, +-inf or a negative entry
    # at the first, a middle or the last level, and a wrong length, are
    # refused, as is the same input through the public call
    message = "order: occupancies must be finite and non-negative"
    members = evaluator_pair(grid, regime)
    public = lambda occ: stirling_log_multiplicity(occ, grid, regime)
    for stirling in (members[0].stirling, members[1].stirling, public):
        for bad in (math.nan, math.inf, -math.inf, -1.0):
            for k in (0, grid.n // 2, grid.n - 1):
                occ = [2.0] * grid.n
                occ[k] = bad
                with pytest.raises(ConfigError) as err:
                    stirling(container(occ))
                assert str(err.value) == message
        with pytest.raises(ConfigError, match="does not match grid with %d levels" % grid.n):
            stirling(container([2.0] * (grid.n + 1)))
        assert math.isfinite(stirling(container([2.0] * grid.n)))


@pytest.mark.parametrize("grid", [GRID_3, WIDE], ids=["3-levels", "wide"])
@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("member", ["_ArrayLevels", "_FloatLevels"])
def test_every_public_call_takes_the_selected_evaluator(monkeypatch, grid, regime, member):
    # with ARRAY_MIN_LEVELS moved to either side of the grid's level count,
    # each public entry point goes through maxent._evaluator, and every
    # evaluator it builds is the member the constant selects
    config = EconomyConfig(50, 50 * grid.levels[0] + 40, regime)
    sol = solve_multipliers(grid, config)
    select = econorder.maxent._evaluator
    built = []

    def spy(*args):
        levels = select(*args)
        built.append(type(levels).__name__)
        return levels

    for module in (econorder.maxent, econorder.macro):
        monkeypatch.setattr(module, "_evaluator", spy)
    split = 0 if member == "_ArrayLevels" else grid.n + 1
    monkeypatch.setattr(econorder.maxent, "ARRAY_MIN_LEVELS", split)
    calls = {
        "occupancy": lambda: occupancy(sol.alpha, sol.beta, grid, regime),
        "log_W": lambda: log_W(sol.alpha, sol.beta, grid, regime),
        "entropy_identity_residual": lambda: entropy_identity_residual(
            sol.alpha, sol.beta, grid, regime
        ),
        "stirling_log_multiplicity": lambda: stirling_log_multiplicity(
            sol.occupancy, grid, regime
        ),
        "solve_multipliers": lambda: solve_multipliers(grid, config),
    }
    for name, call in calls.items():
        built.clear()
        call()
        assert built and set(built) == {member}, name


# Log-spaced firm counts on GRID_3 up to each regime's refusal bound (N or Pi
# past the float range for mon, N^2 past it for per), at an interior total
# (Pi = N + N//3) and at the grid's mean (Pi = 2N), whose root is b = 0.
# Both of the oracle's roots scale like 1/N at the interior total under per.
LADDER_EXPONENTS = {
    Regime.MONOPOLISTIC: (3, 10, 20, 40, 80, 150, 300, 307),
    Regime.PERFECT: (3, 10, 20, 40, 80, 150, 154),
}


def ladder():
    """(regime, N, Pi) on every rung."""
    return [
        pytest.param(regime, 10**e, total, id="%s-1e%d-%s" % (regime.name[:3].lower(), e, name))
        for regime, exponents in LADDER_EXPONENTS.items()
        for e in exponents
        for name, total in (("interior", 10**e + 10**e // 3), ("mean", 2 * 10**e))
    ]


class TestOracleLadder:
    """The bisection oracle converges at every N that Newton solves."""

    @pytest.mark.parametrize("regime, n_firms, total", ladder())
    def test_oracle_converges(self, regime, n_firms, total):
        assert solve_multipliers_bisection(GRID_3, EconomyConfig(n_firms, total, regime)).converged

    @pytest.mark.parametrize("regime, n_firms, total", ladder())
    def test_oracle_agrees_with_newton(self, regime, n_firms, total):
        config = EconomyConfig(n_firms, total, regime)
        sol = solve_multipliers(GRID_3, config)
        oracle = solve_multipliers_bisection(GRID_3, config)
        assert sol.converged
        gap = max(abs(a - b) for a, b in zip(sol.occupancy, oracle.occupancy))
        assert gap <= 1e-8 * n_firms

    @pytest.mark.parametrize(
        "n_firms, evaluations", [(10**6, 73), (10**87, 341)], ids=["1e6", "1e87"]
    )
    def test_a_root_at_zero_stops_within_an_ulp_of_a(self, n_firms, evaluations):
        # per at the grid's mean: b = 0, and mean_excess stays <= 0 for b > 0
        # but for rounding, so halving by the relative width alone would run
        # b down to the subnormals; the bracket stops within an ulp of a,
        # after about 52 + log2(1/a) halvings
        config = EconomyConfig(n_firms, 2 * n_firms, Regime.PERFECT)
        oracle = solve_multipliers_bisection(GRID_3, config)
        assert oracle.converged
        assert oracle.iterations == evaluations


# Monopolistic economies where a*N, with a ~ -ln(N/3), passes the float range
# from about 10^306 firms: Newton holds its dual scaled by a power of two
# there.  A high total (Pi = 3N - N//3) at 10^308 is past the float range
# itself and refused by name (TestPastFloatRange).
@pytest.mark.parametrize(
    "exponent, share",
    [(305, "interior"), (306, "interior"), (308, "interior"), (306, "high"), (307, "high")],
)
def test_newton_converges_where_its_dual_overflows(exponent, share):
    n_firms = 10**exponent
    total = n_firms + n_firms // 3 if share == "interior" else 3 * n_firms - n_firms // 3
    config = EconomyConfig(n_firms, total, Regime.MONOPOLISTIC)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_multipliers(GRID_3, config)
    oracle = solve_multipliers_bisection(GRID_3, config)
    assert sol.converged and sol.iterations > 0
    assert all(math.isfinite(a) for a in sol.occupancy)
    gap = max(abs(a - b) for a, b in zip(sol.occupancy, oracle.occupancy))
    assert gap <= 1e-8 * n_firms


@pytest.mark.parametrize("solve", [solve_multipliers, solve_multipliers_bisection])
class TestPastFloatRange:
    """Economies the float solvers cannot represent are refused by name."""

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize(
        "grid, n_firms, total, key",
        [
            (GRID_3, 10**400, 2 * 10**400, "economy.N"),
            (RevenueGrid((0, 10**10), (1, 1)), 10**300, 10**309, "economy.Pi"),
        ],
        ids=["N", "Pi"],
    )
    def test_n_or_pi(self, solve, regime, grid, n_firms, total, key):
        with pytest.raises(ConfigError, match=key):
            solve(grid, EconomyConfig(n_firms, total, regime))

    @pytest.mark.parametrize("levels", [3, 20])
    def test_perfect_competition_past_the_hessian_range(self, solve, levels):
        # the per Hessian weight a + a^2 / g overflows once N^2 does; mon
        # solves at the same N have no such weight and still converge
        grid = RevenueGrid(tuple(range(1, levels + 1)), (1,) * levels)
        n_firms = 10**160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="economy.N"):
                solve(grid, EconomyConfig(n_firms, n_firms + n_firms // 3, Regime.PERFECT))
            sol = solve(grid, EconomyConfig(n_firms, n_firms + n_firms // 3, Regime.MONOPOLISTIC))
        assert sol.converged


def test_repeated_calls_keep_nothing():
    # nothing is cached per grid or per call: rounds of solve, identity and
    # Stirling on a float-path grid and an array-path grid leave net
    # allocations within a budget that 16 bytes kept per round would exceed
    rounds, budget = 2000, 16 * 2000
    cases = [
        (RevenueGrid((1, 4, 9), (2, 3, 1)), EconomyConfig(50, 190, Regime.PERFECT)),
        (WIDE, EconomyConfig(50, 300, Regime.MONOPOLISTIC)),
    ]

    def one_round():
        for grid, config in cases:
            sol = solve_multipliers(grid, config)
            entropy_identity_residual(sol.alpha, sol.beta, grid, config.regime)
            stirling_log_multiplicity(sol.occupancy, grid, config.regime)

    one_round()  # fills the wide grid's cached vectors
    tracemalloc.start()
    try:
        # a full collection also empties the interpreter's free lists, whose
        # size varies from round to round
        one_round()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(rounds):
            one_round()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < budget
