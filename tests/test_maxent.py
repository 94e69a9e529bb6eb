"""Multiplier solving, closed-form occupancies, and condensation detection."""

import math

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
    enumerate_orders,
    occupancy,
    solve_multipliers,
    solve_multipliers_bisection,
    stirling_log_multiplicity,
)
from econorder.checks import random_solver_instance

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
        "levels, degens, n_firms, total",
        [
            # one revenue unit below the top: the oracle's scalar expm1 overflowed
            ((101, 117, 207, 272, 316, 391, 393), (2, 1, 11, 1, 4, 18, 21), 1745, 685784),
            # 28 units above the ground state of close, high levels: the oracle
            # lost the excess revenue in the rounding of Pi
            ((184, 185), (1, 7), 18089, 18089 * 184 + 28),
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
        if oracle.converged:
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
