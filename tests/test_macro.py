"""Macro mapping, generating function, and the measured entropy identity."""

import math

import numpy as np
import pytest

from econorder import (
    ConfigError,
    EconomyConfig,
    MacroParams,
    Regime,
    RevenueGrid,
    SingularityError,
    catalog,
    entropy_identity_residual,
    enumerate_orders,
    log_W,
    log_W_gradient,
    log_multiplicity,
    macro_from_multipliers,
    macro_production,
    multipliers_from_macro,
    occupancy,
    occupancy_from_macro,
    solve_multipliers,
    stirling_log_multiplicity,
    technology,
)

GRID_2 = RevenueGrid((1, 2), (1, 1))


class TestProduction:
    def test_identity_inputs(self):
        assert macro_production(1, 1, 1, 0.3, 0.5, 0.2) == 1.0

    def test_cobb_douglas_evaluation(self):
        assert macro_production(4, 9, 2, 0.5, 0.5, 1.0) == pytest.approx(12.0)

    def test_zero_technology_exponent(self):
        assert macro_production(4, 9, 2, 0.5, 0.5, 0.0) == macro_production(
            4, 9, 17, 0.5, 0.5, 0.0
        )

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ConfigError):
            macro_production(0, 1, 1, 1, 1, 1)
        with pytest.raises(ConfigError):
            macro_production(1, 1, -2, 1, 1, 1)


class TestMapping:
    def test_zero_marginal_return_gives_zero_alpha(self):
        alpha, beta = multipliers_from_macro(MacroParams(mu=0.0, theta=2.0, lam=3.0))
        assert alpha == 0.0
        assert beta == pytest.approx(1 / 6)

    def test_direct_substitution(self):
        alpha, beta = multipliers_from_macro(MacroParams(mu=2.0, theta=1.0, lam=1.0))
        assert alpha == pytest.approx(-2.0)
        assert beta == pytest.approx(1.0)

    def test_two_level_solution_maps_to_macro(self):
        sol = solve_multipliers(GRID_2, EconomyConfig(10, 14, Regime.MONOPOLISTIC))
        params = macro_from_multipliers(sol.alpha, sol.beta, 1.0)
        assert params.mu == pytest.approx(5.41903, abs=1e-4)
        assert params.theta == pytest.approx(2.46630, abs=1e-4)

    def test_zero_alpha_gives_zero_mu(self):
        params = macro_from_multipliers(0.0, 0.7, 2.0)
        assert params.mu == 0.0

    def test_lambda_rescaling_moves_theta_only(self):
        one = macro_from_multipliers(-1.0, 0.5, 1.0)
        two = macro_from_multipliers(-1.0, 0.5, 2.0)
        assert two.theta == pytest.approx(one.theta / 2)
        assert two.mu == one.mu

    def test_round_trip_randomised(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            alpha = float(rng.uniform(-4, 4))
            beta = float(rng.choice([-1, 1])) * float(rng.uniform(0.01, 3))
            lam = float(rng.uniform(0.05, 5))
            back_alpha, back_beta = multipliers_from_macro(
                macro_from_multipliers(alpha, beta, lam)
            )
            assert back_alpha == pytest.approx(alpha, abs=1e-12 * max(1, abs(alpha)))
            assert back_beta == pytest.approx(beta, abs=1e-12 * max(1, abs(beta)))

    def test_degenerate_mappings_rejected(self):
        with pytest.raises(ConfigError):
            macro_from_multipliers(1.0, 0.0, 1.0)
        with pytest.raises(ConfigError):
            MacroParams(mu=1.0, theta=0.0, lam=1.0)
        with pytest.raises(ConfigError):
            MacroParams(mu=1.0, theta=1.0, lam=0.0)


class TestOccupancyFromMacro:
    def test_flat_limit(self):
        grid = RevenueGrid((1, 2, 3), (2, 5, 1))
        params = MacroParams(mu=0.0, theta=1e9, lam=1.0)
        got = occupancy_from_macro(params, grid, Regime.MONOPOLISTIC)
        assert got == pytest.approx(grid.degeneracies, rel=1e-6)

    def test_composition_equality_with_multiplier_form(self):
        rng = np.random.default_rng(3)
        grid = RevenueGrid((1, 3, 4), (1, 2, 2))
        for _ in range(20):
            alpha = float(rng.uniform(0.2, 2.0))
            beta = float(rng.uniform(0.05, 1.0))
            lam = float(rng.uniform(0.1, 3.0))
            params = macro_from_multipliers(alpha, beta, lam)
            for regime in Regime:
                direct = occupancy(alpha, beta, grid, regime)
                mapped = occupancy_from_macro(params, grid, regime)
                assert mapped == pytest.approx(direct, rel=1e-12)

    def test_known_value_near_singularity(self):
        params = MacroParams(mu=0.9, theta=0.5, lam=1.0)
        got = occupancy_from_macro(params, GRID_2, Regime.PERFECT)
        assert got[0] == pytest.approx(1 / math.expm1(0.2), rel=1e-10)
        assert got[0] == pytest.approx(4.51668, abs=1e-4)

    def test_singularity_raises(self):
        params = MacroParams(mu=1.5, theta=0.5, lam=1.0)
        with pytest.raises(SingularityError) as err:
            occupancy_from_macro(params, GRID_2, Regime.PERFECT)
        assert err.value.level_index == 0


class TestLogW:
    def test_monopolistic_single_level_at_zero(self):
        grid = RevenueGrid((1,), (3,))
        assert log_W(-1.0, 1.0, grid, Regime.MONOPOLISTIC) == pytest.approx(-3.0)

    def test_perfect_single_level_log_half(self):
        grid = RevenueGrid((1,), (1,))
        assert log_W(math.log(2), 0.0, grid, Regime.PERFECT) == pytest.approx(
            math.log(0.5), rel=1e-12
        )

    def test_additivity_over_levels(self):
        alpha, beta = 0.4, 0.3
        grid = RevenueGrid((1, 2), (2, 3))
        left = log_W(alpha, beta, RevenueGrid((1,), (2,)), Regime.PERFECT)
        right = log_W(alpha, beta, RevenueGrid((2,), (3,)), Regime.PERFECT)
        assert log_W(alpha, beta, grid, Regime.PERFECT) == pytest.approx(left + right)

    def test_domain_violation(self):
        with pytest.raises(SingularityError):
            log_W(-1.0, 0.1, GRID_2, Regime.PERFECT)

    @pytest.mark.parametrize("regime", [Regime.MONOPOLISTIC, Regime.PERFECT])
    def test_gradient_recovers_totals(self, regime):
        # the generating function encodes the constraints: its gradient is
        # (sum a_k, sum a_k e_k) at the closed-form occupancy
        grid = RevenueGrid((1, 2, 3), (2, 1, 2))
        alpha, beta = 0.8, 0.25
        occ = occupancy(alpha, beta, grid, regime)
        grad_a, grad_b = log_W_gradient(alpha, beta, grid, regime)
        assert grad_a == pytest.approx(float(occ.sum()), rel=1e-12)
        assert grad_b == pytest.approx(
            float((occ * np.array(grid.levels, float)).sum()), rel=1e-12
        )


class TestEntropyIdentity:
    def test_derivative_cross_check(self):
        sol = solve_multipliers(GRID_2, EconomyConfig(10, 14, Regime.MONOPOLISTIC))
        report = entropy_identity_residual(sol.alpha, sol.beta, GRID_2, Regime.MONOPOLISTIC)
        assert report.grad_alpha == pytest.approx(report.grad_alpha_fd, rel=1e-6)
        assert report.grad_beta == pytest.approx(report.grad_beta_fd, rel=1e-6)

    def test_constraint_recovery_on_solved_instances(self):
        cases = [
            (GRID_2, EconomyConfig(10, 14, Regime.MONOPOLISTIC)),
            (RevenueGrid((1, 2, 3), (2, 3, 1)), EconomyConfig(50, 95, Regime.PERFECT)),
        ]
        for grid, config in cases:
            sol = solve_multipliers(grid, config)
            grad_a, grad_b = log_W_gradient(sol.alpha, sol.beta, grid, config.regime)
            assert grad_a == pytest.approx(config.n_firms, rel=1e-8)
            assert grad_b == pytest.approx(config.total_revenue, rel=1e-8)

    def test_monopolistic_residual_structure(self):
        # with the generating function as written, the expression equals the
        # negated dilute-gas entropy; the occupancy entropy carries an extra
        # ln N! term, so the negative-sign residual is exactly ln N!
        sol = solve_multipliers(GRID_2, EconomyConfig(10, 14, Regime.MONOPOLISTIC))
        report = entropy_identity_residual(sol.alpha, sol.beta, GRID_2, Regime.MONOPOLISTIC)
        assert report.residual_negative == pytest.approx(math.lgamma(11), rel=1e-9)
        assert report.entropy == pytest.approx(8.80868, abs=1e-4)
        assert report.expression == pytest.approx(6.29573, abs=1e-4)
        assert report.best_sign == 1
        assert report.residual == pytest.approx(2.51294, abs=1e-4)

    def test_perfect_identity_tight_for_large_occupancies(self):
        grid = RevenueGrid((1, 2, 3), (200, 200, 200))
        config = EconomyConfig(600, 1080, Regime.PERFECT)
        sol = solve_multipliers(grid, config)
        report = entropy_identity_residual(sol.alpha, sol.beta, grid, Regime.PERFECT)
        assert report.best_sign == -1
        assert abs(report.residual) <= 0.01 * abs(report.entropy)

    def test_residuals_invariant_under_money_rescaling(self):
        sol = solve_multipliers(GRID_2, EconomyConfig(10, 14, Regime.MONOPOLISTIC))
        base = entropy_identity_residual(sol.alpha, sol.beta, GRID_2, Regime.MONOPOLISTIC)
        for c in (2, 10):
            scaled = entropy_identity_residual(
                sol.alpha, sol.beta / c, GRID_2.scaled(c), Regime.MONOPOLISTIC
            )
            assert scaled.residual == pytest.approx(base.residual, rel=1e-9)
            assert scaled.best_sign == base.best_sign


class TestTechnology:
    def test_unique_outcome_means_no_technology(self):
        assert technology(0.0, 3.0) == 0.0

    def test_two_outcome_order(self):
        grid = RevenueGrid((1, 2), (1, 1))
        log_omega = log_multiplicity((1, 1), grid, Regime.MONOPOLISTIC)
        assert technology(log_omega, 1.0) == pytest.approx(math.log(2), rel=1e-12)

    def test_lambda_proportionality(self):
        assert technology(1.7, 2.0) == pytest.approx(2 * technology(1.7, 1.0))

    def test_requires_positive_lambda(self):
        with pytest.raises(ConfigError):
            technology(1.0, 0.0)

    def test_maximised_at_most_probable_order(self):
        grid = RevenueGrid((1, 2, 3), (1, 1, 1))
        config = EconomyConfig(6, 12, Regime.MONOPOLISTIC)
        cat = catalog(grid, config)
        techs = {
            o.occupancy: technology(log_multiplicity(o, grid, config.regime), 1.0)
            for o in enumerate_orders(grid, config)
        }
        assert max(techs, key=techs.get) == cat.most_probable().occupancy

    def test_solution_entropy_feeds_technology(self):
        config = EconomyConfig(10, 14, Regime.MONOPOLISTIC)
        sol = solve_multipliers(GRID_2, config)
        log_omega = stirling_log_multiplicity(sol.occupancy, GRID_2, config.regime)
        assert technology(log_omega, 2.0) == pytest.approx(2 * log_omega)
