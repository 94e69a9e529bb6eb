"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines and timings.  Every tolerance is pinned here; nothing is deferred.
"""

import subprocess
import sys
import time
from fractions import Fraction
from itertools import islice

import numpy as np
from scipy import stats

from econorder import (
    EconomyConfig,
    Regime,
    RevenueGrid,
    catalog,
    detect_condensation,
    empirical_frequencies,
    entropy_identity_residual,
    enumerate_outcomes,
    fit_boltzmann,
    fit_bose_einstein,
    macro_from_multipliers,
    multiplicity,
    multipliers_from_macro,
    sample_outcomes,
    solve_multipliers,
    solve_multipliers_bisection,
    synthetic_bose_einstein,
    synthetic_exponential,
)
from econorder.checks import log_w_gradient_fd, random_counting_instance, random_solver_instance


class Criterion:
    """Times a criterion body and prints its verdict line."""

    def __init__(self, number: int, label: str, budget_seconds: float):
        self.number = number
        self.label = label
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} {verdict} ({elapsed:.2f}s): {self.label}")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_1_two_firm_example_exactness():
    with Criterion(1, "two-firm example: exact counts and probabilities", 1.0):
        grid = RevenueGrid((1, 2), (1, 1))
        cat_mon = catalog(grid, EconomyConfig(2, None, Regime.MONOPOLISTIC))
        counts = {e.order.occupancy: e.multiplicity for e in cat_mon.entries}
        assert counts == {(0, 2): 1, (1, 1): 2, (2, 0): 1}
        probs = {e.order.occupancy: e.probability for e in cat_mon.entries}
        assert probs == {
            (0, 2): Fraction(1, 4),
            (1, 1): Fraction(1, 2),
            (2, 0): Fraction(1, 4),
        }
        cat_per = catalog(grid, EconomyConfig(2, None, Regime.PERFECT))
        assert {e.order.occupancy: e.multiplicity for e in cat_per.entries} == {
            (0, 2): 1,
            (1, 1): 1,
            (2, 0): 1,
        }


def test_criterion_2_counting_oracle():
    with Criterion(2, "200 randomized instances: formula equals enumeration", 30.0):
        from econorder import feasible_outcome_count

        rng = np.random.default_rng(20_240_817)
        instances = 0
        while instances < 200:
            grid, config = random_counting_instance(rng)
            configs = [
                EconomyConfig(config.n_firms, config.total_revenue, regime)
                for regime in Regime
            ]
            # keep the exhaustive scan desk-sized; the draw stays random
            if any(feasible_outcome_count(grid, c) > 60_000 for c in configs):
                continue
            for cfg in configs:
                groups = enumerate_outcomes(grid, cfg, cap=60_000)
                for order, members in groups.items():
                    assert len(members) == multiplicity(order, grid, cfg.regime)
                instances += 1


def test_criterion_3_solver_correctness():
    with Criterion(3, "100 solves per regime: residuals, oracle, log-linearity", 60.0):
        rng = np.random.default_rng(314_159)
        for regime in Regime:
            for _ in range(100):
                grid, config = random_solver_instance(rng, regime)
                sol = solve_multipliers(grid, config)
                assert sol.converged
                assert abs(sol.residual_n) <= 1e-10 * config.n_firms
                assert abs(sol.residual_pi) <= 1e-10 * config.total_revenue
                oracle = solve_multipliers_bisection(grid, config)
                assert abs(sol.alpha - oracle.alpha) <= 1e-8
                assert abs(sol.beta - oracle.beta) <= 1e-8
                if regime is Regime.MONOPOLISTIC:
                    logs = np.log(
                        np.array(sol.occupancy) / np.array(grid.degeneracies, float)
                    )
                    e = np.array(grid.levels, float)
                    slope, intercept = np.polyfit(e, logs, 1)
                    assert float(np.max(np.abs(logs - (slope * e + intercept)))) <= 1e-9


def test_criterion_4_spontaneous_order_convergence():
    # The stated mean 1.8 admits no exact integer revenue at N in {8,...,64},
    # so the doubling ladder runs at N in {10,20,40,80} where 1.8*N is exact;
    # degeneracy 2 keeps the indistinguishable-firm argmax non-degenerate
    # (unit degeneracies give every order multiplicity one in that regime).
    with Criterion(4, "argmax converges to the continuous occupancy", 60.0):
        grid = RevenueGrid((1, 2, 3), (2, 2, 2))
        for regime in Regime:
            distances = []
            for n_firms in (10, 20, 40, 80):
                total = 9 * n_firms // 5
                assert total * 5 == 9 * n_firms  # mean is exactly 1.8
                config = EconomyConfig(n_firms, total, regime)
                exact = np.array(catalog(grid, config).most_probable().occupancy, float)
                sol = solve_multipliers(grid, config)
                assert sol.converged
                approx = np.array(sol.occupancy)
                distances.append(float(np.abs(exact - approx).sum()) / n_firms)
            assert all(
                later <= earlier + 1e-12
                for earlier, later in zip(distances, distances[1:])
            ), (regime, distances)
            assert distances[-1] <= 0.05, (regime, distances)


FAIRNESS_SUITE = [
    (RevenueGrid((1, 2), (1, 1)), EconomyConfig(2, None, Regime.MONOPOLISTIC)),
    (RevenueGrid((1, 2), (1, 1)), EconomyConfig(2, None, Regime.PERFECT)),
    (RevenueGrid((1, 2), (1, 1)), EconomyConfig(2, 3, Regime.MONOPOLISTIC)),
    (RevenueGrid((1, 2), (2, 1)), EconomyConfig(3, None, Regime.MONOPOLISTIC)),
    (RevenueGrid((1, 2), (3, 2)), EconomyConfig(2, None, Regime.PERFECT)),
    (RevenueGrid((1, 2), (1, 1)), EconomyConfig(4, 6, Regime.MONOPOLISTIC)),
    (RevenueGrid((1, 2, 3), (1, 1, 1)), EconomyConfig(3, 6, Regime.MONOPOLISTIC)),
    (RevenueGrid((1, 2, 3), (2, 1, 2)), EconomyConfig(3, 6, Regime.PERFECT)),
    (RevenueGrid((1, 2, 3), (1, 1, 1)), EconomyConfig(4, 8, Regime.PERFECT)),
]


def test_criterion_5_fairness_sampling():
    with Criterion(5, "uniform draws match exact probabilities (chi-square)", 60.0):
        draws = 100_000
        for idx, (grid, config) in enumerate(FAIRNESS_SUITE):
            cat = catalog(grid, config)
            assert cat.total_outcomes <= 50
            freqs = empirical_frequencies(
                islice(sample_outcomes(grid, config, seed=1000 + idx), draws), grid
            )
            observed = np.array(
                [float(freqs.get(e.order, Fraction(0))) * draws for e in cat.entries]
            )
            expected = np.array([float(e.probability) * draws for e in cat.entries])
            if len(cat.entries) == 1:
                assert observed[0] == draws
                continue
            pvalue = float(stats.chisquare(observed, expected).pvalue)
            assert pvalue >= 0.01, (grid.levels, config, pvalue)


def test_criterion_6_condensation_detection():
    with Criterion(6, "crisis detection on the pinned instances", 5.0):
        grid = RevenueGrid((1, 2, 3), (1, 1, 1))
        near = EconomyConfig(100, 105, Regime.PERFECT)
        sol = solve_multipliers(grid, near)
        report = detect_condensation(sol, grid, near)
        assert report.condensed
        assert report.ground_fraction >= 0.9
        centered = EconomyConfig(12, 24, Regime.PERFECT)
        sol2 = solve_multipliers(grid, centered)
        report2 = detect_condensation(sol2, grid, centered)
        assert not report2.condensed


def test_criterion_7_macro_identity():
    with Criterion(7, "macro round-trip, constraint recovery, entropy identity", 10.0):
        rng = np.random.default_rng(8)
        for _ in range(100):
            alpha = float(rng.uniform(-4, 4))
            beta = float(rng.choice([-1, 1])) * float(rng.uniform(0.01, 3))
            lam = float(rng.uniform(0.05, 5))
            back = multipliers_from_macro(macro_from_multipliers(alpha, beta, lam))
            assert abs(back[0] - alpha) <= 1e-12 * max(1, abs(alpha))
            assert abs(back[1] - beta) <= 1e-12 * max(1, abs(beta))

        # measure the sign convention on the regime whose identity is clean
        grid_be = RevenueGrid((1, 2, 3), (200, 200, 200))
        config_be = EconomyConfig(600, 1080, Regime.PERFECT)
        sol_be = solve_multipliers(grid_be, config_be)
        report_be = entropy_identity_residual(
            sol_be.alpha, sol_be.beta, grid_be, Regime.PERFECT
        )
        sign = report_be.best_sign
        assert abs(report_be.residual) <= 0.01 * abs(report_be.entropy)
        print(
            "ACCEPTANCE 7 note: chosen sign %+d, relative residual %.4f%%"
            % (sign, 100 * abs(report_be.residual / report_be.entropy))
        )

        cases = [
            (grid_be, config_be, sol_be),
        ]
        sol_mon = solve_multipliers(
            RevenueGrid((1, 2), (1, 1)), EconomyConfig(10, 14, Regime.MONOPOLISTIC)
        )
        cases.append(
            (RevenueGrid((1, 2), (1, 1)), EconomyConfig(10, 14, Regime.MONOPOLISTIC), sol_mon)
        )
        for grid, config, sol in cases:
            report = entropy_identity_residual(sol.alpha, sol.beta, grid, config.regime)
            grad_alpha_fd, grad_beta_fd = log_w_gradient_fd(sol.alpha, sol.beta, grid, config.regime)
            assert abs(-sign * report.grad_alpha - config.n_firms) <= 1e-8 * config.n_firms
            assert (
                abs(-sign * report.grad_beta - config.total_revenue)
                <= 1e-8 * config.total_revenue
            )
            assert abs(report.grad_alpha - grad_alpha_fd) <= 1e-6 * max(
                1.0, abs(report.grad_alpha)
            )
            assert abs(report.grad_beta - grad_beta_fd) <= 1e-6 * max(
                1.0, abs(report.grad_beta)
            )


def test_criterion_8_synthetic_data_recovery():
    with Criterion(8, "synthetic recovery and model discrimination", 120.0):
        exp_samples = synthetic_exponential(100_000, 10.0, 0.0, seed=2718)
        exp_fit = fit_boltzmann(exp_samples, tail_quantile=0.0)
        assert abs(exp_fit.parameters["t_eff"] - 10.0) / 10.0 <= 0.02

        levels = list(range(1, 51))
        be_samples = synthetic_bose_einstein(50_000, levels, 0.9, 10.0, seed=42)
        be_fit = fit_bose_einstein(be_samples, tail_quantile=0.0)
        assert be_fit.converged
        assert abs(be_fit.parameters["mu"] - 0.9) / 0.9 <= 0.05

        wins = 0
        for seed in range(20):
            samples = synthetic_bose_einstein(
                20_000, levels, 0.5, 4.0, seed=7000 + seed, mode="continuous"
            )
            near_fit = fit_bose_einstein(samples, tail_quantile=0.0)
            exp_near = fit_boltzmann(samples, tail_quantile=0.0)
            if near_fit.converged and near_fit.ks_statistic < exp_near.ks_statistic:
                wins += 1
        assert wins >= 18, f"discrimination won only {wins}/20 runs"


CHECK_CONFIG = """
[grid]
levels = 1 2 3

[economy]
N = 12
Pi = 24
regime = per
seeds = 42

[caps]
sample_draws = 4000
"""


def test_criterion_9_check_determinism(tmp_path):
    with Criterion(9, "check command twice: byte-identical outputs", 120.0):
        config = tmp_path / "run.ini"
        config.write_text(CHECK_CONFIG.strip() + "\n")
        outputs = []
        stdouts = []
        for run_dir in ("a", "b"):
            result = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "econorder.cli",
                    "check",
                    "--config",
                    str(config),
                    "--out",
                    str(tmp_path / run_dir),
                ],
                capture_output=True,
                check=False,
            )
            assert result.returncode == 0, result.stdout.decode() + result.stderr.decode()
            outputs.append((tmp_path / run_dir / "check.json").read_bytes())
            stdouts.append(result.stdout)
        assert outputs[0] == outputs[1]
        assert stdouts[0] == stdouts[1]
