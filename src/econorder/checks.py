"""End-to-end internal consistency checks, runnable from the CLI.

Each check pits an implementation path against an independent route to the
same quantity: closed-form counts against exhaustive generation, the Newton
solver against nested bisection, sampled frequencies against exact
probabilities, analytic derivatives against finite differences.  Checks are
seeded and deterministic.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

import numpy as np

from .core import EconomyConfig, Regime, RevenueGrid
from .enumeration import catalog, enumerate_outcomes
from .errors import EconOrderError
from .macro import entropy_identity_residual, log_W, macro_from_multipliers, multipliers_from_macro
from .maxent import occupancy, solve_multipliers, solve_multipliers_bisection

COUNTING_INSTANCES = 40
SCAN_CAP = 60_000  # outcome spaces above this are redrawn, not scanned
SOLVER_INSTANCES = 20  # per regime
ARGMAX_SIZES = (10, 20, 40)  # firm counts, at a fixed mean revenue of 9/5
SAMPLER_DRAWS = 20_000
_FD_STEP = 1e-6  # relative step of the central differences of ln W


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: dict = field(default_factory=dict)


def random_counting_instance(rng: np.random.Generator):
    """Small random grid/economy suitable for exhaustive outcome generation."""
    n = int(rng.integers(1, 5))
    levels = tuple(sorted(rng.choice(np.arange(1, 13), size=n, replace=False).tolist()))
    degens = tuple(int(rng.integers(1, 4)) for _ in range(n))
    n_firms = int(rng.integers(1, 7))
    regime = Regime(int(rng.integers(0, 2)))
    if rng.random() < 0.5:
        total = None
    else:
        # pick a realisable revenue total so the instance is non-trivial
        draws = rng.integers(0, n, size=n_firms)
        total = int(sum(levels[d] for d in draws))
    grid = RevenueGrid(levels, degens)
    config = EconomyConfig(n_firms, total, regime)
    return grid, config


def random_solver_instance(rng: np.random.Generator, regime: Regime):
    """Random feasible instance with an interior mean revenue."""
    n = int(rng.integers(2, 7))
    levels = tuple(sorted(rng.choice(np.arange(1, 61), size=n, replace=False).tolist()))
    degens = tuple(int(rng.integers(1, 6)) for _ in range(n))
    n_firms = int(rng.integers(5, 400))
    u = 0.15 + 0.7 * rng.random()
    mean = levels[0] + u * (levels[-1] - levels[0])
    total = int(round(n_firms * mean))
    total = min(max(total, n_firms * levels[0] + 1), n_firms * levels[-1] - 1)
    return RevenueGrid(levels, degens), EconomyConfig(n_firms, total, regime)


def check_two_firm_example() -> CheckResult:
    """Two firms over two industries, unconstrained: counts 1/2/1 and the
    even split as the most probable order; three singleton groups when firms
    are indistinguishable."""
    grid = RevenueGrid((1, 2), (1, 1))
    expected_mon = {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    detail: dict = {}
    passed = True
    for regime, expected in (
        (Regime.MONOPOLISTIC, expected_mon),
        (Regime.PERFECT, {(2, 0): 1, (1, 1): 1, (0, 2): 1}),
    ):
        config = EconomyConfig(2, None, regime)
        cat = catalog(grid, config)
        for entry in cat.entries:
            want = expected[entry.order.occupancy]
            if entry.multiplicity != want:
                passed = False
                detail["mismatched_order"] = list(entry.order.occupancy)
                detail["regime"] = regime.short_name
                detail["got"] = str(entry.multiplicity)
                detail["want"] = want
        if regime is Regime.MONOPOLISTIC:
            probs = {e.order.occupancy: e.probability for e in cat.entries}
            if probs != {
                (1, 1): Fraction(1, 2),
                (0, 2): Fraction(1, 4),
                (2, 0): Fraction(1, 4),
            }:
                passed = False
                detail["bad_probabilities"] = {
                    str(k): str(v) for k, v in probs.items()
                }
    return CheckResult("two_firm_example_exactness", passed, detail)


def check_counting_oracle(seed: int) -> CheckResult:
    """The catalog's counts equal exhaustive micro-outcome group sizes.

    It holds the catalog's table counts (``counting._multiplicities``) to
    the group sizes of ``enumerate_outcomes``, which never uses a formula.
    """
    rng = np.random.default_rng(seed)
    checked = 0
    while checked < COUNTING_INSTANCES:
        grid, config = random_counting_instance(rng)  # always feasible: catalog never raises
        cat = catalog(grid, config)
        if cat.total_outcomes > SCAN_CAP:
            continue  # keep the exhaustive scan desk-sized; the draw stays random
        groups = enumerate_outcomes(grid, config, cap=SCAN_CAP)
        expected = dict(zip(zip(*cat.orders.columns), cat.counts))  # by occupancy
        sizes = {order.occupancy: len(members) for order, members in groups.items()}
        if sizes != expected:
            for occupancy in sorted(set(expected) | set(sizes)):  # smallest first
                if sizes.get(occupancy) != expected.get(occupancy):
                    return CheckResult(
                        "counting_oracle",
                        False,
                        {
                            "order": list(occupancy),
                            "formula": str(expected.get(occupancy)),
                            "enumerated": str(sizes.get(occupancy)),
                            "regime": config.regime.short_name,
                        },
                    )
        checked += 1
    return CheckResult("counting_oracle", True, {"instances": checked})


def check_solver(seed: int) -> CheckResult:
    """Newton residuals, agreement with the bisection oracle, and exact
    log-linearity of the Boltzmann occupancy."""
    rng = np.random.default_rng(seed)
    worst = {"residual": 0.0, "oracle_gap": 0.0, "loglinearity": 0.0}
    for regime in (Regime.MONOPOLISTIC, Regime.PERFECT):
        for _ in range(SOLVER_INSTANCES):
            grid, config = random_solver_instance(rng, regime)
            sol = solve_multipliers(grid, config)
            if not sol.converged or sol.alpha is None:
                return CheckResult(
                    "solver_suite",
                    False,
                    {"unconverged": True, "levels": list(grid.levels),
                     "n": config.n_firms, "pi": config.total_revenue,
                     "regime": regime.short_name},
                )
            rel = max(
                abs(sol.residual_n) / config.n_firms,
                abs(sol.residual_pi) / max(1.0, config.total_revenue),
            )
            worst["residual"] = max(worst["residual"], rel)
            oracle = solve_multipliers_bisection(grid, config)
            gap = max(abs(sol.alpha - oracle.alpha), abs(sol.beta - oracle.beta))
            worst["oracle_gap"] = max(worst["oracle_gap"], gap)
            if regime is Regime.MONOPOLISTIC:
                e, g = grid.vectors
                logs = np.log(np.array(sol.occupancy) / g)
                slope, intercept = np.polyfit(e, logs, 1)
                dev = float(np.max(np.abs(logs - (slope * e + intercept))))
                worst["loglinearity"] = max(worst["loglinearity"], dev)
    passed = (
        worst["residual"] <= 1e-10
        and worst["oracle_gap"] <= 1e-8
        and worst["loglinearity"] <= 1e-9
    )
    return CheckResult("solver_suite", passed, worst)


def check_argmax_convergence() -> CheckResult:
    """Normalized distance between the exact most probable order and the
    continuous occupancy shrinks as the economy grows at fixed mean."""
    grid = RevenueGrid((1, 2, 3), (2, 2, 2))
    detail: dict = {}
    passed = True
    for regime in (Regime.MONOPOLISTIC, Regime.PERFECT):
        distances = []
        for n_firms in ARGMAX_SIZES:
            config = EconomyConfig(n_firms, 9 * n_firms // 5, regime)
            cat = catalog(grid, config)
            exact = np.array(cat.most_probable().occupancy, float) / n_firms
            sol = solve_multipliers(grid, config)
            approx = np.array(sol.occupancy) / n_firms
            distances.append(float(np.abs(exact - approx).sum()))
        monotone = all(b <= a + 1e-12 for a, b in zip(distances, distances[1:]))
        detail[regime.short_name] = [round(d, 6) for d in distances]
        if not monotone or distances[-1] > 0.1:
            passed = False
    return CheckResult("argmax_convergence", passed, detail)


def check_sampler(seed: int) -> CheckResult:
    """Uniform sampling reproduces the exact catalog probabilities, and on
    grids whose every level has several slots, every micro-outcome that
    ``enumerate_outcomes`` lists is drawn equally often."""
    from scipy import stats  # scipy loads only when the checks run
    cases = [
        (RevenueGrid((1, 2), (1, 1)), EconomyConfig(4, None, Regime.MONOPOLISTIC)),
        (RevenueGrid((1, 2, 3), (1, 1, 1)), EconomyConfig(4, 8, Regime.PERFECT)),
    ]
    detail: dict = {}
    passed = True
    for idx, (grid, config) in enumerate(cases):
        cat = catalog(grid, config)
        drawn = Counter(islice(cat.picks(seed + idx), SAMPLER_DRAWS))
        observed = np.array([drawn[j] for j in cat.entries.positions], dtype=float)
        # e.multiplicity / total is float(e.probability), without the gcd
        expected = np.array(
            [e.multiplicity / cat.total_outcomes * SAMPLER_DRAWS for e in cat.entries]
        )
        if len(cat.entries) > 1:
            pvalue = float(stats.chisquare(observed, expected).pvalue)
        else:
            pvalue = 1.0
        detail[f"case_{idx}_pvalue"] = round(pvalue, 6)
        if pvalue < 0.01:
            passed = False
    micro_cases = [
        (RevenueGrid((1, 2, 3), (2, 2, 3)), EconomyConfig(4, 8, Regime.MONOPOLISTIC)),
        (RevenueGrid((1, 2, 3), (2, 3, 4)), EconomyConfig(4, 8, Regime.PERFECT)),
    ]
    for idx, (grid, config) in enumerate(micro_cases, start=len(cases)):
        outcomes = [o for group in enumerate_outcomes(grid, config).values() for o in group]
        drawn = Counter(islice(catalog(grid, config).sample(seed + idx), SAMPLER_DRAWS))
        pvalue = float(stats.chisquare([drawn[o] for o in outcomes]).pvalue)
        detail[f"micro_{config.regime.short_name}_pvalue"] = round(pvalue, 6)
        if pvalue < 0.01 or not drawn.keys() <= set(outcomes):
            passed = False
    return CheckResult("sampler_chisquare", passed, detail)


def log_w_gradient_fd(
    alpha: float, beta: float, grid: RevenueGrid, regime: Regime
) -> tuple[float, float]:
    """Central differences of ``log_W`` in alpha and beta, the oracle of the
    identity's analytic gradient; perfect-competition steps stay in x_k > 0."""
    ha = _FD_STEP * max(1.0, abs(alpha))
    hb = _FD_STEP * max(1.0, abs(beta))
    if regime is Regime.PERFECT:
        # the smallest exponent is ln(1 + g_k / a_k) at the largest a_k / g_k;
        # a level whose a_k underflowed to 0 has g_k / a_k = inf, never the min
        occ = occupancy(alpha, beta, grid, regime)
        with np.errstate(divide="ignore", over="ignore"):
            x_min = math.log1p(float(np.min(grid.vectors[1] / occ)))
        ha = min(ha, _FD_STEP * x_min)
        hb = min(hb, _FD_STEP * x_min / max(1, grid.levels[-1]))
    grad_a = (log_W(alpha + ha, beta, grid, regime) - log_W(alpha - ha, beta, grid, regime)) / (2 * ha)
    grad_b = (log_W(alpha, beta + hb, grid, regime) - log_W(alpha, beta - hb, grid, regime)) / (2 * hb)
    return grad_a, grad_b


def check_macro_identities(seed: int) -> CheckResult:
    """Round-trip mapping, the identity's analytic gradient against the
    central finite differences of ``log_w_gradient_fd``, constraint recovery
    from the generating function, and the measured entropy-identity sign."""
    rng = np.random.default_rng(seed)
    detail: dict = {}
    passed = True
    for _ in range(20):
        alpha = float(rng.uniform(-3, 3))
        beta = float(rng.uniform(0.05, 2.0)) * (1 if rng.random() < 0.7 else -1)
        lam = float(rng.uniform(0.1, 4.0))
        params = macro_from_multipliers(alpha, beta, lam)
        alpha2, beta2 = multipliers_from_macro(params)
        if abs(alpha2 - alpha) > 1e-12 * max(1, abs(alpha)) or abs(
            beta2 - beta
        ) > 1e-12 * max(1, abs(beta)):
            passed = False
            detail["roundtrip_failure"] = [alpha, beta, lam]
    cases = [
        (RevenueGrid((1, 2, 3), (200, 200, 200)), EconomyConfig(600, 1080, Regime.PERFECT)),
        (RevenueGrid((1, 2), (1, 1)), EconomyConfig(10, 14, Regime.MONOPOLISTIC)),
    ]
    # Sign convention is measured once, on the indistinguishable-firm case,
    # where the entropy identity is internally consistent; the same
    # orientation then makes -s * dlnW/d(alpha,beta) recover (N, Pi).
    sign = None
    for grid, config in cases:
        sol = solve_multipliers(grid, config)
        report = entropy_identity_residual(sol.alpha, sol.beta, grid, config.regime)
        key = config.regime.short_name
        if sign is None:
            sign = report.best_sign
        rec_n = -sign * report.grad_alpha
        rec_pi = -sign * report.grad_beta
        err_n = abs(rec_n - config.n_firms) / config.n_firms
        err_pi = abs(rec_pi - config.total_revenue) / config.total_revenue
        grad_alpha_fd, grad_beta_fd = log_w_gradient_fd(sol.alpha, sol.beta, grid, config.regime)
        fd_err = max(
            abs(report.grad_alpha - grad_alpha_fd) / max(1.0, abs(report.grad_alpha)),
            abs(report.grad_beta - grad_beta_fd) / max(1.0, abs(report.grad_beta)),
        )
        detail[key] = {
            "recovery_err": float(max(err_n, err_pi)),
            "fd_err": float(fd_err),
            "best_sign": report.best_sign,
            "residual_over_entropy": float(abs(report.residual / report.entropy)),
        }
        if max(err_n, err_pi) > 1e-8 or fd_err > 1e-6:
            passed = False
        if config.regime is Regime.PERFECT and abs(report.residual) > 0.01 * abs(report.entropy):
            passed = False
    return CheckResult("macro_identities", passed, detail)


def run_checks(seed: int) -> list[CheckResult]:
    """Every suite's result, in a fixed order.  The suites build grids of
    their own in both regimes, fixed or drawn from ``seed`` (seed + 1, + 2
    and + 3 for the later random suites), so the seed is all they read.  A
    suite that raises an EconOrderError gives one failed result."""
    results = []
    for fn in (
        check_two_firm_example,
        lambda: check_counting_oracle(seed),
        lambda: check_solver(seed + 1),
        check_argmax_convergence,
        lambda: check_sampler(seed + 2),
        lambda: check_macro_identities(seed + 3),
    ):
        try:
            results.append(fn())
        except EconOrderError as exc:
            results.append(CheckResult("exception", False, {"message": str(exc)}))
    return results
