"""The multiplier solver held bit for bit to a fixed sha256 digest.

Every field of each MultiplierSolution, the entropy-identity report at the
solved multipliers and the Stirling sum of the solved occupancy are written
as exact float hex and hashed, over seeded interior draws in both regimes
(checks.random_solver_instance), the condensation-sweep shape (levels 1 2 3
with the total just above the ground state), grids of at least
ARRAY_MIN_LEVELS levels, and economies large enough to take Newton's scaled
dual.  A change to how the solver sums or evaluates that moves any bit of
any value fails here.  The digest depends on the platform's libm and numpy:
it was taken on x86-64 Linux (glibc) with numpy 2.4.6.
"""

import hashlib

import numpy as np

from econorder import (
    EconomyConfig,
    Regime,
    RevenueGrid,
    entropy_identity_residual,
    solve_multipliers,
    stirling_log_multiplicity,
)
from econorder.checks import random_solver_instance
from econorder.maxent import ARRAY_MIN_LEVELS

DIGEST = "223dcd4cc43f7c89a3ba4d500a5c900ccb96a9f2a973b3baee00f9ebe7b04d9e"


def instances():
    rng = np.random.default_rng(20261020)
    for regime in Regime:
        yield from (random_solver_instance(rng, regime) for _ in range(40))
        for g in ((1, 1, 1), (3, 1, 2), (2, 5, 4)):
            for n in (10, 1_000, 100_000):
                for excess in (1, 3, 13):
                    yield RevenueGrid((1, 2, 3), g), EconomyConfig(n, n + excess, regime)
        for levels in (ARRAY_MIN_LEVELS, 40, 300):
            g = tuple(int(k) for k in rng.integers(1, 6, size=levels))
            n = int(rng.integers(1_000, 100_000))
            total = int(n * (1 + rng.uniform(0.05, 0.6) * (levels - 1)))
            yield RevenueGrid(tuple(range(1, levels + 1)), g), EconomyConfig(n, total, regime)
    # the scaled dual (mon, N >= 2**960) and the largest per N in floats
    for n, regime in ((10**300, Regime.MONOPOLISTIC), (10**150, Regime.PERFECT)):
        for grid in (RevenueGrid((1, 2, 3), (1, 2, 1)), RevenueGrid(tuple(range(1, 21)), (2,) * 20)):
            yield grid, EconomyConfig(n, n * grid.levels[-1] // 3 + n // 7, regime)


def text(value) -> str:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return "(%s)" % ",".join(map(text, value))
    return repr(value)


def test_solver_values_match_pinned_digest():
    digest = hashlib.sha256()
    count = 0
    for grid, config in instances():
        sol = solve_multipliers(grid, config)
        fields = [
            sol.alpha, sol.beta, sol.occupancy, sol.residual_n, sol.residual_pi,
            sol.iterations, sol.converged, sol.boundary, sol.pinned, sol.method,
        ]
        if sol.alpha is not None and sol.beta not in (None, 0.0):
            report = entropy_identity_residual(sol.alpha, sol.beta, grid, config.regime)
            fields += [
                report.residual, report.best_sign, report.entropy,
                report.expression, report.grad_alpha, report.grad_beta,
            ]
        fields.append(stirling_log_multiplicity(sol.occupancy, grid, config.regime))
        digest.update((text(fields) + "\n").encode())
        count += 1
    assert count == 2 * (40 + 27 + 3) + 4
    assert digest.hexdigest() == DIGEST
