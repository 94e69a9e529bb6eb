"""Solve the constrained occupancy problem and watch condensation set in.

Sweeps the total revenue of a perfectly competitive economy down toward the
ground level and prints the occupancy, the multiplier gap at the lowest
level, and the condensation verdict at each step.  Finishes with the macro
mapping of a monopolistic instance.
"""

import numpy as np

from econorder import (
    EconomyConfig,
    Regime,
    RevenueGrid,
    detect_condensation,
    macro_from_multipliers,
    solve_multipliers,
    stirling_log_multiplicity,
    technology,
)

grid = RevenueGrid(levels=(1, 2, 3), degeneracies=(1, 1, 1))
n_firms = 100

print("Perfect competition, 100 firms on levels (1, 2, 3).")
print("Mean revenue slides toward the ground level:\n")
print("  Pi   mean   occupancy                gap        condensed")
for total in (200, 160, 130, 115, 105):
    config = EconomyConfig(n_firms, total, Regime.PERFECT)
    sol = solve_multipliers(grid, config)
    report = detect_condensation(sol, grid, config)
    occ = np.round(sol.occupancy, 2)
    print(
        f"  {total:<4d} {total / n_firms:<6.2f} {str(occ):<24s} {report.gap:<10.2e} {report.condensed}"
    )

print("\nThe multiplier gap at the lowest level shrinks as the mean revenue")
print("approaches that level, piling almost every firm onto it: the crisis")
print("signature of the perfectly competitive regime.\n")

config = EconomyConfig(10, 14, Regime.MONOPOLISTIC)
two_level = RevenueGrid((1, 2), (1, 1))
sol = solve_multipliers(two_level, config)
params = macro_from_multipliers(sol.alpha, sol.beta, lam=1.0)
log_omega = stirling_log_multiplicity(sol.occupancy, two_level, config.regime)
print("Monopolistic two-level instance (10 firms, total 14):")
print(f"  occupancy      : {np.round(sol.occupancy, 6)}")
print(f"  alpha, beta    : {sol.alpha:.6f}, {sol.beta:.6f}")
print(f"  marginal returns: mu = {params.mu:.4f}, theta = {params.theta:.4f}")
print(f"  technology T = lambda * ln(Omega) = {technology(log_omega, 1.0):.4f}")
