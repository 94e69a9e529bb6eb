"""Sample equilibrium outcomes uniformly and compare to exact probabilities.

Each draw picks an order with probability proportional to its exact
multiplicity, then one of that order's outcomes uniformly, so the sampled
order frequencies converge to the exact catalog probabilities.
"""

from fractions import Fraction
from itertools import islice

from econorder import (
    EconomyConfig,
    Regime,
    RevenueGrid,
    catalog,
    empirical_frequencies,
    sample_outcomes,
)

grid = RevenueGrid(levels=(1, 2, 3), degeneracies=(1, 1, 1))
config = EconomyConfig(n_firms=6, total_revenue=12, regime=Regime.MONOPOLISTIC)
draws = 30_000

cat = catalog(grid, config)
print("Six distinguishable firms on levels (1, 2, 3), total revenue 12.")
print(f"{cat.total_outcomes} feasible outcomes across {len(cat.entries)} orders.\n")

sampled = empirical_frequencies(
    islice(sample_outcomes(grid, config, seed=7), draws), grid
)

print(f"order        exact     sampled   ({draws} draws)")
for entry in cat.entries:
    print(
        "%-12s %.6f  %.6f"
        % (
            str(entry.order.occupancy),
            float(entry.probability),
            float(sampled.get(entry.order, Fraction(0))),
        )
    )

print("\nThe sampler is seeded and reproducible, and every draw is a feasible")
print("equilibrium outcome: the firm count and the total revenue are fixed.")
