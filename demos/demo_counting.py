"""Walk through the two-firm, two-industry economy by hand.

Counts how many equilibrium outcomes each occupancy admits, under both
competition regimes, and shows how the equal-probability rule turns the
outcome counts into order probabilities.
"""

from econorder import (
    EconomyConfig,
    Regime,
    RevenueGrid,
    catalog,
    enumerate_outcomes,
)

grid = RevenueGrid(levels=(1, 2), degeneracies=(1, 1))

print("Two firms, two industries paying 1 and 2 money units.")
print("The revenue constraint is dropped, so every placement is allowed.\n")

for regime in (Regime.MONOPOLISTIC, Regime.PERFECT):
    config = EconomyConfig(n_firms=2, total_revenue=None, regime=regime)
    label = (
        "distinguishable firms (monopolistic competition)"
        if regime is Regime.MONOPOLISTIC
        else "indistinguishable firms (perfect competition)"
    )
    print(f"--- {label} ---")
    groups = enumerate_outcomes(grid, config)
    for order, members in groups.items():
        print(f"  occupancy {order.occupancy}: {len(members)} outcome(s)")
        for outcome in members:
            print(f"    {outcome.assignment}")
    cat = catalog(grid, config)
    for entry in cat.entries:
        print(f"  P[{entry.order.occupancy}] = {entry.probability}")
    best = cat.most_probable()
    ties = cat.tie_set()
    if len(ties) > 1:
        print(f"  most probable: {best.occupancy} (tie among {[t.occupancy for t in ties]})")
    else:
        print(f"  most probable: {best.occupancy}")
    print()

print("Now impose the revenue constraint Pi = 3 = 1 + 2:")
config = EconomyConfig(n_firms=2, total_revenue=3, regime=Regime.MONOPOLISTIC)
cat = catalog(grid, config)
for entry in cat.entries:
    print(f"  P[{entry.order.occupancy}] = {entry.probability}")
print("The all-low and all-high occupancies violate the total and vanish.")
