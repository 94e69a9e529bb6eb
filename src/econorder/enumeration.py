"""Exhaustive enumeration of feasible occupancies and micro-outcomes.

Desk-scale machinery: list every occupancy vector satisfying the firm-count
and revenue constraints, list every micro-outcome (labeled assignment or
multiset, depending on the regime), attach exact rational probabilities under
the equal-probability rule, and sample outcomes exactly uniformly by drawing
an order from its exact multiplicity, then an outcome inside that order.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, groupby
from typing import Iterable, Iterator

from .core import EconomicOrder, EconomyConfig, Regime, RevenueGrid
from .counting import multiplicity
from .errors import CapExceededError, InfeasibleError

DEFAULT_OUTCOME_CAP = 10_000_000

Position = tuple[int, int]  # (level index, slot index within the level)


@dataclass(frozen=True)
class MicroOutcome:
    """One equilibrium outcome.

    For distinguishable firms, ``assignment`` holds one (level, slot)
    position per labeled firm.  For indistinguishable firms it holds sorted
    ((level, slot), count) pairs describing the occupied positions.
    """

    regime: Regime
    assignment: tuple

    def order(self, n_levels: int) -> EconomicOrder:
        occ = [0] * n_levels
        if self.regime is Regime.MONOPOLISTIC:
            for level, _slot in self.assignment:
                occ[level] += 1
        else:
            for (level, _slot), count in self.assignment:
                occ[level] += count
        return EconomicOrder(tuple(occ))


@dataclass(frozen=True)
class CatalogEntry:
    order: EconomicOrder
    multiplicity: int
    probability: Fraction


@dataclass(frozen=True)
class OrderCatalog:
    """All feasible occupancies with exact multiplicities and probabilities.

    Entries are sorted by decreasing multiplicity, ties broken by
    lexicographically smaller occupancy, so the first entry is the most
    probable order under the documented tie rule.  ``listing`` holds the same
    entries in listing (lexicographic) order and ``cumulative`` their running
    multiplicity totals, the table the exact sampler draws from.
    """

    entries: tuple[CatalogEntry, ...]
    total_outcomes: int
    listing: tuple[CatalogEntry, ...]
    cumulative: tuple[int, ...]
    degeneracies: tuple[int, ...]
    regime: Regime

    def most_probable(self) -> EconomicOrder:
        return self.entries[0].order

    def tie_set(self) -> tuple[EconomicOrder, ...]:
        top = self.entries[0].multiplicity
        return tuple(e.order for e in self.entries if e.multiplicity == top)

    def sample(self, seed: int) -> Iterator[MicroOutcome]:
        """Infinite, seeded stream of uniformly distributed feasible micro-outcomes.

        Each draw is exact in two steps (the recursive method of Nijenhuis &
        Wilf, *Combinatorial Algorithms*, 1978).  An order is picked with
        probability multiplicity / total, by an exact big-integer index into
        the cumulative multiplicities; then one of that order's outcomes is
        picked uniformly: a random arrangement of the level labels over the
        firms with a random slot per firm (distinguishable firms), or a random
        composition of each level's firms over its slots (indistinguishable
        firms).  A draw costs O(N log N) and no outcome other than the drawn
        ones is ever built.
        """
        listing, cumulative, total = self.listing, self.cumulative, self.total_outcomes
        regime, degeneracies = self.regime, self.degeneracies
        rng = random.Random(seed)
        if regime is Regime.MONOPOLISTIC:

            def place(occ: tuple[int, ...]) -> tuple:
                labels = [k for k, a in enumerate(occ) for _ in range(a)]
                rng.shuffle(labels)
                return tuple((k, rng.randrange(degeneracies[k])) for k in labels)

        else:

            def place(occ: tuple[int, ...]) -> tuple:
                # a uniform multiset of a units over g slots: a sorted sample of
                # a star positions among a + g - 1, minus the stars before each one
                placed = []
                for k, a in enumerate(occ):
                    if a == 0:
                        continue
                    if degeneracies[k] == 1:
                        placed.append(((k, 0), a))
                        continue
                    stars = sorted(rng.sample(range(a + degeneracies[k] - 1), a))
                    slots = [s - i for i, s in enumerate(stars)]
                    placed += [((k, slot), len(list(run))) for slot, run in groupby(slots)]
                return tuple(placed)

        while True:
            order = listing[bisect_right(cumulative, rng.randrange(total))].order
            yield MicroOutcome(regime, place(order.occupancy))


def enumerate_orders(
    grid: RevenueGrid, config: EconomyConfig, *, cap: int | None = None
) -> list[EconomicOrder]:
    """All occupancy vectors meeting the constraints, in lexicographic order.

    With a ``cap``, listing stops with CapExceededError at the first order
    past it.
    """
    n = grid.n
    levels = grid.levels
    total = config.total_revenue
    out: list[EconomicOrder] = []

    def recurse(k: int, left: int, revenue: int, acc: list[int]) -> None:
        if k == n - 1:
            if total is None or revenue + left * levels[-1] == total:
                out.append(EconomicOrder(tuple(acc) + (left,)))
                if cap is not None and len(out) > cap:
                    raise CapExceededError(None, cap, "order list")
            return
        min_tail = levels[k + 1]
        max_tail = levels[-1]
        for a in range(left + 1):
            rev = revenue + a * levels[k]
            rest = left - a
            if total is not None:
                need = total - rev
                if need > rest * max_tail:
                    break  # deficit only grows with more firms at this level
                if need < rest * min_tail:
                    continue  # later levels are pricier; larger a may still fit
            recurse(k + 1, rest, rev, acc + [a])

    recurse(0, config.n_firms, 0, [])
    return out


def feasible_outcome_count(grid: RevenueGrid, config: EconomyConfig) -> int:
    """Total number of feasible micro-outcomes (sum of multiplicities)."""
    return sum(
        multiplicity(order, grid, config.regime)
        for order in enumerate_orders(grid, config)
    )


def _positions(grid: RevenueGrid) -> list[Position]:
    return [(k, s) for k in range(grid.n) for s in range(grid.degeneracies[k])]


def enumerate_outcomes(
    grid: RevenueGrid,
    config: EconomyConfig,
    cap: int = DEFAULT_OUTCOME_CAP,
) -> dict[EconomicOrder, tuple[MicroOutcome, ...]]:
    """Exhaustively generate all feasible micro-outcomes grouped by order.

    Generation walks the assignment space directly (depth-first with revenue
    pruning) and never consults the closed-form multiplicity, so group sizes
    are an independent check of it.  Refuses with CapExceededError when the
    feasible outcome space is larger than ``cap``.
    """
    count = feasible_outcome_count(grid, config)
    if count > cap:
        raise CapExceededError(count, cap)

    positions = _positions(grid)
    levels = grid.levels
    total = config.total_revenue
    n_firms = config.n_firms
    groups: dict[EconomicOrder, list[MicroOutcome]] = {}

    min_level = levels[0]
    max_level = levels[-1]

    if config.regime is Regime.MONOPOLISTIC:

        def walk(firm: int, revenue: int, acc: list[Position]) -> None:
            if firm == n_firms:
                if total is None or revenue == total:
                    outcome = MicroOutcome(config.regime, tuple(acc))
                    groups.setdefault(outcome.order(grid.n), []).append(outcome)
                return
            rest = n_firms - firm - 1
            for pos in positions:
                rev = revenue + levels[pos[0]]
                if total is not None:
                    need = total - rev
                    if need < rest * min_level or need > rest * max_level:
                        continue
                acc.append(pos)
                walk(firm + 1, rev, acc)
                acc.pop()

        walk(0, 0, [])
    else:

        def walk_multiset(idx: int, left: int, revenue: int, acc: list[tuple[Position, int]]) -> None:
            if left == 0:
                if total is None or revenue == total:
                    outcome = MicroOutcome(config.regime, tuple(acc))
                    groups.setdefault(outcome.order(grid.n), []).append(outcome)
                return
            if idx == len(positions):
                return
            pos = positions[idx]
            level_value = levels[pos[0]]
            for c in range(left + 1):
                rev = revenue + c * level_value
                rest = left - c
                if total is not None:
                    need = total - rev
                    if need < rest * min_level:
                        break
                    if need > rest * max_level:
                        continue
                if c:
                    acc.append((pos, c))
                walk_multiset(idx + 1, rest, rev, acc)
                if c:
                    acc.pop()

        walk_multiset(0, n_firms, 0, [])

    return {
        order: tuple(groups[order]) for order in sorted(groups, key=lambda o: o.occupancy)
    }


def catalog(
    grid: RevenueGrid, config: EconomyConfig, *, cap: int | None = None
) -> OrderCatalog:
    """Exact catalog of feasible orders with equal-outcome probabilities.

    The one table of feasible orders and their multiplicities.  With a
    ``cap``, more than ``cap`` orders raise CapExceededError while they are
    listed, before any multiplicity is computed.
    """
    orders = enumerate_orders(grid, config, cap=cap)
    if not orders:
        raise InfeasibleError("infeasible economy: no occupancy satisfies the constraints")
    counts = [multiplicity(order, grid, config.regime) for order in orders]
    cumulative = tuple(accumulate(counts))
    total = cumulative[-1]
    listing = tuple(
        CatalogEntry(order, omega, Fraction(omega, total))
        for order, omega in zip(orders, counts)
    )
    entries = tuple(sorted(listing, key=lambda e: (-e.multiplicity, e.order.occupancy)))
    return OrderCatalog(entries, total, listing, cumulative, grid.degeneracies, config.regime)


def sample_outcomes(
    grid: RevenueGrid,
    config: EconomyConfig,
    seed: int,
    *,
    cap: int = DEFAULT_OUTCOME_CAP,
) -> Iterator[MicroOutcome]:
    """Seeded stream of uniform feasible micro-outcomes: ``OrderCatalog.sample``.

    The catalog is built before this returns, so an infeasible economy raises
    InfeasibleError here, and more than ``cap`` orders raise CapExceededError
    while they are being listed.
    """
    return catalog(grid, config, cap=cap).sample(seed)


def empirical_frequencies(
    outcomes: Iterable[MicroOutcome], grid: RevenueGrid
) -> dict[EconomicOrder, Fraction]:
    """Relative frequency of each order in a finite stream of outcomes."""
    tallies: dict[EconomicOrder, int] = {}
    total = 0
    for outcome in outcomes:
        order = outcome.order(grid.n)
        tallies[order] = tallies.get(order, 0) + 1
        total += 1
    if total == 0:
        raise InfeasibleError("empty outcome stream")
    return {
        order: Fraction(count, total)
        for order, count in sorted(tallies.items(), key=lambda kv: kv[0].occupancy)
    }
