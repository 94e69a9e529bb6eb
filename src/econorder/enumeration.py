"""Exhaustive enumeration of feasible occupancies and micro-outcomes.

Desk-scale machinery: list every occupancy vector satisfying the firm-count
and revenue constraints, list every micro-outcome (labeled assignment or
multiset, depending on the regime), attach exact rational probabilities under
the equal-probability rule, and sample outcomes exactly uniformly by drawing
an order from its exact multiplicity, then an outcome inside that order.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, groupby
from operator import attrgetter
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


@dataclass(frozen=True, slots=True)
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

    The recursive listing of Nijenhuis & Wilf (*Combinatorial Algorithms*,
    1978), in closed form.  With ``left`` firms and ``need`` revenue still to
    place at level k, the later levels can absorb only revenue between
    rest*e_{k+1} and rest*e_max for ``rest`` firms, so a_k runs over exactly

        ceil((left*e_{k+1} - need) / (e_{k+1} - e_k)) <= a_k
            <= floor((left*e_max - need) / (e_max - e_k)),

    clipped to [0, left]; at level n-2 the two constraints leave the single
    value a_{n-2} = (left*e_{n-1} - need) / (e_{n-1} - e_{n-2}), kept when the
    division is exact and 0 <= a_{n-2} <= left.  Every value tried has a
    real completion, so on consecutive integer levels every branch ends in
    an order and the listing costs O(1) per order for a fixed number of
    levels; gaps between levels can still leave branches with no integer
    completion.  Without a revenue total every value 0..left is taken.

    With a ``cap``, listing stops with CapExceededError at the first order
    past it.
    """
    levels = grid.levels
    last = grid.n - 1
    top = levels[-1]
    total = config.total_revenue
    limit = math.inf if cap is None else cap
    out: list[EconomicOrder] = []

    def emit(occ: tuple[int, ...]) -> None:
        out.append(EconomicOrder(occ))
        if len(out) > limit:
            raise CapExceededError(None, cap, "order list")

    def free(k: int, left: int, prefix: tuple[int, ...]) -> None:
        if k == last:
            emit(prefix + (left,))
            return
        for a in range(left + 1):
            free(k + 1, left - a, prefix + (a,))

    def bounded(k: int, left: int, need: int, prefix: tuple[int, ...]) -> None:
        e, nxt = levels[k], levels[k + 1]
        if k == last - 1:
            a, rem = divmod(left * top - need, top - e)
            if not rem and 0 <= a <= left:
                emit(prefix + (a, left - a))
            return
        lo = max(0, -((need - left * nxt) // (nxt - e)))
        hi = min(left, (left * top - need) // (top - e))
        for a in range(lo, hi + 1):
            bounded(k + 1, left - a, need - a * e, prefix + (a,))

    n_firms = config.n_firms
    if total is None:
        free(0, n_firms, ())
    elif last == 0:
        if n_firms * top == total:
            emit((n_firms,))
    else:
        bounded(0, n_firms, total, ())
    return out


def feasible_outcome_count(grid: RevenueGrid, config: EconomyConfig) -> int:
    """Total number of feasible micro-outcomes (sum of multiplicities).

    It walks the same ``enumerate_orders`` listing as ``catalog``, so it
    cross-checks the counts, not the listing.  The listing is checked by a
    brute-force property test and by ``check_counting_oracle``, which walks
    the outcomes themselves.
    """
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
    # stable, so equal multiplicities keep the lexicographic listing order
    entries = tuple(sorted(listing, key=attrgetter("multiplicity"), reverse=True))
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
