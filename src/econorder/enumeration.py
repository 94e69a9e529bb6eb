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
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from operator import attrgetter
from typing import Iterable, Iterator

import numpy as np

from .core import EconomicOrder, EconomyConfig, Regime, RevenueGrid, _order
from .counting import multiplicity
from .errors import CapExceededError, InfeasibleError

DEFAULT_OUTCOME_CAP = 10_000_000

Position = tuple[int, int]  # (level index, slot index within the level)


@dataclass(frozen=True, slots=True)
class MicroOutcome:
    """One equilibrium outcome.

    For distinguishable firms, ``assignment`` holds one (level, slot)
    position per labeled firm.  For indistinguishable firms it holds sorted
    ((level, slot), count) pairs describing the occupied positions.  A
    sampled outcome carries the order it was drawn from in ``drawn_order``;
    that field takes no part in equality or hashing, so a sampled outcome
    equals the same enumerated one.
    """

    regime: Regime
    assignment: tuple
    drawn_order: EconomicOrder | None = field(default=None, compare=False, repr=False)

    def order(self, n_levels: int) -> EconomicOrder:
        occ = [0] * n_levels
        if self.regime is Regime.MONOPOLISTIC:
            for level, _slot in self.assignment:
                occ[level] += 1
            return _order(tuple(occ))  # tallies of 1s need no checks
        for (level, _slot), count in self.assignment:
            occ[level] += count
        return EconomicOrder(tuple(occ))  # counts come from the caller: checked


@dataclass(frozen=True, slots=True)
class CatalogEntry:
    order: EconomicOrder
    multiplicity: int
    probability: Fraction


# Draws are placed in batches that double from _FIRST_BATCH draws up to about
# _BATCH_CELLS array cells: one draw stays cheap, and a long stream pays
# numpy's fixed cost per call rarely.
_FIRST_BATCH = 64
_BATCH_CELLS = 1 << 16


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
        picked uniformly, and the draw carries the order it was picked from.
        Orders are picked one by one from the stream's ``random.Random``;
        the outcomes of a batch of picked orders are then placed together by
        exact integer draws of a numpy Generator seeded from that same
        ``random.Random``, so one seed drives the whole stream and the first
        k draws do not depend on how many are taken.

        - Distinguishable firms: each order's level labels are shuffled over
          the firms, and each firm gets a uniform slot of its level.
        - Indistinguishable firms: a uniform multiset of a firms over the g
          slots of a level is a uniform choice of the g - 1 bars among
          a + g - 1 places, drawn by Floyd's algorithm.

        A draw costs one big-integer pick and one Python tuple; the random
        work is O(N) (distinguishable) or sum_k (g_k - 1) (indistinguishable)
        integer draws inside numpy, and a level with one slot takes none.
        No outcome other than the drawn ones is ever built.  Every entry of
        an assignment is a Python int.
        """
        from numpy.random import default_rng  # numpy.random loads only when sampling

        listing, cumulative, total = self.listing, self.cumulative, self.total_outcomes
        regime, degeneracies = self.regime, self.degeneracies
        rng = random.Random(seed)
        gen = default_rng(rng.getrandbits(128))
        place = _place_firms if regime is Regime.MONOPOLISTIC else _place_units
        width = listing[0].order.n_firms + sum(degeneracies)
        size, largest = _FIRST_BATCH, max(_FIRST_BATCH, _BATCH_CELLS // width)
        while True:
            orders = [
                listing[bisect_right(cumulative, rng.randrange(total))].order
                for _ in range(size)
            ]
            occ = np.array([order.occupancy for order in orders])
            for order, assignment in zip(orders, place(gen, occ, degeneracies)):
                yield MicroOutcome(regime, assignment, order)
            size = min(2 * size, largest)


def _positions(degeneracies: tuple[int, ...]) -> list[Position]:
    return [(k, s) for k, g in enumerate(degeneracies) for s in range(g)]


def _place_firms(
    gen: np.random.Generator, occ: np.ndarray, degeneracies: tuple[int, ...]
) -> list[tuple]:
    """One uniform outcome per row of ``occ``, distinguishable firms.

    The level labels of each row are shuffled over the firms, and each firm
    draws a slot below its level's degeneracy (a single slot draws nothing).
    """
    size, n_levels = occ.shape
    labels = np.repeat(np.tile(np.arange(n_levels), size), occ.ravel()).reshape(size, -1)
    labels = gen.permuted(labels, axis=1)
    g = np.array(degeneracies)
    first = np.cumsum(g) - g  # index of each level's slot 0 in the position list
    flat = first[labels] + gen.integers(0, g[labels])
    positions = _positions(degeneracies).__getitem__
    return [tuple(map(positions, row)) for row in flat.tolist()]


def _place_units(
    gen: np.random.Generator, occ: np.ndarray, degeneracies: tuple[int, ...]
) -> list[tuple]:
    """One uniform outcome per row of ``occ``, indistinguishable firms.

    The a firms and g - 1 bars of a level fill a + g - 1 places; Floyd's
    algorithm picks the bar places with one integer draw each, the i-th draw
    uniform on 0..a+i and replaced by a+i if that place is taken, and slot j
    holds the places between bars j - 1 and j.
    """
    size = len(occ)
    batch = np.arange(size)
    table = np.empty((size, sum(degeneracies)), dtype=np.int64)
    col = 0
    for k, g in enumerate(degeneracies):
        a = occ[:, k]
        if g == 1:
            table[:, col] = a
        else:
            taken = np.zeros((size, int(a.max()) + g - 1), dtype=bool)
            for i in range(g - 1):
                place = gen.integers(0, a + i + 1)
                taken[batch, np.where(taken[batch, place], a + i, place)] = True
            bars = np.nonzero(taken)[1].reshape(size, g - 1)  # each row's bar places, in order
            table[:, col] = bars[:, 0]
            table[:, col + 1 : col + g - 1] = np.diff(bars, axis=1) - 1
            table[:, col + g - 1] = a + g - 2 - bars[:, -1]
        col += g
    rows, cols = np.nonzero(table)  # row by row, each row's columns in position order
    positions = map(_positions(degeneracies).__getitem__, cols.tolist())
    pairs = list(zip(positions, table[rows, cols].tolist()))
    ends = np.cumsum(np.count_nonzero(table, axis=1)).tolist()
    return [tuple(pairs[start:end]) for start, end in zip([0, *ends], ends)]


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

    Every occupancy is a tuple of Python ints >= 0 (each range runs from
    max(0, ...) to at most ``left``; the closed form is kept only when
    0 <= a <= left), so the records are built without EconomicOrder's checks.

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
        out.append(_order(occ))
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

    positions = _positions(grid.degeneracies)
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

    It calls ``multiplicity`` once per listed order, not a faster running
    product along the listing, until ``bench/suite.py::counting_rows``, which
    divides by the call counts of ``multiplicity`` and ``enumerate_orders``,
    guards its divisions.
    """
    orders = enumerate_orders(grid, config, cap=cap)
    if not orders:
        raise InfeasibleError("infeasible economy: no occupancy satisfies the constraints")
    counts = [multiplicity(order, grid, config.regime) for order in orders]
    cumulative = tuple(accumulate(counts))
    total = cumulative[-1]
    # one pass, each slot stored by its descriptor: no frozen-__init__ setattr calls
    set_order, set_count, set_probability = (
        getattr(CatalogEntry, name).__set__ for name in CatalogEntry.__slots__
    )
    listing = []
    for order, omega in zip(orders, counts):
        entry = object.__new__(CatalogEntry)
        set_order(entry, order)
        set_count(entry, omega)
        set_probability(entry, Fraction(omega, total))
        listing.append(entry)
    # stable, so equal multiplicities keep the lexicographic listing order
    entries = tuple(sorted(listing, key=attrgetter("multiplicity"), reverse=True))
    return OrderCatalog(
        entries, total, tuple(listing), cumulative, grid.degeneracies, config.regime
    )


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
    """Relative frequency of each order in a finite stream of outcomes.

    A sampled outcome is tallied under the order it carries; any other
    outcome under the order read off its assignment.
    """
    tallies: dict[EconomicOrder, int] = {}
    total = 0
    for outcome in outcomes:
        order = outcome.drawn_order
        if order is None:
            order = outcome.order(grid.n)
        tallies[order] = tallies.get(order, 0) + 1
        total += 1
    if total == 0:
        raise InfeasibleError("empty outcome stream")
    return {
        order: Fraction(count, total)
        for order, count in sorted(tallies.items(), key=lambda kv: kv[0].occupancy)
    }
