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
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, count, repeat
from operator import attrgetter
from typing import Callable, Iterable, Iterator

import numpy as np

from .core import EconomicOrder, EconomyConfig, Regime, RevenueGrid, _order, _orders
from .counting import _multiplicities, multiplicity
from .errors import CapExceededError, ConfigError, EconOrderError, InfeasibleError

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

    def order(self, grid: RevenueGrid) -> EconomicOrder:
        """The order read off the assignment, on ``grid``.

        ConfigError when a level lies outside 0..n-1, a slot outside
        0..g_k-1 of its level or, for indistinguishable firms, a count is
        below 1.
        """
        mon = self.regime is Regime.MONOPOLISTIC
        placed = ((position, 1) for position in self.assignment) if mon else self.assignment
        degens = grid.degeneracies
        occ = [0] * grid.n
        for (level, slot), count in placed:
            if not 0 <= level < grid.n:
                raise ConfigError("outcome: level %r is not in 0..%d" % (level, grid.n - 1))
            if not 0 <= slot < degens[level]:
                top = degens[level] - 1
                raise ConfigError("outcome: slot %r at level %r is not in 0..%d" % (slot, level, top))
            if count < 1:
                raise ConfigError("outcome: count %r at level %r is below 1" % (count, level))
            occ[level] += count
        # tallies of 1s need no further checks; counts from the caller do
        return _order(tuple(occ)) if mon else EconomicOrder(tuple(occ))


@dataclass(frozen=True)
class CatalogEntry:
    """One feasible order, its multiplicity ω and its exact probability ω / T.

    ``CatalogEntry(order, multiplicity, probability)`` keeps the probability
    it is given.  An entry built by ``catalog`` leaves that slot empty and
    holds the catalog total T: the first read of ``probability`` reduces
    ``Fraction(ω, T)`` into the slot, so a caller that reads only
    ``multiplicity / total_outcomes`` pays no gcd.  Equality, hashing, repr,
    ``dataclasses`` helpers and pickles read the field, and so the same
    three values, either way.
    """

    __slots__ = ("order", "multiplicity", "probability", "_total")

    order: EconomicOrder
    multiplicity: int
    probability: Fraction

    def __getattr__(self, name: str) -> Fraction:
        # reached only when a slot is empty: a catalog entry's unread probability
        if name != "probability":
            raise AttributeError(name)
        probability = Fraction(self.multiplicity, self._total)
        object.__setattr__(self, "probability", probability)
        return probability

    # the state of a slots=True dataclass: its field values, never the total
    def __getstate__(self) -> list:
        return [self.order, self.multiplicity, self.probability]

    def __setstate__(self, state: list) -> None:
        for name, value in zip(("order", "multiplicity", "probability"), state):
            object.__setattr__(self, name, value)


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
        Orders are picked from the stream's ``random.Random``; the outcomes of
        a batch of picked orders are then placed together by exact integer
        draws of a numpy Generator seeded from that same ``random.Random``,
        so one seed drives the whole stream and the first k draws do not
        depend on how many are taken.

        - Distinguishable firms: each order's level labels are shuffled over
          the firms, and each firm gets a uniform slot of its level.
        - Indistinguishable firms: a uniform multiset of a firms over the g
          slots of a level is a uniform choice of the g - 1 bars among
          a + g - 1 places, drawn by Floyd's algorithm (``_place_units``).

        A pick is ``getrandbits(total.bit_length())``, drawn again while the
        result is >= total: the calls ``randrange(total)`` makes.  A batch
        draws its picks in C-level passes, ``size`` raw values and then only
        the shortfall below ``total``, so it consumes the stream as ``size``
        calls of ``randrange`` do; ``bisect_right`` into ``cumulative`` picks
        the order.  The orders, the placement's index plan and its table of
        (level, slot) positions are built once per stream, and a batch's
        assignments are gathered from that table.  Beyond that a draw costs
        one outcome whose slots are set directly; the random work is O(N)
        (distinguishable) or sum_k (g_k - 1) (indistinguishable) integer
        draws inside numpy, and a level with one slot takes none.  No outcome
        other than the drawn ones is ever built.  Every entry of an
        assignment is a Python int.
        """
        from numpy.random import default_rng  # numpy.random loads only when sampling

        cumulative, total = self.cumulative, self.total_outcomes
        regime = self.regime
        rng = random.Random(seed)
        gen = default_rng(rng.getrandbits(128))
        getrandbits, bits, below = rng.getrandbits, total.bit_length(), total.__gt__
        order_at = [entry.order for entry in self.listing].__getitem__
        place = (_place_firms if regime is Regime.MONOPOLISTIC else _place_units)(
            self.degeneracies
        )
        set_regime, set_assignment, set_order = (
            getattr(MicroOutcome, name).__set__ for name in MicroOutcome.__slots__
        )
        width = self.listing[0].order.n_firms + sum(self.degeneracies)
        size, largest = _FIRST_BATCH, max(_FIRST_BATCH, _BATCH_CELLS // width)
        while True:
            # randrange(total)'s own rejection loop, run over the whole batch
            picks = list(filter(below, map(getrandbits, repeat(bits, size))))
            while len(picks) < size:
                picks += filter(below, map(getrandbits, repeat(bits, size - len(picks))))
            orders = list(map(order_at, map(bisect_right, repeat(cumulative), picks)))
            occ = np.array([order.occupancy for order in orders])
            batch = []
            for order, assignment in zip(orders, place(gen, occ)):
                outcome = object.__new__(MicroOutcome)
                set_regime(outcome, regime)
                set_assignment(outcome, assignment)
                set_order(outcome, order)
                batch.append(outcome)
            yield from batch
            size = min(2 * size, largest)


def _positions(degeneracies: tuple[int, ...]) -> np.ndarray:
    """Every (level, slot) position in order, as a 1-D object array of tuples."""
    return np.fromiter(
        ((k, s) for k, g in enumerate(degeneracies) for s in range(g)), dtype=object
    )


def _place_firms(degeneracies: tuple[int, ...]) -> Callable[..., list[tuple]]:
    """Placer of one uniform outcome per row of ``occ``, distinguishable firms.

    The level labels of each row are shuffled over the firms, and each firm
    draws a slot below its level's degeneracy (a single slot draws nothing).
    Each firm's index into the position table is gathered in one pass.
    """
    g = np.array(degeneracies)
    levels = np.arange(len(g))
    first = np.cumsum(g) - g  # index of each level's slot 0 in the position table
    positions = _positions(degeneracies)

    def place(gen: np.random.Generator, occ: np.ndarray) -> list[tuple]:
        size = len(occ)
        labels = np.repeat(np.tile(levels, size), occ.ravel()).reshape(size, -1)
        labels = gen.permuted(labels, axis=1)
        flat = first[labels] + gen.integers(0, g[labels])
        return list(map(tuple, positions[flat].tolist()))

    return place


def _place_units(degeneracies: tuple[int, ...]) -> Callable[..., list[tuple]]:
    """Placer of one uniform outcome per row of ``occ``, indistinguishable firms.

    A row is one line of stars and bars: each level holds its a firms and
    g - 1 bars in a + g - 1 places, followed by one fixed bar that closes
    the level, so slot j of the row holds the stars between bars j - 1 and
    j.  Floyd's algorithm (Bentley & Floyd, *CACM* 30(9), 1987)
    picks a level's bar places with one integer draw each, the i-th draw
    uniform on 0..a+i and replaced by a+i if that place is taken.

    All bounds of a batch go to one ``gen.integers`` call, stacked level,
    then bar round, then row: the order of one call per level and round,
    which gives the same integers and leaves the Generator in the same
    state.  Floyd's rule then runs in max(g) - 1 rounds, each over every
    level and row at once, on one flat table of places; the bars read back
    from that table in order give every slot count by one difference.  The
    index plan (each bar's level and round, and the round-major order) is
    built here, once per stream.
    """
    g = np.array(degeneracies)
    n_levels, slots = len(g), int(g.sum())
    positions = _positions(degeneracies)
    bar_level = np.repeat(np.arange(n_levels), g - 1)  # one row per bar: level, then round
    bar_round = np.concatenate([np.arange(k - 1) for k in degeneracies])[:, None]
    by_round = np.argsort(bar_round[:, 0], kind="stable")
    round_ends = np.cumsum(np.bincount(bar_round[:, 0], minlength=1)).tolist()

    def place(gen: np.random.Generator, occ: np.ndarray) -> list[tuple]:
        size = len(occ)
        spans = (occ + g).ravel()  # a + g - 1 places and the closing bar, per row and level
        ends = np.cumsum(spans)
        taken = np.zeros(ends[-1], dtype=bool)
        taken[ends - 1] = True
        last = occ.T[bar_level] + bar_round  # a + i: the last place of round i
        bases = (ends - spans).reshape(size, n_levels).T[bar_level]
        drawn = (bases + gen.integers(0, last + 1))[by_round]
        last = (bases + last)[by_round]
        taken[drawn[: round_ends[0]]] = True  # the first round finds every place free
        for lo, hi in zip(round_ends, round_ends[1:]):
            here = drawn[lo:hi]
            taken[np.where(taken[here], last[lo:hi], here)] = True
        table = (np.diff(np.flatnonzero(taken), prepend=-1) - 1).reshape(size, slots)
        rows, cols = np.nonzero(table)  # row by row, each row's slots in position order
        pairs = list(zip(positions[cols].tolist(), table[rows, cols].tolist()))
        stops = np.cumsum(np.count_nonzero(table, axis=1)).tolist()
        return [tuple(pairs[start:stop]) for start, stop in zip([0, *stops], stops)]

    return place


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
    division is exact.  Every value tried has a real completion, so on
    consecutive integer levels every branch ends in an order and the listing
    costs O(1) per order for a fixed number of levels; gaps between levels
    can still leave branches with no integer completion.  Without a revenue
    total every value 0..left is taken.

    The last three levels take no Python call per order.  At level n-3 the
    numerator of a_{n-2} falls by s = e_{n-1} - e_{n-3} per unit of a_{n-3},
    so the values of a_{n-3} whose division by d = e_{n-1} - e_{n-2} is exact
    form one arithmetic progression of step d / gcd(s, d) across the range,
    a_{n-2} falls by s / gcd(s, d) along it and a_{n-1} (the rest) rises by
    (s - d) / gcd(s, d).  One call per prefix zips those three progressions
    into that prefix's orders; without a revenue total the last two levels
    are zipped the same way (0..left and left..0).

    Every occupancy is a tuple of Python ints >= 0 (each range runs from
    max(0, ...) to at most ``left``, and a_{n-3} in its range leaves a_{n-2}
    in [0, left - a_{n-3}]; for two levels the closed form is kept only when
    0 <= a <= left), so ``core._orders`` builds the records without
    EconomicOrder's checks.

    With a ``cap``, more than ``cap`` orders raise CapExceededError while
    they are listed: the count is checked after each prefix's orders, and a
    truncated list is never returned.
    """
    levels = grid.levels
    last = grid.n - 1
    top = levels[-1]
    total = config.total_revenue
    limit = math.inf if cap is None else cap
    occs: list[tuple[int, ...]] = []

    def extend(rows: Iterable[tuple[int, ...]]) -> None:
        occs.extend(rows)
        if len(occs) > limit:
            raise CapExceededError(None, cap, "order list")

    def free(k: int, left: int, prefix: tuple[int, ...]) -> None:
        if k == last - 1:
            extend(zip(*map(repeat, prefix), range(left + 1), range(left, -1, -1)))
            return
        for a in range(left + 1):
            free(k + 1, left - a, prefix + (a,))

    if last >= 2:
        s, d = top - levels[-3], top - levels[-2]
        h = math.gcd(s, d)
        step, a_down, rest_up = d // h, s // h, (s - d) // h
        inverse = pow(a_down, -1, step)  # of s/h modulo d/h (0 when d/h = 1)

    def bounded(k: int, left: int, need: int, prefix: tuple[int, ...]) -> None:
        e, nxt = levels[k], levels[k + 1]
        lo = max(0, -((need - left * nxt) // (nxt - e)))
        hi = min(left, (left * top - need) // (top - e))
        if k < last - 2:
            for a in range(lo, hi + 1):
                bounded(k + 1, left - a, need - a * e, prefix + (a,))
            return
        # a_{n-3} = lo + j leaves the numerator x - j*s, exact iff j*s = x mod d
        x = left * top - need - lo * s
        if x % h:
            return
        j = x // h * inverse % step
        b = (x - j * s) // d
        extend(
            zip(
                *map(repeat, prefix),
                range(lo + j, hi + 1, step),
                count(b, -a_down),
                count(left - lo - j - b, rest_up),
            )
        )

    n_firms = config.n_firms
    if last == 0:
        if total is None or n_firms * top == total:
            extend([(n_firms,)])
    elif total is None:
        free(0, n_firms, ())
    elif last == 1:
        a, rem = divmod(n_firms * top - total, top - levels[0])
        if not rem and 0 <= a <= n_firms:
            extend([(a, n_firms - a)])
    else:
        bounded(0, n_firms, total, ())
    return _orders(occs)


def feasible_outcome_count(grid: RevenueGrid, config: EconomyConfig) -> int:
    """Total number of feasible micro-outcomes (sum of multiplicities).

    The closed-form oracle of the catalog's column counts: it sums
    ``multiplicity`` order by order, where ``catalog`` counts from level
    tables (``counting._multiplicities``).  It walks the same
    ``enumerate_orders`` listing, so it cross-checks the counts, not the
    listing.  The listing is checked by a brute-force property test and by
    ``check_counting_oracle``, which walks the outcomes themselves.
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
    feasible outcome space is larger than ``cap``: every feasible order holds
    at least one outcome, so more than ``cap`` orders refuse while they are
    listed, before any multiplicity is computed.
    """
    try:
        orders = enumerate_orders(grid, config, cap=cap)
    except CapExceededError:
        raise CapExceededError(None, cap) from None
    count = sum(multiplicity(order, grid, config.regime) for order in orders)
    if count > cap:
        raise CapExceededError(count, cap)

    positions = _positions(grid.degeneracies).tolist()
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
                    groups.setdefault(outcome.order(grid), []).append(outcome)
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
                    groups.setdefault(outcome.order(grid), []).append(outcome)
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
    listed, before any multiplicity is computed.  An entry's exact
    probability is reduced on its first read (``CatalogEntry``):
    ``orders.csv`` reads every one and ``spontaneous.json`` the top one, while
    ``most_probable``, ``tie_set``, the sampler, ``frequencies.csv`` and
    ``check_sampler`` read none.

    The multiplicities come from ``counting._multiplicities``, which builds
    them level column by level column from small exact tables, with no
    Python call per order; the entries are built in C-level passes.  After
    the sort, the top entry's count is recomputed once by the closed-form
    ``multiplicity`` (a few µs), and a disagreement raises EconOrderError
    naming the order.  That check serves two ends: the count that
    ``spontaneous.json`` reports is held to the closed form on every run,
    and the benchmark's traced layer suite (``bench/suite.py``), which
    divides by the number of ``multiplicity`` calls, sees at least one.
    """
    orders = enumerate_orders(grid, config, cap=cap)
    if not orders:
        raise InfeasibleError("infeasible economy: no occupancy satisfies the constraints")
    columns = list(zip(*map(attrgetter("occupancy"), orders)))
    counts = _multiplicities(columns, grid.degeneracies, config.regime)
    cumulative = tuple(accumulate(counts))
    total = cumulative[-1]
    # each slot stored by its descriptor over the whole listing: no
    # frozen-__init__ setattr calls, and the probability slot stays empty
    # until it is read
    listing = tuple(map(object.__new__, repeat(CatalogEntry, len(orders))))
    for name, values in (("order", orders), ("multiplicity", counts), ("_total", repeat(total))):
        deque(map(getattr(CatalogEntry, name).__set__, listing, values), maxlen=0)
    # stable, so equal multiplicities keep the lexicographic listing order
    entries = tuple(sorted(listing, key=attrgetter("multiplicity"), reverse=True))
    top = entries[0]
    exact = multiplicity(top.order, grid, config.regime)
    if top.multiplicity != exact:
        raise EconOrderError(
            "catalog: order %s counts %d outcomes by the column tables and %d by "
            "the closed form" % (list(top.order.occupancy), top.multiplicity, exact)
        )
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
    """Relative frequency of each order in a finite stream of outcomes.

    A sampled outcome is tallied under the order it carries; any other
    outcome under the order read off its assignment.  The tally is keyed by
    the order's occupancy tuple, hashed in C, and keeps the first order
    object seen for each occupancy, so equal orders held by different
    objects share one key.  Keys come out sorted by occupancy.
    """
    counts: dict[tuple[int, ...], int] = {}
    orders: dict[tuple[int, ...], EconomicOrder] = {}
    for outcome in outcomes:
        order = outcome.drawn_order
        if order is None:
            order = outcome.order(grid)
        key = order.occupancy
        if key in counts:
            counts[key] += 1
        else:
            counts[key] = 1
            orders[key] = order
    total = sum(counts.values())
    if total == 0:
        raise InfeasibleError("empty outcome stream")
    return {orders[key]: Fraction(count, total) for key, count in sorted(counts.items())}
