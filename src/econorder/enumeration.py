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
from collections import Counter, deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, compress, filterfalse, repeat
from operator import eq, itemgetter
from typing import Callable, Iterable, Iterator

import numpy as np

from .core import EconomicOrder, EconomyConfig, Regime, RevenueGrid, _records
from .counting import _multiplicities, multiplicity
from .errors import CapExceededError, ConfigError, EconOrderError, InfeasibleError

DEFAULT_OUTCOME_CAP = 10_000_000

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
        below 1 or not an integer.
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
        return EconomicOrder(tuple(occ))


@dataclass(frozen=True, slots=True)
class CatalogEntry:
    """One feasible order, its multiplicity ω and its exact probability ω / T.

    A plain frozen record.  A catalog keeps none: its ``entries`` view
    makes each one, with ``Fraction(ω, T)`` reduced, when it is read.
    """

    order: EconomicOrder
    multiplicity: int
    probability: Fraction


class _Orders(Sequence):
    """Listed orders as a read-only sequence over their level columns.

    ``columns[k]`` holds a_k of every order, in listing order, so the
    length is the number of orders.  An ``EconomicOrder`` is made by
    ``core._records`` only when it is read: one for an index, and for
    iteration, a slice or ``take`` one C-level pass over the zipped
    columns; a slice is a tuple.  Views with equal columns are equal and
    hash alike.  ``arrays`` holds the array member's int64 columns, the
    same values as ``columns``, or None after the stack member; ``catalog``
    hands them to the count and then drops them.
    """

    __slots__ = ("columns", "arrays")

    def __init__(
        self, columns: tuple[list[int], ...], arrays: tuple[np.ndarray, ...] | None = None
    ):
        self.columns = columns
        self.arrays = arrays

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            size = len(range(len(self))[index])
            occupancies = zip(*(column[index] for column in self.columns))
            return tuple(_records(EconomicOrder, size, occupancy=occupancies))
        occupancy = tuple(map(itemgetter(index), self.columns))
        return _records(EconomicOrder, 1, occupancy=(occupancy,))[0]

    def __iter__(self) -> Iterator[EconomicOrder]:
        return iter(_records(EconomicOrder, len(self), occupancy=zip(*self.columns)))

    def take(self, positions: Sequence[int]) -> list[EconomicOrder]:
        """The orders at ``positions``, gathered column by column."""
        occupancies = zip(*(map(column.__getitem__, positions) for column in self.columns))
        return _records(EconomicOrder, len(positions), occupancy=occupancies)

    def __eq__(self, other):
        return self.columns == other.columns if isinstance(other, _Orders) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(map(tuple, self.columns)))

    def __repr__(self) -> str:
        return "_Orders(%r)" % (self.columns,)


class _Entries(Sequence):
    """A catalog's entries as a read-only sequence over its columns.

    Entry i is ``CatalogEntry(orders[j], counts[j], Fraction(counts[j], T))``
    for j = ``positions[i]``, made when it is read; a slice is a tuple.
    ``positions`` is the stable descending-count permutation, sorted the
    first time an entry, a slice or ``positions`` itself is read.  The
    length never sorts.
    """

    __slots__ = ("_orders", "_counts", "_total", "_positions")

    def __init__(self, orders, counts, total):
        self._orders, self._counts, self._total, self._positions = orders, counts, total, None

    @property
    def positions(self) -> Sequence[int]:
        """The listing index of each entry, in this view's order."""
        if self._positions is None:
            # stable, so equal counts keep the lexicographic listing order
            counts = self._counts
            self._positions = sorted(range(len(counts)), key=counts.__getitem__, reverse=True)
        return self._positions

    def __len__(self) -> int:
        return len(self._counts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._at(self.positions[index]))
        (entry,) = self._at((self.positions[index],))
        return entry

    def __iter__(self) -> Iterator[CatalogEntry]:
        return self._at(self.positions)

    def _at(self, positions: Sequence[int]) -> Iterator[CatalogEntry]:
        counts = list(map(self._counts.__getitem__, positions))
        orders = self._orders.take(positions)
        return map(CatalogEntry, orders, counts, map(Fraction, counts, repeat(self._total)))


# Orders kept one at a time wait as rows, at most this many, and are moved
# into the listing's columns by one zip: far cheaper per value than an append
# per level, and the rows of a deep grid stay a few MB.
_ROWS_KEPT = 256

# Draws are placed in batches that double from _FIRST_BATCH draws up to about
# _BATCH_CELLS array cells (picks alone, _BATCH_CELLS picks): one draw stays
# cheap, and a long stream pays numpy's fixed cost per call rarely.
_FIRST_BATCH = 64
_BATCH_CELLS = 1 << 16


@dataclass(frozen=True)
class OrderCatalog:
    """All feasible orders with exact multiplicities, kept as columns.

    ``orders`` is the listing's read-only view (``enumerate_orders``): the
    feasible orders in listing (lexicographic) order, kept as the level
    columns ``orders.columns``, each ``EconomicOrder`` made when it is read.
    ``counts`` holds their multiplicities and ``total_outcomes`` their sum T.

    ``entries`` is a read-only sequence view of ``CatalogEntry`` records,
    each made (its probability ω / T reduced) when it is read, by decreasing
    multiplicity, ties broken by the lexicographically smaller occupancy, so
    that ``entries[0]`` is the most probable order under the documented tie
    rule.  ``entries`` sorts the first time it is indexed or iterated, once
    per catalog, and ``entries.positions`` then holds the listing index of
    each entry; its length, ``most_probable``, ``tie_set``, ``picks`` and
    ``sample`` read the columns and never sort.  The listing indices of the orders
    with the top count are found once per catalog: by ``catalog`` on the
    int64 counts it was handed, else on first use by one ``max`` pass and
    one C-level pass comparing every count with it.  ``most_probable`` is
    the first of them and makes one record; ``tie_set`` gathers one record
    per tie from the columns by ``orders.take``.
    ``entries`` may also be given, as any sequence of entries
    (``dataclasses.replace(cat, entries=...)``); no method of the catalog
    reads it.
    """

    orders: Sequence[EconomicOrder]
    counts: tuple[int, ...]
    total_outcomes: int
    degeneracies: tuple[int, ...]
    regime: Regime
    entries: Sequence[CatalogEntry] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.entries is None:
            entries = _Entries(self.orders, self.counts, self.total_outcomes)
            object.__setattr__(self, "entries", entries)

    @cached_property
    def _ties(self) -> list[int]:
        """Listing indices of the orders with the largest count, ascending."""
        counts = self.counts
        return list(compress(range(len(counts)), map(eq, counts, repeat(max(counts)))))

    @property
    def _top(self) -> int:
        """Listing index of the first order with the largest count."""
        # the listing is lexicographic, so the first top count is the smallest tie
        return self._ties[0]

    def most_probable(self) -> EconomicOrder:
        return self.orders[self._top]

    def tie_set(self) -> tuple[EconomicOrder, ...]:
        return tuple(self.orders.take(self._ties))

    def picks(self, seed: int) -> Iterator[int]:
        """The listing index of each order that ``sample(seed)`` draws, in
        turn, with nothing placed, so no firm count is too large for it."""
        rng = random.Random(seed)
        rng.getrandbits(128)  # what ``sample`` seeds its numpy Generator with
        return chain.from_iterable(self._batches(rng, _BATCH_CELLS))

    def _batches(self, rng: random.Random, largest: int) -> Iterator[list[int]]:
        """The one definition of a pick, in lists of listing indices from
        ``_FIRST_BATCH`` long, doubling up to ``largest``.  A batch runs
        ``randrange(total)``'s rejection loop in C-level passes: ``size``
        raw ``getrandbits(total.bit_length())`` and then only the shortfall
        below ``total``, so it consumes ``rng`` as ``size`` calls of
        ``randrange`` do, wherever the batches end; ``bisect_right`` into
        the running totals picks the order."""
        cumulative, total = tuple(accumulate(self.counts)), self.total_outcomes
        getrandbits, bits, below = rng.getrandbits, total.bit_length(), total.__gt__
        size = _FIRST_BATCH
        while True:
            picks = list(filter(below, map(getrandbits, repeat(bits, size))))
            while len(picks) < size:
                picks += filter(below, map(getrandbits, repeat(bits, size - len(picks))))
            yield list(map(bisect_right, repeat(cumulative), picks))
            size = min(2 * size, largest)

    def sample(self, seed: int) -> Iterator[MicroOutcome]:
        """Infinite, seeded stream of uniformly distributed feasible micro-outcomes.

        Each draw is exact in two steps, pick then place (the recursive
        method of Nijenhuis & Wilf, *Combinatorial Algorithms*, 1978).  An
        order is picked with probability multiplicity / total, by an exact
        big-integer index into the running totals of ``counts``, summed when
        the stream starts; then one of its outcomes is picked uniformly, and
        the draw carries the order.  Orders are picked from the stream's
        ``random.Random``; a batch of picked orders is then placed by exact
        integer draws of a numpy Generator seeded from that same
        ``random.Random``, so one seed drives the whole stream and the first
        k draws do not depend on how many are taken.  A catalog of
        N >= 2**63 firms is refused with a ConfigError when ``sample`` is
        called, before the stream starts.  The stream builds one int64
        occupancy matrix from the order columns when it starts, and a batch
        gathers its picked rows by index.  An order's record is made from
        the columns the first time it is drawn, and later draws of it share
        that record.

        - Distinguishable firms: each order's level labels are shuffled over
          the firms, and each firm gets a uniform slot of its level.
        - Indistinguishable firms: a uniform multiset of a firms over the g
          slots of a level is a uniform choice of the g - 1 bars among
          a + g - 1 places, drawn by Floyd's algorithm (``_place_units``).

        The picks are ``_batches``', which ``picks`` also yields.  The
        placement's index plan and its table of (level, slot) positions are
        built once per stream, and a batch's assignments are gathered from
        that table; ``core._records`` makes a batch's outcomes in C-level
        passes.  The random work is O(N) (distinguishable) or sum_k (g_k - 1)
        (indistinguishable) integer draws inside numpy, and a level with one
        slot takes none.  No outcome other than the drawn ones is ever built.
        Every entry of an assignment is a Python int.
        """
        n_firms = sum(column[0] for column in self.orders.columns)
        if n_firms >= 1 << 63:
            raise ConfigError(
                "sample: N = %d firms is past int64 (2**63 - 1), the bound on the "
                "occupancies the sampler places" % n_firms
            )
        return self._stream(seed, n_firms)

    def _stream(self, seed: int, n_firms: int) -> Iterator[MicroOutcome]:
        """``sample``'s stream, for a catalog of ``n_firms`` < 2**63 firms."""
        from numpy.random import default_rng  # numpy.random loads only when sampling

        regimes = repeat(self.regime)
        rng = random.Random(seed)
        gen = default_rng(rng.getrandbits(128))
        place = (_place_firms if self.regime is Regime.MONOPOLISTIC else _place_units)(
            self.degeneracies
        )
        occupancies = np.array(self.orders.columns).T  # one row per listed order
        made: dict[int, EconomicOrder] = {}  # the record of each order drawn so far
        width = n_firms + sum(self.degeneracies)
        for indices in self._batches(rng, max(_FIRST_BATCH, _BATCH_CELLS // width)):
            fresh = list(filterfalse(made.__contains__, set(indices)))
            made.update(zip(fresh, self.orders.take(fresh)))
            orders = list(map(made.__getitem__, indices))
            assignments = place(gen, occupancies[indices])
            size = len(indices)
            yield from _records(
                MicroOutcome, size, regime=regimes, assignment=assignments, drawn_order=orders
            )


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
) -> _Orders:
    """All occupancy vectors meeting the constraints, in lexicographic order.

    Returned as a read-only ``Sequence[EconomicOrder]`` view over one list
    per level (``columns``, a_k of every order in listing order): its length
    is the number of orders, and each ``EconomicOrder`` is made when it is
    read (``_Orders``).  The array member's int64 columns become those lists
    by one ``tolist`` each and ride along as the view's ``arrays``, for
    ``catalog``'s count.

    The listing of Nijenhuis & Wilf (*Combinatorial Algorithms*, 1978), in
    closed form.  With ``left`` firms and revenue ``need`` still to place
    after a prefix a_0..a_{k-1}, the later levels can absorb only revenue
    between rest*e_{k+1} and rest*e_max for ``rest`` firms, so a_k runs over
    exactly

        ceil((left*e_{k+1} - need) / (e_{k+1} - e_k)) <= a_k
            <= floor((left*e_max - need) / (e_max - e_k)),

    clipped to [0, left] (0..left without a total).  Every value tried has a
    real completion, so on consecutive integer levels the listing costs O(1)
    per order for a fixed number of levels; gaps between levels can still
    leave branches with no integer completion.  Without a total the last two
    levels are zipped: a_{n-2} over 0..left, a_{n-1} over left..0.  With a
    total the last three are zipped.  The numerator of a_{n-2} falls by
    s = e_{n-1} - e_{n-3} per unit of a_{n-3}, so the a_{n-3} whose division
    by d = e_{n-1} - e_{n-2} is exact form one progression of step
    d / gcd(s, d), started by a modular inverse; along it a_{n-2} falls by
    s / gcd(s, d) and a_{n-1} rises by (s - d) / gcd(s, d).  So the last two
    or three levels take no Python call per order.  Every value is a Python
    int >= 0 (each range runs from max(0, ...) to at most ``left``, and
    a_{n-3} in its range leaves a_{n-2} in [0, left - a_{n-3}]), so
    ``core._records`` makes the orders without EconomicOrder's checks.

    Two members list the same columns, and one selector, ``_listing``, picks
    the member for the grid on listing speed alone (``catalog`` counts
    either member's columns by the same routes): ``_stack_columns``, one
    loop over an explicit stack of prefixes that lists any grid, and
    ``_level_columns``, which expands a total's listing one level at a time
    over numpy int64 frontiers and pays no Python call per prefix.  The
    selector reads one bound,

        B = C(q + n - 2, n - 2),   q = min(N, (Pi - N*e_0) // (e_1 - e_0)),

    in O(levels).  Each firm above level 0 adds at least e_1 - e_0 to the
    revenue above N*e_0, so an order, or a prefix with a real completion,
    places at most q firms above level 0.  An order is fixed by
    a_1..a_{n-2}, and a prefix of k <= n - 2 levels by a_1..a_{k-1} and its
    ``left``; both are at most n - 2 values summing to at most q, so B bounds
    the number of orders and the rows of every frontier.  The array member
    runs only with a total on four or more levels (it zips the last three,
    so on three levels it has no level to expand, and the stack member
    lists the one zipped run at once), where B reaches ``LISTING_MIN_ROWS``
    per level (below that numpy's fixed cost of some 25 us per level
    outweighs the pops it saves), where the n*B int64 values of the worst
    case fit in ``LISTING_MAX_VALUES``, and where N*e_max and Pi (so every
    int64 intermediate) stay exact.  Everything else, among it the few-order
    grids of the samplers, deep grids with few firms, grids past the memory
    budget and N past int64, is listed by the stack member.

    With a ``cap``, more than ``cap`` orders raise CapExceededError while
    they are listed, before the columns hold them, and a truncated listing
    is never returned; both members raise the same error.  The stack member
    raises it while a level is walked, before the rest of that level's
    prefixes are made; the array member once its last frontier is counted.
    A negative ``cap`` is a ConfigError, raised before any listing.
    """
    if cap is not None and cap < 0:
        raise ConfigError("cap: must be non-negative, got %d" % cap)
    columns = _listing(grid, config)(grid, config, cap)
    if isinstance(columns[0], np.ndarray):
        return _Orders(tuple(column.tolist() for column in columns), columns)
    return _Orders(columns)


# enumerate_orders' array member runs on grids of four or more levels where
# the bound B reaches LISTING_MIN_ROWS per level, and where the worst case's
# n*B int64 values (as many again for their parents) stay within
# LISTING_MAX_VALUES, 32 MB of each.  Best of 9 on a 2-core Xeon (Python
# 3.11.7, numpy 2.4.6), listing alone, stack against array member: 38 / 93 us
# at B/n = 16 (levels 1..4, N = 10), 100 / 104 us at 124 (N = 30), 323 / 172
# us at 1,288 (N = 100); 60 / 96 us at 23 (levels 0 3 7 20, N = 12), 259 /
# 145 us at 58 (levels 1..8, N = 5).
LISTING_MIN_ROWS = 128
LISTING_MAX_VALUES = 1 << 22
# N*e_max, Pi and e_max**2 below this keep every int64 intermediate exact
_INT64_ROOM = 1 << 61


def _listing(grid: RevenueGrid, config: EconomyConfig):
    """The one reader of LISTING_MIN_ROWS, LISTING_MAX_VALUES and
    _INT64_ROOM: the member of enumerate_orders that lists this grid,
    _level_columns where a total is given on four or more levels and B
    (see enumerate_orders) pays for its level passes and fits, else
    _stack_columns."""
    levels, total = grid.levels, config.total_revenue
    n = len(levels)
    # structural, not a tunable: the array member zips the last three levels
    # and expands the levels before them, of which three levels have none
    if total is None or n < 4:
        return _stack_columns
    n_firms = config.n_firms
    q = min(n_firms, (total - n_firms * levels[0]) // (levels[1] - levels[0]))
    # B >= C(2m, m) >= 2**m for m = min(q, n - 2), so past the budget's bit
    # length B is out of budget without forming it
    if min(q, n - 2) >= LISTING_MAX_VALUES.bit_length():
        return _stack_columns
    bound = math.comb(q + n - 2, n - 2) if q >= 0 else 0
    if (
        LISTING_MIN_ROWS * n <= bound <= LISTING_MAX_VALUES // n
        and max(n_firms * levels[-1], total, levels[-1] ** 2) < _INT64_ROOM
    ):
        return _level_columns
    return _stack_columns


def _last_three(levels: tuple[int, ...]) -> tuple[int, ...]:
    """The constants of the last-three zip (see enumerate_orders): s, d,
    h = gcd(s, d), the step d/h of a_{n-3}, the fall s/h of a_{n-2}, the
    rise (s - d)/h of a_{n-1}, and the inverse of s/h modulo d/h (0 when
    d/h = 1)."""
    top = levels[-1]
    s, d = top - levels[-3], top - levels[-2]
    h = math.gcd(s, d)
    step, a_down = d // h, s // h
    return s, d, h, step, a_down, (s - d) // h, pow(a_down, -1, step)


def _stack_columns(
    grid: RevenueGrid, config: EconomyConfig, cap: int | None
) -> tuple[list[int], ...]:
    """enumerate_orders' stack member, for any grid.

    One loop over an explicit stack of frames, one per level entered, each
    an iterator of (prefix, left, need) entries: the values a_0..a_{k-1}
    fixed so far, and the firms and revenue still to place (``need`` is None
    without a revenue total).  No grid is too deep for it.  The loop takes
    the top frame's entries in turn, each in one of five cases:

    - with no firms left, its one completion, zeros to the end, is kept when
      no revenue is left to place (or there is no total);
    - at the last level (one- and two-level grids only), (prefix, left) is
      kept when the revenue matches;
    - without a total, at level n-2, the last two levels are zipped;
    - with a total, at level n-3, the last three levels are zipped;
    - otherwise a frame over the level's range of a_k is pushed, and the
      loop goes on with it; it makes each child entry, low to high, only
      when the loop reaches it.

    A kept run of m orders extends each column once: a prefix level by
    ``repeat(a, m)``, a zipped level by its ``range``.  An order kept alone
    waits as a row, and the waiting rows (at most ``_ROWS_KEPT``) move into
    the columns by one ``zip`` transpose before the next run.  An entry that
    has placed every firm is finished at once rather than walked level by
    level.  Each entry made copies its prefix, O(levels) per node, the size
    of an order.  The cap is checked before the waiting rows or a run, of
    any length, are stored, from the run's length in arithmetic.  No
    level's entries are made ahead of the walk, so the cap fires while a
    level is walked, with one frame per level held.
    """
    levels = grid.levels
    last = len(levels) - 1
    top = levels[-1]
    limit = math.inf if cap is None else cap
    if last >= 2:
        s, d, h, step, a_down, rest_up, inverse = _last_three(levels)
    columns = tuple([[] for _ in levels])
    rows: list[tuple[int, ...]] = []  # orders kept one at a time, not yet in the columns
    consume = deque(maxlen=0).extend  # runs a map of extends in C

    def keep(pieces, m: int = 0) -> None:
        if len(columns[0]) + len(rows) + m > limit:
            raise CapExceededError(None, cap, "order list")
        # the rows go first, transposed by zip, so the columns keep listing order
        consume(map(list.extend, columns, zip(*rows)))
        rows.clear()
        consume(map(list.extend, columns, pieces))

    def frame(prefix, left, need, e, values) -> Iterator[tuple]:
        # the entries fixing a_k to each of ``values`` in turn, from the
        # arguments bound now, not from the names the loop rebinds later
        for a in values:
            yield prefix + (a,), left - a, None if need is None else need - a * e

    stack = [iter([((), config.n_firms, config.total_revenue)])]
    while stack:
        for prefix, left, need in stack[-1]:
            k = len(prefix)
            if not left:
                if not need:  # None without a total, else 0 once the total is met
                    rows.append(prefix + (0,) * (last + 1 - k))
            elif k == last:
                if need is None or left * top == need:
                    rows.append(prefix + (left,))
            elif need is None and k == last - 1:
                m = left + 1
                keep((*map(repeat, prefix, repeat(m)), range(m), range(left, -1, -1)), m)
            elif need is None:
                stack.append(frame(prefix, left, None, 0, range(left + 1)))
                break
            else:
                e, nxt = levels[k], levels[k + 1]
                lo = max(0, -((need - left * nxt) // (nxt - e)))
                hi = min(left, (left * top - need) // (top - e))
                if k != last - 2:
                    stack.append(frame(prefix, left, need, e, range(lo, hi + 1)))
                    break
                # a_{n-3} = lo + j leaves the numerator x - j*s, exact iff j*s = x mod d
                x = left * top - need - lo * s
                if x % h == 0:
                    j = x // h * inverse % step
                    b = (x - j * s) // d
                    c = left - lo - j - b
                    # len(firsts), overflowing no ssize_t; < 0 only when it is empty
                    m = (hi - lo - j) // step + 1
                    firsts = range(lo + j, hi + 1, step)
                    downs = range(b, b - m * a_down, -a_down)
                    ups = range(c, c + m * rest_up, rest_up)
                    keep((*map(repeat, prefix, repeat(m)), firsts, downs, ups), m)
            if len(rows) >= _ROWS_KEPT:
                keep(())
        else:
            stack.pop()
    if rows:
        keep(())
    return columns


def _level_columns(
    grid: RevenueGrid, config: EconomyConfig, cap: int | None
) -> tuple[np.ndarray, ...]:
    """enumerate_orders' array member, for a total on four or more levels.

    The frontier holds the ``left`` and ``need`` of every prefix as int64
    vectors, in listing order, starting from the one empty prefix.  Each
    level before the last three expands every row over its range of a_k in
    one pass: ``np.repeat`` of the row indices by the range lengths gives
    each child's parent, and a_k is the parent's low end plus the child's
    place in its run.  A row's children are contiguous and ascending, so the
    frontier stays in listing order.  The level keeps its values and parents.
    The last three levels are then zipped for every row at once, by the
    stack member's progressions, modular inverse and run lengths.  The
    summed run lengths are the order count, checked against the cap before
    any column is built.  The prefix columns are gathered once, walking the
    parents back from the last level: O(levels * orders).  The columns are
    returned as int64 arrays; ``enumerate_orders`` gives each to its view as
    a list of Python ints and keeps the arrays for ``catalog``'s count.
    """
    levels, top = grid.levels, grid.levels[-1]
    s, d, h, step, a_down, rest_up, inverse = _last_three(levels)
    left = np.array([config.n_firms], dtype=np.int64)
    need = np.array([config.total_revenue], dtype=np.int64)
    values, parents = [], []
    for e, nxt in zip(levels[:-3], levels[1:-2]):
        lo = np.maximum(0, -((need - left * nxt) // (nxt - e)))
        m = np.maximum(np.minimum(left, (left * top - need) // (top - e)) - lo + 1, 0)
        parent = np.repeat(np.arange(len(m)), m)
        a = np.arange(len(parent)) + np.repeat(lo - (np.cumsum(m) - m), m)
        left, need = left[parent] - a, need[parent] - a * e
        values.append(a)
        parents.append(parent)
    e, nxt = levels[-3], levels[-2]
    # only an infeasible root row has lo past left + 1; clipped, its range
    # stays empty and lo * s stays within int64
    lo = np.minimum(np.maximum(0, -((need - left * nxt) // (nxt - e))), left + 1)
    hi = np.minimum(left, (left * top - need) // (top - e))
    x = left * top - need - lo * s
    j = x // h % step * inverse % step
    b = (x - j * s) // d
    m = np.maximum((hi - lo - j) // step + 1, 0) * (x % h == 0)
    count = int(m.sum())
    if cap is not None and count > cap:
        raise CapExceededError(None, cap, "order list")
    parent = np.repeat(np.arange(len(m)), m)
    i = np.arange(count) - np.repeat(np.cumsum(m) - m, m)
    firsts = (lo + j)[parent] + step * i
    downs = b[parent] - a_down * i
    ups = (left - lo - j - b)[parent] + rest_up * i
    prefix = []
    for value, up in zip(reversed(values), reversed(parents)):
        prefix.append(value[parent])
        parent = up[parent]
    return (*reversed(prefix), firsts, downs, ups)


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

    One depth-first walk serves both regimes and never consults the
    closed-form multiplicity, so group sizes are an independent check of it.
    Each firm takes one (level, slot) position, tried in level order; an
    indistinguishable firm never steps back past the firm before it, so each
    multiset is walked once, then returned as sorted ((level, slot), count)
    runs.  With a revenue total a position is skipped when the firms after
    it cannot make up the rest, and the loop stops at the first one too
    dear.  Groups, keyed by the level counts the walk keeps, come out sorted
    by occupancy, each in walk order (lexicographic for distinguishable
    firms).  The walk keeps one generator per firm placed on an explicit
    stack, not one call per firm on the interpreter's, so no number of
    firms is too deep for it; only the cap bounds it.
    Refuses with CapExceededError when the feasible outcome space is larger
    than ``cap``: every feasible order holds at least one outcome, so more
    than ``cap`` orders refuse while they are listed, before any
    multiplicity is computed.
    """
    try:
        orders = enumerate_orders(grid, config, cap=cap)
    except CapExceededError:
        raise CapExceededError(None, cap) from None
    count = sum(multiplicity(order, grid, config.regime) for order in orders)
    if count > cap:
        raise CapExceededError(count, cap)

    levels, total, regime = grid.levels, config.total_revenue, config.regime
    low, high = levels[0], levels[-1]
    steps = [(pos, pos[0], levels[pos[0]]) for pos in _positions(grid.degeneracies).tolist()]
    mon = regime is Regime.MONOPOLISTIC
    occ = [0] * grid.n
    acc: list[tuple[int, int]] = []  # the (level, slot) of each placed firm
    groups: dict[tuple[int, ...], list[tuple]] = {}

    def firm(start: int, revenue: int, rest: int) -> Iterator[tuple[int, int, int]]:
        # places one firm at each position it may take in turn, ``rest`` firms
        # following it; yields the next firm's arguments, or keeps the outcome
        for i in range(start, len(steps)):
            pos, level, e = steps[i]
            rev = revenue + e
            if total is not None:
                need = total - rev
                if need < rest * low:
                    break
                if need > rest * high:
                    continue
            acc.append(pos)
            occ[level] += 1
            if rest:
                yield 0 if mon else i, rev, rest - 1
            else:  # with a total, the bounds at rest = 0 leave only rev == total
                outcome = tuple(acc) if mon else tuple(Counter(acc).items())  # runs, in order
                groups.setdefault(tuple(occ), []).append(outcome)
            acc.pop()
            occ[level] -= 1

    frames = [firm(0, 0, config.n_firms - 1)]  # one per firm placed, the latest on top
    while frames:
        child = next(frames[-1], None)
        if child is None:
            frames.pop()
        else:
            frames.append(firm(*child))
    keys = sorted(groups)
    orders = _records(EconomicOrder, len(keys), occupancy=keys)
    regimes, none = repeat(regime), repeat(None)
    return {
        order: tuple(_records(MicroOutcome, len(a), regime=regimes, assignment=a, drawn_order=none))
        for order, a in zip(orders, map(groups.get, keys))
    }


def catalog(
    grid: RevenueGrid, config: EconomyConfig, *, cap: int | None = None
) -> OrderCatalog:
    """Exact catalog of feasible orders with equal-outcome probabilities.

    The one table of feasible orders and their multiplicities, kept as the
    columns of ``OrderCatalog``: the orders of one ``enumerate_orders``
    call, as its view over the level columns, and their counts, in listing
    order.  With a ``cap``, more than ``cap`` orders raise CapExceededError
    while they are listed, before any multiplicity is computed (a negative
    ``cap`` is a ConfigError).  No order record other than the most
    probable one, no entry record and no probability is made here:
    ``orders`` and ``entries`` make each when it is read.
    ``most_probable``, ``tie_set``, the sampler and every CLI artifact read
    the columns.

    The counts come from ``counting._multiplicities``, handed the listing's
    int64 columns (``arrays``) where the array member listed it, else its
    lists; that function picks how they are counted, a mon listing's walk
    or chain by its row count whichever member listed it.  Where it hands
    back an int64 array (indistinguishable firms on int64 columns), the
    listing indices of the top count's ties are taken on that array by one
    ``flatnonzero`` before its one ``tolist``, and the catalog keeps them;
    any other catalog finds them on first use (``OrderCatalog``).  The
    arrays are dropped once counted, so the catalog's ``orders.columns``
    are lists of Python ints alone, and so are its ``counts``.  The most
    probable order's count is then recomputed once by the closed-form
    ``multiplicity`` (a few µs), and a disagreement raises EconOrderError
    naming the order.  That check serves two ends: the count that
    ``spontaneous.json`` reports is held to the closed form on every run,
    and the benchmark's traced layer suite (``bench/suite.py``), which
    divides by the number of ``multiplicity`` calls, sees at least one.
    """
    orders = enumerate_orders(grid, config, cap=cap)
    if not orders:
        raise InfeasibleError("infeasible economy: no occupancy satisfies the constraints")
    arrays, orders.arrays = orders.arrays, None
    counts = _multiplicities(arrays or orders.columns, grid.degeneracies, config.regime)
    ties = None
    if isinstance(counts, np.ndarray):
        ties = np.flatnonzero(counts == counts.max()).tolist()
        counts = counts.tolist()
    cat = OrderCatalog(orders, tuple(counts), sum(counts), grid.degeneracies, config.regime)
    if ties is not None:
        object.__setattr__(cat, "_ties", ties)  # what the lazy pass would find
    top, best = cat.most_probable(), counts[cat._top]
    exact = multiplicity(top, grid, config.regime)
    if best != exact:
        raise EconOrderError(
            "catalog: order %s counts %d outcomes by the column tables and %d by "
            "the closed form" % (list(top.occupancy), best, exact)
        )
    return cat


def sample_outcomes(
    grid: RevenueGrid,
    config: EconomyConfig,
    seed: int,
    *,
    cap: int = DEFAULT_OUTCOME_CAP,
) -> Iterator[MicroOutcome]:
    """Seeded stream of uniform feasible micro-outcomes: ``OrderCatalog.sample``.

    The catalog is built before this returns, so an infeasible economy raises
    InfeasibleError here, more than ``cap`` orders raise CapExceededError
    while they are being listed, and N >= 2**63 firms raise ConfigError.
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
