"""Exact counting of the micro-outcomes behind an integer occupancy.

The multiplicity of an occupancy vector a over a grid with degeneracies g is

    distinguishable firms (Boltzmann):     N! / prod(a_k!) * prod(g_k^a_k)
    indistinguishable firms (Bose-Einstein): prod C(a_k + g_k - 1, a_k)

computed in exact integer arithmetic, one order at a time (``multiplicity``)
or for a whole listing at once (``_multiplicities``).  ``_multiplicities``
alone picks how a listing is counted, from the columns it is handed:
distinguishable firms on int64 columns (``enumerate_orders``' array member)
are walked along the listing's runs, each row's count its predecessor's
times an exact ratio of small falling factorials (``_ratio_walk``);
indistinguishable firms on int64 columns are multiplied in numpy int64
(``_bose_einstein_int64``, handed back as the int64 array) while the
levels' largest factors multiply to less than 2**63; every other listing
is counted in Python ints one level column at a time (the chain,
``_chain``), which also counts the walk's run starts.
``multiplicity`` takes the distinguishable count by one of two routes,
chosen by the chain's work s = sum_k min(a_k, left_k - a_k), left_k being
the firms not yet placed before level k: a chain of binomials
C(left_k, a_k) while s is at most max(``PRIME_ROUTE_MIN_WORK``,
N // ``PRIME_ROUTE_SIEVE_RATIO``), and above it N! / prod(a_k!) from its
prime exponents (``_multinomial_by_primes``).
``log_multiplicity`` gives its logarithm by log-gamma.  The Stirling forms
for real occupancies are ``maxent.stirling_log_multiplicity``.
"""

from __future__ import annotations

import math
from functools import partial, reduce
from itertools import repeat
from math import comb, lgamma, perm
from operator import mul, sub
from typing import Sequence

import numpy as np

from .core import EconomicOrder, Regime, RevenueGrid, _check_lengths, as_occupancy


# Chain work s above which ``multiplicity`` takes the prime route.  On a
# 2-core Xeon (Python 3.11) both routes take about 0.35 ms at s = 2,000 on
# five-level occupancies; the crossover measured 1,300 on two levels and
# 3,500 on fifty equal ones.  It also sieves the primes <= N, so it needs
# s > N // 100 too: at N = 10^6 the crossover was 7,500 (2 levels), 12,000 (5).
PRIME_ROUTE_MIN_WORK = 2_000
PRIME_ROUTE_SIEVE_RATIO = 100

# Rows of level values times primes in one exponent block (8 MB of int64).
_EXPONENT_BLOCK = 1 << 20


def multiplicity(
    order: EconomicOrder | Sequence[int], grid: RevenueGrid, regime: Regime
) -> int:
    """Number of distinct micro-outcomes realising the occupancy (exact).

    The closed form for one order, and the independent oracle of the
    catalog's column counts (``_multiplicities``).  Distinguishable firms
    take one of two routes to N! / prod(a_k!) * prod(g_k^a_k), with equal
    results.  Let s = sum_k min(a_k, left_k - a_k) be the work of the chain
    of binomials C(left_k, a_k) (left_k firms are not yet placed at level
    k).  While s <= max(``PRIME_ROUTE_MIN_WORK``, N // 100), the count is
    that chain; above, it is ``_multinomial_by_primes``, whose cost (a few
    hundred µs plus an O(N) sieve) grows far more slowly in s.  A skewed
    occupancy such as (N - 10, 5, 5) chains at any N, and every
    N <= ``PRIME_ROUTE_MIN_WORK`` chains without computing s.
    """
    occ = order.occupancy if isinstance(order, EconomicOrder) else as_occupancy(order)
    if len(occ) != len(grid.degeneracies):
        _check_lengths(occ, grid.n)
    result = 1
    if regime is Regime.MONOPOLISTIC:
        left = sum(occ)
        if left > PRIME_ROUTE_MIN_WORK and _chain_work(occ) > max(
            PRIME_ROUTE_MIN_WORK, left // PRIME_ROUTE_SIEVE_RATIO
        ):
            return _multinomial_by_primes(occ, grid.degeneracies)
        # N! / prod a_k! as a product of binomials C(firms left, a_k)
        for a, g in zip(occ, grid.degeneracies):
            result *= comb(left, a) if g == 1 else comb(left, a) * g**a
            left -= a
        return result
    for a, g in zip(occ, grid.degeneracies):
        if g != 1:
            result *= comb(a + g - 1, a)
    return result


def _chain_work(occ: Sequence[int]) -> int:
    """s = sum_k min(a_k, left_k - a_k): the binomial chain's multiplications."""
    left = sum(occ)
    work = 0
    for a in occ:
        left -= a
        work += min(a, left)
    return work


def _multinomial_by_primes(occ: Sequence[int], degeneracies: Sequence[int]) -> int:
    """N! / prod(a_k!) * prod(g_k^a_k) from the prime factorisation of the
    multinomial, with no big division (P. B. Borwein, J. Algorithms 6, 1985).

    Legendre's formula gives each prime p <= N its exponent
    v_p = sum_i (floor(N / p^i) - sum_k floor(a_k / p^i)).  The primes are
    grouped by exponent; each group is multiplied out by a balanced product
    tree and raised to its exponent, and those powers and the g_k^a_k are
    multiplied by one more tree, in order of size.  numpy holds only the
    primes and their exponents, all <= N; every big product is an exact
    Python int.
    """
    n = sum(occ)
    primes = _primes_upto(n)
    # the levels' distinct values, each weighted by how often it is
    # subtracted; a_k <= 1 adds no factor, and N is added once
    big = np.array([a for a in occ if a > 1], dtype=np.int64)
    values, counts = np.unique(big, return_counts=True)
    tops = np.concatenate(([n], values))
    weights = np.concatenate(([1], -counts))
    rows = max(1, _EXPONENT_BLOCK // (primes.size + 1))
    exponents = np.zeros(primes.size, dtype=np.int64)
    powers = primes  # p^i for the primes with p^i <= N, a prefix of them
    while powers.size:
        for lo in range(0, tops.size, rows):
            block = tops[lo : lo + rows, None] // powers
            exponents[: powers.size] += weights[lo : lo + rows] @ block
        # p^i * p <= N^2 fits in int64 for N < 3e9, past any sieve in memory
        powers = powers * primes[: powers.size]
        powers = powers[: np.searchsorted(powers, n, side="right")]
    present = np.flatnonzero(exponents)
    present = present[np.argsort(exponents[present], kind="stable")]
    exponents, primes = exponents[present], primes[present].tolist()
    # each run of equal exponents starts where the sorted exponent rises
    starts = np.flatnonzero(np.diff(exponents, prepend=0)).tolist()
    factors = [
        _product(primes[lo:hi]) ** int(exponents[lo])
        for lo, hi in zip(starts, [*starts[1:], len(primes)])
    ]
    factors += [g**a for a, g in zip(occ, degeneracies) if g != 1 and a]
    # sorted by size, so that the tree pairs the small factors first
    return _product(sorted(factors, key=int.bit_length))


def _primes_upto(n: int) -> np.ndarray:
    """The primes <= n, ascending (sieve of Eratosthenes)."""
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


def _product(values: list[int]) -> int:
    """Product by a balanced tree: each multiply pairs operands of similar
    size, where CPython's Karatsuba multiplication beats a running product."""
    while len(values) > 1:
        odd = values[-1:] if len(values) % 2 else []
        values = [*map(mul, values[::2], values[1::2]), *odd]
    return values[0] if values else 1


def _multiplicities(
    columns: Sequence[Sequence[int]], degeneracies: tuple[int, ...], regime: Regime
) -> list[int] | np.ndarray:
    """Exact multiplicity of every order of a listing, given level by level.

    ``columns[k]`` holds a_k of every order, as ``enumerate_orders`` lists
    them: one list per level (its view's ``columns``), or one int64 array
    per level (the array member's ``arrays``); the orders share one firm
    count N.  The counts are ``multiplicity``'s, in listing order, with no
    Python call per order.  This is the one place that picks the route,
    from the columns and the regime alone:

    - int64 columns of distinguishable firms: ``_ratio_walk`` along the
      listing's runs, which counts only the rows that start a run by the
      chain; a list of Python ints.
    - int64 columns of indistinguishable firms, while the product over the
      levels of each level's largest factor, C(max a_k + g_k - 1, max a_k),
      is below 2**63 (the width of int64, not a tunable):
      ``_bose_einstein_int64``, an int64 array, which the caller turns into
      Python ints.  Every count is at most that product and every factor at
      least 1, so no running product overflows.
    - Every other listing, int64 columns turned into lists first: the chain
      (``_chain``); a list of Python ints.
    """
    if isinstance(columns[0], np.ndarray):
        if regime is Regime.MONOPOLISTIC:
            return _ratio_walk(columns, degeneracies)
        tabled = [(column, g) for column, g in zip(columns, degeneracies) if g != 1]
        if _largest_count(tabled) < 1 << 63:
            return _bose_einstein_int64(tabled, len(columns[0]))
        columns = [column.tolist() for column in columns]
    return _chain(columns, degeneracies, regime)


def _chain(
    columns: Sequence[list[int]], degeneracies: tuple[int, ...], regime: Regime
) -> list[int]:
    """``_multiplicities`` on lists of Python ints: each level's factors are
    mapped over its column in C and chained into the running products by
    ``map(mul, ...)``, and a table of a level's factors is built only over
    the distinct values of its column, so a short listing at large N builds
    no O(N) table.

    - Distinguishable firms: left_0 = N for every order, so level 0's
      C(N, a_0) * g_0**a_0 is one table.  At each later level but the last,
      C(left_k, a_k) by ``map(comb, ...)`` over the running column of firms
      still to place, times a table of g_k**a_k; the last level's
      C(left, left) = 1 is skipped.
    - Indistinguishable firms: a table of C(a_k + g_k - 1, a_k).

    Levels with g_k = 1 take no table, except level 0 of distinguishable
    firms.
    """
    mon = regime is Regime.MONOPOLISTIC
    factors = []  # one lazy column of factors per level and kind
    if mon:
        n = sum(column[0] for column in columns)
        first, g = columns[0], degeneracies[0]
        table = {a: comb(n, a) * g**a for a in set(first)}
        factors.append(map(table.__getitem__, first))
        left = repeat(n)
        for prev, column in zip(columns, columns[1:-1]):
            left = list(map(sub, left, prev))
            factors.append(map(comb, left, column))
    tabled = zip(columns[1:], degeneracies[1:]) if mon else zip(columns, degeneracies)
    for column, g in tabled:
        if g != 1:
            values = set(column)
            table = {a: g**a for a in values} if mon else {a: comb(a + g - 1, a) for a in values}
            factors.append(map(table.__getitem__, column))
    if not factors:
        return [1] * len(columns[0])
    # map(mul, map(mul, f0, f1), f2)...: every product taken in C
    return list(reduce(partial(map, mul), factors))


def _largest_count(tabled: list[tuple[np.ndarray, int]]) -> int:
    """prod_k C(max a_k + g_k - 1, max a_k) over int64 columns and their
    degeneracies: an exact bound on every Bose-Einstein count of the listing."""
    tops = [(int(column.max(initial=0)), g) for column, g in tabled]
    return math.prod(comb(a + g - 1, a) for a, g in tops)


def _bose_einstein_int64(tabled: list[tuple[np.ndarray, int]], size: int) -> np.ndarray:
    """Bose-Einstein counts of ``size`` orders as one int64 array of
    products, given the int64 column and degeneracy of every level with
    g_k > 1; the caller has bounded every count below 2**63
    (``_largest_count``).  The array is returned as it is, so that the
    catalog finds its top count and ties in numpy before one ``tolist``.
    Each level's C(a + g_k - 1, a) is tabled over its column's range
    min..max, exact in Python ints, and gathered by the column.  On an
    array-member listing that range holds at most q + 1 values (q of
    ``enumerate_orders``' bound B, below B itself), since a_0 >= N - q and
    a_k <= q above level 0."""
    counts = np.ones(size, dtype=np.int64)
    for column, g in tabled:
        low = int(column.min())
        table = [comb(a + g - 1, a) for a in range(low, int(column.max()) + 1)]
        counts *= np.array(table, dtype=np.int64)[column - low]
    return counts


def _ratio_walk(columns: Sequence[np.ndarray], degeneracies: tuple[int, ...]) -> list[int]:
    """N! / prod(a_k!) * prod(g_k^a_k) of every row of a listing of int64
    ``columns`` by ``enumerate_orders``' array member, each row that
    continues a run from its predecessor's count by an exact ratio.

    A run is one prefix a_0..a_{n-4}: a row starts a run where one of those
    columns changes, so a three-level listing is one run.  Along a run the
    member zips the last three levels (x, y, z) from one progression, so
    every continuing row moves them by the same (+step, -a_down, +rest_up),
    read from the first continuing pair.  The run starts are counted by the
    chain (``_chain``), and row p of a run by

        w_p = w_{p-1} * U_p // D_p,
        U_p = perm(y_{p-1}, a_down) * g_x**step * g_z**rest_up,
        D_p = perm(x_p, step) * perm(z_p, rest_up) * g_y**a_down,

    since w_p * D_p = w_{p-1} * U_p for any such pair, so the division is
    exact.  U and D come from tables of Python ints over the range of the
    values they are read at, gathered as object arrays.  The walk is
    offset-major: the runs are ranked longest first, so the runs still
    going at step k are a prefix of those going at step k - 1, and step k
    updates the k-th row of every such run by two numpy calls on slices.
    The numpy calls grow with the longest run, not with the rows.
    """
    *prefix, x, y, z = columns
    g_x, g_y, g_z = degeneracies[-3:]
    fresh = np.zeros(len(x), dtype=bool)  # the rows that start a run
    fresh[0] = True
    for column in prefix:
        fresh[1:] |= column[1:] != column[:-1]
    starts = np.flatnonzero(fresh)
    first = _chain(
        [column[starts].tolist() for column in columns], degeneracies, Regime.MONOPOLISTIC
    )
    lengths = np.append(starts[1:], len(x)) - starts
    # going[k - 1]: the runs longer than k, for k = 1 .. longest - 1
    going = (len(starts) - np.cumsum(np.bincount(lengths)))[1:-1]
    if not going.size:
        return first
    p = int(np.argmin(fresh))  # the first row that continues its predecessor
    step, a_down, rest_up = int(x[p] - x[p - 1]), int(y[p - 1] - y[p]), int(z[p] - z[p - 1])
    order = np.argsort(-lengths, kind="stable")
    ends = np.cumsum(going)
    # the k-th row of each of the going[k - 1] runs, step by step
    rank = np.arange(ends[-1]) - np.repeat(ends - going, going)
    rows = starts[order][rank] + np.repeat(np.arange(1, going.size + 1), going)
    ups = _falling(y[rows - 1], a_down, g_x**step * g_z**rest_up)
    downs = _falling(x[rows], step, 1) * _falling(z[rows], rest_up, g_y**a_down)
    counts = np.empty(len(x), dtype=object)
    counts[starts] = first
    walked = np.empty(len(rows), dtype=object)
    before, low = counts[starts[order]], 0
    for high, n in zip(ends.tolist(), going.tolist()):
        here = walked[low:high]
        np.multiply(before[:n], ups[low:high], out=here)
        np.floor_divide(here, downs[low:high], out=here)
        before, low = here, high
    counts[rows] = walked
    return counts.tolist()


def _falling(values: np.ndarray, k: int, factor: int) -> np.ndarray:
    """perm(a, k) * factor for each a of the int64 ``values``, as Python
    ints in an object array, from one table over min(values)..max(values)."""
    low = int(values.min())
    table = [perm(a, k) * factor for a in range(low, int(values.max()) + 1)]
    return np.array(table, dtype=object)[values - low]


def log_multiplicity(
    order: EconomicOrder | Sequence[int], grid: RevenueGrid, regime: Regime
) -> float:
    """ln of the multiplicity via log-gamma; exact enough for huge counts."""
    occ = as_occupancy(order)
    _check_lengths(occ, grid.n)
    if regime is Regime.MONOPOLISTIC:
        n_firms = sum(occ)
        total = lgamma(n_firms + 1)
        for a, g in zip(occ, grid.degeneracies):
            total -= lgamma(a + 1)
            if a:
                total += a * math.log(g)
        return total
    total = 0.0
    for a, g in zip(occ, grid.degeneracies):
        total += lgamma(a + g) - lgamma(a + 1) - lgamma(g)
    return total

