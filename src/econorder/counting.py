"""Exact and approximate counting of the micro-outcomes behind an occupancy.

The multiplicity of an occupancy vector a over a grid with degeneracies g is

    distinguishable firms (Boltzmann):     N! / prod(a_k!) * prod(g_k^a_k)
    indistinguishable firms (Bose-Einstein): prod C(a_k + g_k - 1, a_k)

computed in exact integer arithmetic, one order at a time (``multiplicity``)
or for a whole listing at once (``_multiplicities``).  ``multiplicity`` takes
the distinguishable count by one of two routes, chosen by the chain's work
s = sum_k min(a_k, left_k - a_k), left_k being the firms not yet placed
before level k: a chain of binomials C(left_k, a_k) while s is at most
max(``PRIME_ROUTE_MIN_WORK``, N // ``PRIME_ROUTE_SIEVE_RATIO``), and above
it N! / prod(a_k!) from its prime exponents (``_multinomial_by_primes``).
Two log-scale companions exist: an exact log-gamma evaluation for
occupancies whose multiplicity no longer fits comfortably in memory, and the
classical Stirling closed forms used by the entropy-maximisation layer,
which accept real-valued occupancies and are summed by maxent's evaluator
pair, on the member its one selector picks for the grid.
"""

from __future__ import annotations

import math
from functools import partial, reduce
from itertools import repeat
from math import comb, lgamma
from operator import mul, sub
from typing import Sequence

import numpy as np

from .core import EconomicOrder, Regime, RevenueGrid, _check_lengths, as_occupancy
from .errors import ConfigError
from .maxent import _evaluator


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
        _check_lengths(occ, grid)
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
) -> list[int]:
    """Exact multiplicity of every order of a listing, given level by level.

    ``columns[k]`` holds a_k of every order, as ``enumerate_orders`` lists
    them (its view's ``columns``, one list per level); the orders share one
    firm count N.  The counts are ``multiplicity``'s products, built one
    level column at a time with no Python call per order: each level's
    factors are mapped over its column in C and chained
    into the running products by ``map(mul, ...)``, and a table of a level's
    factors is built only over the distinct values of its column, so a short
    listing at large N builds no O(N) table.

    - Distinguishable firms: left_0 = N for every order, so level 0's
      C(N, a_0) * g_0**a_0 is one table.  At each later level but the last,
      C(left_k, a_k) by ``map(comb, ...)`` over the running column of firms
      still to place, times a table of g_k**a_k; the last level's
      C(left, left) = 1 is skipped.
    - Indistinguishable firms: a table of C(a_k + g_k - 1, a_k).

    Other levels with g_k = 1 take no table.  Every count is an exact
    Python int.
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


def log_multiplicity(
    order: EconomicOrder | Sequence[int], grid: RevenueGrid, regime: Regime
) -> float:
    """ln of the multiplicity via log-gamma; exact enough for huge counts."""
    occ = as_occupancy(order)
    _check_lengths(occ, grid)
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


def stirling_log_multiplicity(
    order: EconomicOrder | Sequence[float], grid: RevenueGrid, regime: Regime
) -> float:
    """Stirling-approximate log-multiplicity, defined for real occupancies.

    Boltzmann:      ln N! + sum a_k ln g_k - sum a_k ln a_k + sum a_k,
                    with the N! term kept exact (log-gamma for real N).
    Bose-Einstein:  sum (a_k+g_k-1) ln(a_k+g_k-1) - a_k ln a_k
                    - (g_k-1) ln(g_k-1).

    Zero arguments contribute nothing (0 ln 0 = 0).  The crude Stirling
    substitution ln m! ~ m ln m - m is only accurate for large entries; the
    relative error against log_multiplicity shrinks like ln(a)/a.  Refuses
    negative and non-finite occupancies, then sums on the evaluator that
    ``maxent._evaluator`` selects for the grid.
    """
    if isinstance(order, EconomicOrder):
        order = order.occupancy
    occ = tuple(map(float, order))
    _check_lengths(occ, grid)
    if not all(map(math.isfinite, occ)):
        raise ConfigError("order: occupancies must be finite")
    if min(occ) < 0:
        raise ConfigError("order: occupancies must be non-negative")
    return _evaluator(grid, regime).stirling(occ)
