"""Exact and approximate counting of the micro-outcomes behind an occupancy.

The multiplicity of an occupancy vector a over a grid with degeneracies g is

    distinguishable firms (Boltzmann):     N! / prod(a_k!) * prod(g_k^a_k)
    indistinguishable firms (Bose-Einstein): prod C(a_k + g_k - 1, a_k)

computed in exact integer arithmetic, one order at a time (``multiplicity``)
or for a whole listing at once (``_multiplicities``).  Two log-scale
companions exist: an exact log-gamma evaluation for occupancies whose
multiplicity no longer fits comfortably in memory, and the classical Stirling
closed forms used by the entropy-maximisation layer, which accept real-valued
occupancies.
"""

from __future__ import annotations

import math
from functools import partial, reduce
from itertools import repeat
from math import comb, lgamma
from operator import mul, sub
from typing import Sequence

from .core import EconomicOrder, Regime, RevenueGrid, _check_lengths, as_occupancy
from .errors import ConfigError


def multiplicity(
    order: EconomicOrder | Sequence[int], grid: RevenueGrid, regime: Regime
) -> int:
    """Number of distinct micro-outcomes realising the occupancy (exact).

    The closed form for one order, and the independent oracle of the
    catalog's column counts (``_multiplicities``).
    """
    occ = order.occupancy if isinstance(order, EconomicOrder) else as_occupancy(order)
    if len(occ) != len(grid.degeneracies):
        _check_lengths(occ, grid)
    result = 1
    if regime is Regime.MONOPOLISTIC:
        # N! / prod a_k! as a product of binomials C(firms left, a_k)
        left = sum(occ)
        for a, g in zip(occ, grid.degeneracies):
            result *= comb(left, a) if g == 1 else comb(left, a) * g**a
            left -= a
        return result
    for a, g in zip(occ, grid.degeneracies):
        if g != 1:
            result *= comb(a + g - 1, a)
    return result


def _multiplicities(
    columns: Sequence[Sequence[int]], degeneracies: tuple[int, ...], regime: Regime
) -> list[int]:
    """Exact multiplicity of every order of a listing, given level by level.

    ``columns[k]`` holds a_k of every order (``list(zip(*occupancies))``);
    the orders share one firm count N.  The counts are ``multiplicity``'s
    products, built one level column at a time with no Python call per
    order: each level's factors are mapped over its column in C and chained
    into the running products by ``map(mul, ...)``, and a table of a level's
    factors is built only over the distinct values of its column, so a short
    listing at large N builds no O(N) table.

    - Distinguishable firms: C(left_k, a_k) by ``map(comb, ...)`` over the
      running columns of firms still to place (left_0 = N), times a table of
      g_k**a_k.  The last level's C(left, left) = 1 is skipped.
    - Indistinguishable firms: a table of C(a_k + g_k - 1, a_k).

    Levels with g_k = 1 take no table.  Every count is an exact Python int.
    """
    mon = regime is Regime.MONOPOLISTIC
    factors = []  # one lazy column of factors per level and kind
    if mon:
        left = repeat(sum(column[0] for column in columns))
        for column in columns[:-1]:
            factors.append(map(comb, left, column))
            left = list(map(sub, left, column))
    for column, g in zip(columns, degeneracies):
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
    relative error against log_multiplicity shrinks like ln(a)/a.
    """
    occ = tuple(map(float, order))
    _check_lengths(occ, grid)
    if any(a < 0 for a in occ):
        raise ConfigError("order: occupancies must be non-negative")
    if regime is Regime.MONOPOLISTIC:
        n_firms = sum(occ)
        total = lgamma(n_firms + 1.0)
        for a, g in zip(occ, grid.degeneracies):
            if a:
                total += a * math.log(g)
                total -= a * math.log(a)
            total += a
        return total
    # x ln x written out per term, with 0 ln 0 = 0
    total = 0.0
    for a, g in zip(occ, grid.degeneracies):
        b, c = a + g - 1.0, g - 1.0
        total += (
            (b * math.log(b) if b else 0.0)
            - (a * math.log(a) if a else 0.0)
            - (c * math.log(c) if c else 0.0)
        )
    return total
