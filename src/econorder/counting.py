"""Exact and approximate counting of the micro-outcomes behind an occupancy.

The multiplicity of an occupancy vector a over a grid with degeneracies g is

    distinguishable firms (Boltzmann):     N! / prod(a_k!) * prod(g_k^a_k)
    indistinguishable firms (Bose-Einstein): prod C(a_k + g_k - 1, a_k)

computed in exact integer arithmetic.  Two log-scale companions exist: an
exact log-gamma evaluation for occupancies whose multiplicity no longer fits
comfortably in memory, and the classical Stirling closed forms used by the
entropy-maximisation layer, which accept real-valued occupancies.
"""

from __future__ import annotations

import math
from math import comb, lgamma
from typing import Sequence

from .core import EconomicOrder, Regime, RevenueGrid, as_occupancy
from .errors import ConfigError


def _check_lengths(occ: Sequence, grid: RevenueGrid) -> None:
    if len(occ) != grid.n:
        raise ConfigError(
            "order: occupancy length %d does not match grid with %d levels"
            % (len(occ), grid.n)
        )


def multiplicity(
    order: EconomicOrder | Sequence[int], grid: RevenueGrid, regime: Regime
) -> int:
    """Number of distinct micro-outcomes realising the occupancy (exact)."""
    occ = as_occupancy(order)
    _check_lengths(occ, grid)
    result = 1
    if regime is Regime.MONOPOLISTIC:
        # N! / prod a_k! as a product of binomials C(firms left, a_k)
        left = sum(occ)
        for a, g in zip(occ, grid.degeneracies):
            result *= comb(left, a) * g**a
            left -= a
        return result
    for a, g in zip(occ, grid.degeneracies):
        result *= comb(a + g - 1, a)
    return result


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
