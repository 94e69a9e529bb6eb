"""Domain types: revenue grids, economy configuration, orders, and shares.

Revenue levels and the total revenue are stored as non-negative integers, so
feasibility of an occupancy vector is exact set membership rather than a
floating-point tolerance.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError


class Regime(enum.IntEnum):
    """Competition regime; the integer value is the statistics indicator.

    MONOPOLISTIC (0): firms are distinguishable, occupancies counted with
    Boltzmann statistics.  PERFECT (1): firms are indistinguishable,
    occupancies counted with Bose-Einstein statistics.
    """

    MONOPOLISTIC = 0
    PERFECT = 1

    @classmethod
    def parse(cls, text: str) -> "Regime":
        key = text.strip().lower()
        if key in ("mon", "monopolistic", "boltzmann", "0"):
            return cls.MONOPOLISTIC
        if key in ("per", "perfect", "bose_einstein", "bose-einstein", "1"):
            return cls.PERFECT
        raise ConfigError(f"regime: expected 'mon' or 'per', got {text!r}")

    @property
    def short_name(self) -> str:
        return "mon" if self is Regime.MONOPOLISTIC else "per"


@dataclass(frozen=True)
class RevenueGrid:
    """Ladder of revenue levels with per-level industry degeneracies.

    levels: strictly increasing non-negative integers (money quanta).
    degeneracies: number of industries paying each level, all >= 1.
    """

    levels: tuple[int, ...]
    degeneracies: tuple[int, ...]

    def __post_init__(self):
        levels = tuple(int(e) for e in self.levels)
        degens = tuple(int(g) for g in self.degeneracies) if self.degeneracies else tuple(
            1 for _ in levels
        )
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "degeneracies", degens)
        if len(levels) < 1:
            raise ConfigError("grid.levels: at least one revenue level required")
        if any(e < 0 for e in levels):
            raise ConfigError("grid.levels: levels must be non-negative integers")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ConfigError("grid.levels: levels must be strictly increasing")
        if len(degens) != len(levels):
            raise ConfigError(
                "grid.degeneracies: length %d does not match %d levels"
                % (len(degens), len(levels))
            )
        if any(g < 1 for g in degens):
            raise ConfigError("grid.degeneracies: every degeneracy must be >= 1")

    @cached_property
    def vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """(levels, degeneracies) as read-only float64 arrays, built on
        first use.  A cache, not a field: no part in ==, hash, repr, asdict
        or pickle."""
        arrays = (np.array(self.levels, float), np.array(self.degeneracies, float))
        for array in arrays:
            array.flags.writeable = False
        return arrays

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "vectors"}

    @property
    def n(self) -> int:
        return len(self.levels)

    @property
    def total_slots(self) -> int:
        return sum(self.degeneracies)

    def scaled(self, factor: int) -> "RevenueGrid":
        """Same grid with all levels multiplied by a positive integer."""
        if factor < 1:
            raise ConfigError("scale factor must be a positive integer")
        return RevenueGrid(tuple(e * factor for e in self.levels), self.degeneracies)


@dataclass(frozen=True)
class EconomyConfig:
    """Number of firms and total equilibrium revenue to distribute.

    total_revenue=None drops the revenue constraint (only the firm count is
    enforced), which is the unconstrained counting mode used when orders are
    compared across all revenue totals.
    """

    n_firms: int
    total_revenue: int | None
    regime: Regime

    def __post_init__(self):
        if int(self.n_firms) != self.n_firms or self.n_firms < 1:
            raise ConfigError("economy.N: number of firms must be a positive integer")
        object.__setattr__(self, "n_firms", int(self.n_firms))
        if self.total_revenue is not None:
            if int(self.total_revenue) != self.total_revenue or self.total_revenue < 0:
                raise ConfigError("economy.Pi: total revenue must be a non-negative integer")
            object.__setattr__(self, "total_revenue", int(self.total_revenue))
        if not isinstance(self.regime, Regime):
            object.__setattr__(self, "regime", Regime.parse(str(self.regime)))


@dataclass(frozen=True, slots=True)
class EconomicOrder:
    """Occupancy vector: occupancy[k] firms at revenue level k."""

    occupancy: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "occupancy", as_occupancy(self.occupancy))

    def __iter__(self):
        return iter(self.occupancy)


def _records(cls: type, size: int, **slots: Iterable) -> list:
    """``size`` instances of the slotted class ``cls`` made without
    ``__init__`` or its checks: each named slot is set from its iterable of
    values by the slot's descriptor, in one C-level pass per slot."""
    records = list(map(object.__new__, repeat(cls, size)))
    for name, values in slots.items():
        deque(map(getattr(cls, name).__set__, records, values), maxlen=0)
    return records


def as_occupancy(order: "EconomicOrder | Sequence[int]") -> tuple[int, ...]:
    """Occupancy of an order, or of a sequence of ints >= 0 (else ConfigError)."""
    if isinstance(order, EconomicOrder):
        return order.occupancy
    entries = tuple(order)
    try:
        occ = tuple(map(int, entries))
    except (TypeError, ValueError, OverflowError):  # NaN, inf, strings, ...
        occ = None
    # an entry must equal its int(), as EconomyConfig checks N and Pi
    if occ != entries or (occ and min(occ) < 0):
        raise ConfigError("order: occupancies must be non-negative integers")
    return occ


def _check_lengths(occ: Sequence, n_levels: int) -> None:
    if len(occ) != n_levels:
        raise ConfigError(
            "order: occupancy length %d does not match grid with %d levels"
            % (len(occ), n_levels)
        )


@dataclass(frozen=True)
class ValidationReport:
    """Exact constraint residuals for an occupancy vector."""

    firm_residual: int
    revenue_residual: int | None
    feasible: bool


def validate_order(
    order: EconomicOrder | Sequence[int],
    grid: RevenueGrid,
    config: EconomyConfig,
) -> ValidationReport:
    """Check the firm-count and total-revenue constraints exactly.

    Residuals are signed (actual minus target).  The revenue residual is None
    when the economy is unconstrained in revenue.
    """
    occ = as_occupancy(order)
    _check_lengths(occ, grid.n)
    firm_residual = sum(occ) - config.n_firms
    if config.total_revenue is None:
        revenue_residual = None
        feasible = firm_residual == 0
    else:
        revenue_residual = (
            sum(a * e for a, e in zip(occ, grid.levels)) - config.total_revenue
        )
        feasible = firm_residual == 0 and revenue_residual == 0
    return ValidationReport(firm_residual, revenue_residual, feasible)
