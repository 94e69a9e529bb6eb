"""Exhaustive enumeration of feasible occupancies and micro-outcomes.

Desk-scale machinery: list every occupancy vector satisfying the firm-count
and revenue constraints, list every micro-outcome (labeled assignment or
multiset, depending on the regime), attach exact rational probabilities under
the equal-probability rule, and sample outcomes uniformly, either by direct
indexing (small spaces) or by a revenue-conserving Markov chain whose
symmetric proposals make the uniform distribution stationary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .core import EconomicOrder, EconomyConfig, Regime, RevenueGrid
from .counting import multiplicity
from .errors import CapExceededError, ConfigError, InfeasibleError

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
    probable order under the documented tie rule.
    """

    entries: tuple[CatalogEntry, ...]
    total_outcomes: int

    def most_probable(self) -> EconomicOrder:
        return self.entries[0].order

    def tie_set(self) -> tuple[EconomicOrder, ...]:
        top = self.entries[0].multiplicity
        return tuple(e.order for e in self.entries if e.multiplicity == top)

    def probability_of(self, order: EconomicOrder) -> Fraction:
        for entry in self.entries:
            if entry.order == order:
                return entry.probability
        return Fraction(0)


def enumerate_orders(grid: RevenueGrid, config: EconomyConfig) -> list[EconomicOrder]:
    """All occupancy vectors meeting the constraints, in lexicographic order."""
    n = grid.n
    levels = grid.levels
    total = config.total_revenue
    out: list[EconomicOrder] = []

    def recurse(k: int, left: int, revenue: int, acc: list[int]) -> None:
        if k == n - 1:
            if total is None or revenue + left * levels[-1] == total:
                out.append(EconomicOrder(tuple(acc) + (left,)))
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


def catalog(grid: RevenueGrid, config: EconomyConfig) -> OrderCatalog:
    """Exact catalog of feasible orders with equal-outcome probabilities."""
    orders = enumerate_orders(grid, config)
    if not orders:
        raise InfeasibleError("infeasible economy: no occupancy satisfies the constraints")
    counts = [multiplicity(order, grid, config.regime) for order in orders]
    total = sum(counts)
    entries = [
        CatalogEntry(order, omega, Fraction(omega, total))
        for order, omega in zip(orders, counts)
    ]
    entries.sort(key=lambda e: (-e.multiplicity, e.order.occupancy))
    return OrderCatalog(tuple(entries), total)


def _initial_state(grid: RevenueGrid, config: EconomyConfig) -> MicroOutcome:
    orders = enumerate_orders(grid, config)
    if not orders:
        raise InfeasibleError("infeasible economy: no occupancy satisfies the constraints")
    occ = orders[0].occupancy
    if config.regime is Regime.MONOPOLISTIC:
        firm_positions: list[Position] = []
        for k, a in enumerate(occ):
            for i in range(a):
                firm_positions.append((k, i % grid.degeneracies[k]))
        return MicroOutcome(config.regime, tuple(firm_positions))
    counts: dict[Position, int] = {}
    for k, a in enumerate(occ):
        g = grid.degeneracies[k]
        for i in range(a):
            pos = (k, i % g)
            counts[pos] = counts.get(pos, 0) + 1
    return MicroOutcome(config.regime, tuple(sorted(counts.items())))


def _pair_sum_table(grid: RevenueGrid) -> dict[int, list[tuple[Position, Position]]]:
    positions = _positions(grid)
    table: dict[int, list[tuple[Position, Position]]] = {}
    for p in positions:
        for q in positions:
            s = grid.levels[p[0]] + grid.levels[q[0]]
            table.setdefault(s, []).append((p, q))
    return table


def sample_outcomes(
    grid: RevenueGrid,
    config: EconomyConfig,
    seed: int,
    *,
    burn_in: int = 1000,
    thinning: int | None = None,
    method: str = "auto",
    cap: int = DEFAULT_OUTCOME_CAP,
) -> Iterator[MicroOutcome]:
    """Infinite stream of uniformly distributed feasible micro-outcomes.

    Small spaces (at most ``cap`` outcomes) are enumerated once and sampled
    by uniform index, which is exactly uniform.  Larger spaces fall back to
    a Markov chain over outcomes: each step picks two firms (or two units)
    and moves them to new positions with an unchanged combined revenue,
    chosen uniformly among all such position pairs.  The proposal is
    symmetric, so the uniform distribution is stationary; streams are fully
    reproducible from the seed.

    Pairwise moves cannot connect every feasible set: on grids where no two
    distinct level pairs share a revenue sum (for example levels 1, 3, 4)
    the chain never changes the occupancy at all.  Ergodicity is therefore
    an instance property, not a theorem; use mcmc_support_check before
    trusting a forced-mcmc stream on an unfamiliar grid.
    """
    if method not in ("auto", "uniform", "mcmc"):
        raise ConfigError("sample method must be auto, uniform, or mcmc")
    rng = np.random.default_rng(seed)
    if method != "mcmc":
        try:
            groups = enumerate_outcomes(grid, config, cap=cap)
        except CapExceededError:
            if method == "uniform":
                raise
        else:
            flat = [outcome for group in groups.values() for outcome in group]
            if not flat:
                raise InfeasibleError("infeasible economy: no feasible outcome to sample")

            def uniform_stream() -> Iterator[MicroOutcome]:
                while True:
                    for idx in rng.integers(0, len(flat), size=4096):
                        yield flat[idx]
            return uniform_stream()
    return _mcmc_stream(grid, config, rng, burn_in, thinning)


def _mcmc_stream(
    grid: RevenueGrid,
    config: EconomyConfig,
    rng: np.random.Generator,
    burn_in: int,
    thinning: int | None,
) -> Iterator[MicroOutcome]:
    start = _initial_state(grid, config)
    table = _pair_sum_table(grid)
    positions = _positions(grid)
    n_firms = config.n_firms
    step_thin = thinning if thinning is not None else max(1, 2 * n_firms)

    # same-revenue destinations of a single firm/unit; used when N == 1
    same_level_value: dict[int, list[Position]] = {}
    for pos in positions:
        same_level_value.setdefault(grid.levels[pos[0]], []).append(pos)

    if config.regime is Regime.MONOPOLISTIC:
        state = list(start.assignment)

        def step() -> None:
            if n_firms == 1:
                candidates = same_level_value[grid.levels[state[0][0]]]
                state[0] = candidates[int(rng.integers(0, len(candidates)))]
                return
            i = int(rng.integers(0, n_firms))
            j = int(rng.integers(0, n_firms - 1))
            if j >= i:
                j += 1
            s = grid.levels[state[i][0]] + grid.levels[state[j][0]]
            candidates = table[s]
            p, q = candidates[int(rng.integers(0, len(candidates)))]
            state[i] = p
            state[j] = q

        def current() -> MicroOutcome:
            return MicroOutcome(config.regime, tuple(state))

    else:
        counts: dict[Position, int] = dict(start.assignment)

        def _move(removals: tuple[Position, ...], additions: tuple[Position, ...]) -> None:
            for pos in removals:
                new = counts.get(pos, 0) - 1
                if new:
                    counts[pos] = new
                else:
                    counts.pop(pos, None)
            for pos in additions:
                counts[pos] = counts.get(pos, 0) + 1

        def step() -> None:
            if n_firms == 1:
                (only,) = counts
                candidates = same_level_value[grid.levels[only[0]]]
                dest = candidates[int(rng.integers(0, len(candidates)))]
                _move((only,), (dest,))
                return
            p = positions[int(rng.integers(0, len(positions)))]
            q = positions[int(rng.integers(0, len(positions)))]
            if p == q:
                if counts.get(p, 0) < 2:
                    return  # self-loop keeps the proposal symmetric
            elif counts.get(p, 0) < 1 or counts.get(q, 0) < 1:
                return
            s = grid.levels[p[0]] + grid.levels[q[0]]
            candidates = table[s]
            p2, q2 = candidates[int(rng.integers(0, len(candidates)))]
            _move((p, q), (p2, q2))

        def current() -> MicroOutcome:
            return MicroOutcome(config.regime, tuple(sorted(counts.items())))

    def chain() -> Iterator[MicroOutcome]:
        for _ in range(burn_in):
            step()
        while True:
            for _ in range(step_thin):
                step()
            yield current()

    return chain()


def mcmc_support_check(
    grid: RevenueGrid,
    config: EconomyConfig,
    seed: int = 0,
    draws: int = 5000,
    **sample_kwargs,
) -> tuple[bool, set[EconomicOrder]]:
    """Empirical irreducibility probe for the Markov-chain sampler.

    Runs a forced-mcmc stream and compares the set of visited orders with
    the exhaustively enumerated feasible set.  Returns (complete, missing):
    a False flag means the chain provably failed to reach part of the
    feasible set within the probe, so its samples cannot be trusted as
    uniform on this instance.
    """
    import itertools as _it

    feasible = set(enumerate_orders(grid, config))
    stream = sample_outcomes(grid, config, seed, method="mcmc", **sample_kwargs)
    visited = {outcome.order(grid.n) for outcome in _it.islice(stream, draws)}
    missing = feasible - visited
    return not missing, missing


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
