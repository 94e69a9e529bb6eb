"""Constrained multiplicity maximisation via Lagrange multipliers.

The most probable occupancy under the firm-count and total-revenue
constraints has the closed form

    a_k = g_k / (exp(x_k) - I),   x_k = alpha + beta * e_k,   I in {0, 1},

where I = 0 gives the Boltzmann (monopolistic competition) solution and
I = 1 the Bose-Einstein (perfect competition) solution.  The multipliers
minimise the convex dual

    Phi(alpha, beta) = alpha N + beta Pi + ln Z,
    ln Z = sum_k g_k exp(-x_k)              (I = 0),
    ln Z = -sum_k g_k ln(1 - exp(-x_k))     (I = 1, defined for every x_k > 0),

whose gradient is the constraint residual and whose Hessian is positive
definite on any grid with two or more levels.  Both solvers work on one
anchored problem (_anchored): x = a + b u with u = (e - e_0) / (e_far - e_0)
in [0, 1], anchored at the end e_0 of the grid where x is smallest, so that
b >= 0 at the solution and a is the gap at the condensing end.

solve_multipliers runs damped Newton on Phi with a backtracking Armijo line
search, which converges globally on a strictly convex objective (Boyd &
Vandenberghe, Convex Optimization, 2004, sec. 9.5), here started from the
closed form of a two-level grid.  The loop reads only scalar sums, each
taken once per Newton step: ln Z from the closed form at every trial point,
then at the accepted point the gradient sums sum a and sum a u (totals) and
the Hessian sums (curvature).  Under monopolistic competition the Hessian
weight is a itself, so curvature reuses the gradient sums and adds only
the spread sum a (u - mean)^2; under perfect competition it sums the weight
a + a^2 / g afresh.  The mon ln Z is sum a too, but totals takes it again:
reading it from ln Z measured no gain on the float member, and on the array
member np.add.reduce and basis @ a round differently.

One evaluator pair holds the closed form, the sums Newton reads and the
Stirling sum: _FloatLevels on Python floats, read straight from the grid's
integer levels and degeneracies, and _ArrayLevels on numpy arrays.  One
selector, _evaluator, picks the member by the grid's level count against
ARRAY_MIN_LEVELS (below it numpy's fixed cost per call would outweigh its
per-level speed) and builds it on the grid's levels or on the solver's
shifted levels u.  occupancy, the solver, stirling_log_multiplicity (the
Stirling form of counting.log_multiplicity for real occupancies, which each
member checks once in its own representation), macro.log_W and
macro.entropy_identity_residual all go through it.  Float sums run left to
right, the order numpy's add.reduce takes below eight terms, never by
builtin sum, which is compensated from Python 3.12.  Far from the
Bose-Einstein wall exp and expm1 overflow: both evaluators then give an
infinite (mon) or zero (per) occupancy, without a warning or an exception.

solve_multipliers_bisection is an independent oracle, used only by checks
and tests, with its own Python-scalar occupancy: the firm count is
decreasing in a at fixed b and the constrained mean of u is decreasing in b,
and in the anchored coordinates both roots have exact brackets, so nested
bisection needs no bracket search beyond doubling b.  Its residuals are
taken from the raw levels, so a fault in the shared anchoring shows there.

Near perfect competition the Bose-Einstein denominator can approach zero at
the condensing end of the grid; detect_condensation flags that crisis regime.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import reduce
from operator import add, mul
from typing import Sequence

import numpy as np

from .core import EconomicOrder, EconomyConfig, Regime, RevenueGrid, _check_lengths
from .errors import ConfigError, InfeasibleError, SingularityError

_EPS = float(np.finfo(float).eps)
_TOL = 1e-10  # residuals relative to N and Pi
_MAX_STEPS = 100
_MIN_STEP = 2.0**-50
_ARMIJO = 1e-4

# Grids with fewer levels than this are evaluated on Python floats, larger
# ones on numpy arrays.  Best of 5 on a 2-core Xeon (Python 3.11.7, numpy
# 2.4.6), floats against numpy, levels 1..n: the closed form took 2.9 / 4.8
# (mon) and 4.2 / 8.0 us (per) at n = 8, 4.4 / 5.6 and 7.0 / 6.6 us at
# n = 16, 6.9 / 4.8 and 12.8 / 7.1 us at n = 32; a whole solve crossed over
# between 14 and 20 levels in both regimes.
ARRAY_MIN_LEVELS = 16

_OCCUPANCY_RANGE = "order: occupancies must be finite and non-negative"  # both Stirling checks
# both Boltzmann Stirling sums: ln N! by lgamma overflows from N = 2.56e305
# on, and a little below that an a_k ln a_k can overflow while ln N! does not
_STIRLING_RANGE = "order: the Stirling sum at N = %g is past the float range"


@dataclass(frozen=True)
class MultiplierSolution:
    """Solved multipliers with the real-valued occupancy and residuals.

    alpha and beta are None for boundary-degenerate economies (mean revenue
    exactly at the lowest or highest level), where the occupancy is forced
    and no finite multipliers exist.
    """

    alpha: float | None
    beta: float | None
    occupancy: tuple[float, ...]
    residual_n: float
    residual_pi: float
    iterations: int
    converged: bool
    boundary: bool = False
    pinned: bool = False
    method: str = "newton"


@dataclass(frozen=True)
class CondensationReport:
    condensed: bool
    ground_fraction: float
    gap: float
    fraction_threshold: float
    gap_threshold: float


def _wall(k: int, xk: float) -> SingularityError:
    return SingularityError(
        "Bose-Einstein occupancy undefined at level %d: "
        "alpha + beta*e = %g <= 0" % (k, xk),
        level_index=k,
    )


def _inf_on_overflow(f, x: float) -> float:
    """f(x) for math.exp or math.expm1, inf where it overflows, as in numpy."""
    try:
        return f(x)
    except OverflowError:
        return math.inf


def _finite_multipliers(alpha: float, beta: float) -> None:
    """Refuse non-finite multipliers before either evaluator runs."""
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ConfigError("multipliers must be finite, got alpha = %s, beta = %s" % (alpha, beta))


class _FloatLevels:
    """Levels e (a grid's own, or the solver's u) and degeneracies g on
    Python floats, with the closed form, the sums Newton reads and the
    Stirling sum."""

    __slots__ = ("e", "g", "regime")

    def __init__(self, e, g, regime: Regime):
        self.e, self.g, self.regime = e, g, regime

    def closed_form(self, alpha: float, beta: float):
        """(occupancy, ln Z) at x = alpha + beta e.

        Raises SingularityError when some x_k <= 0 under perfect competition.
        Past overflow it gives the values numpy gives: g e^(-x) = inf (mon),
        g / expm1(x) = 0.0 (per).  Bose-Einstein ln Z uses
        1 / (1 - exp(-x)) = 1 + a / g.

        Each occupancy is taken straight from alpha + beta e_k.  A level at
        or past the wall stops that pass: x_k = +-0.0 divides by zero, and
        x_k < 0 gives a_k <= -g_k, outside log1p's domain.  Only then, or
        when a term overflows, is x listed, by _past_the_wall.
        """
        g, e = self.g, self.e
        try:
            if self.regime is Regime.PERFECT:
                occ = [gk / math.expm1(alpha + beta * ek) for gk, ek in zip(g, e)]
                return occ, reduce(add, [gk * math.log1p(ak / gk) for gk, ak in zip(g, occ)], 0.0)
            occ = [gk * math.exp(-(alpha + beta * ek)) for gk, ek in zip(g, e)]
            return occ, reduce(add, occ, 0.0)
        except (ZeroDivisionError, ValueError, OverflowError):
            pass  # outside the handler, a wall raised below chains no context
        return self._past_the_wall(alpha, beta)

    def _past_the_wall(self, alpha: float, beta: float):
        """closed_form on the listed x: the wall check, then the overflowing
        terms as numpy has them."""
        g = self.g
        x = [alpha + beta * ek for ek in self.e]
        if self.regime is Regime.PERFECT:
            low = min(x)
            if low <= 0.0:
                raise _wall(x.index(low), low)
            occ = [gk / _inf_on_overflow(math.expm1, xk) for gk, xk in zip(g, x)]
            return occ, reduce(add, [gk * math.log1p(ak / gk) for gk, ak in zip(g, occ)], 0.0)
        occ = [gk * _inf_on_overflow(math.exp, -xk) for gk, xk in zip(g, x)]
        return occ, reduce(add, occ, 0.0)

    def totals(self, v) -> tuple[float, float]:
        """(sum v, sum v e)."""
        return reduce(add, v, 0.0), reduce(add, map(mul, v, self.e), 0.0)

    def curvature(self, occ, sums) -> tuple[float, float, float]:
        """(sum w, the w-weighted mean of e, sum w (e - mean)^2), where w is
        the Hessian weight of each level, given sums = totals(occ).  Under
        monopolistic competition w is the occupancy itself, and sums are its
        totals; under perfect competition w = a + a^2 / g is summed here."""
        w = occ
        if self.regime is Regime.PERFECT:
            w = [ak + ak * (ak / gk) for ak, gk in zip(occ, self.g)]
            sums = self.totals(w)
        w_sum, w_e = sums
        e_mean = w_e / w_sum
        spread = reduce(add, [wk * (ek - e_mean) ** 2 for wk, ek in zip(w, self.e)], 0.0)
        return w_sum, e_mean, spread

    def stirling(self, occ) -> float:
        """stirling_log_multiplicity of one checked occupancy per level."""
        occ = tuple(map(float, occ))
        _check_lengths(occ, len(self.g))
        if not all(map(math.isfinite, occ)) or min(occ) < 0.0:
            raise ConfigError(_OCCUPANCY_RANGE)
        if self.regime is Regime.MONOPOLISTIC:
            n = reduce(add, occ, 0.0)
            try:
                total = math.lgamma(n + 1.0)
            except OverflowError:
                raise ConfigError(_STIRLING_RANGE % n) from None
            for a, g in zip(occ, self.g):
                if a:
                    total += a * math.log(g)
                    total -= a * math.log(a)
                total += a
            if not math.isfinite(total):
                raise ConfigError(_STIRLING_RANGE % n)
            return total
        # x ln x written out per term, with 0 ln 0 = 0
        total = 0.0
        for a, g in zip(occ, self.g):
            b, c = a + g - 1.0, g - 1.0
            total += (
                (b * math.log(b) if b else 0.0)
                - (a * math.log(a) if a else 0.0)
                - (c * math.log(c) if c else 0.0)
            )
        return total


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x ln x elementwise, with 0 ln 0 = 0."""
    return x * np.log(np.maximum(x, 5e-324))


class _ArrayLevels(_FloatLevels):
    """_FloatLevels on numpy float vectors, for grids of ARRAY_MIN_LEVELS or
    more levels.  Each method silences numpy's overflow warning for its own
    call, so that both evaluators overflow to inf without a warning."""

    __slots__ = ("basis",)

    def __init__(self, e: np.ndarray, g: np.ndarray, regime: Regime):
        super().__init__(e, g, regime)
        self.basis = np.stack((np.ones_like(e), e))  # basis @ v = (sum v, sum v e)

    @np.errstate(over="ignore")
    def closed_form(self, alpha: float, beta: float):
        x = alpha + beta * self.e
        if self.regime is Regime.PERFECT:
            if np.minimum.reduce(x) <= 0.0:
                k = int(np.argmin(x))
                raise _wall(k, x[k])
            occ = self.g / np.expm1(x)
            return occ, float(self.g @ np.log1p(occ / self.g))
        occ = self.g * np.exp(-x)
        return occ, float(np.add.reduce(occ))

    @np.errstate(over="ignore")
    def totals(self, v) -> list[float]:
        return (self.basis @ v).tolist()

    @np.errstate(over="ignore")
    def curvature(self, occ, sums) -> tuple[float, float, float]:
        w = occ
        if self.regime is Regime.PERFECT:
            w = occ + occ * (occ / self.g)
            sums = self.totals(w)
        w_sum, w_e = sums
        e_mean = w_e / w_sum
        return w_sum, e_mean, float(w @ (self.e - e_mean) ** 2)

    @np.errstate(over="ignore")
    def stirling(self, occ) -> float:
        occ, g = np.asarray(occ, dtype=float), self.g
        _check_lengths(occ, len(g))
        if not (np.isfinite(occ).all() and occ.min() >= 0.0):
            raise ConfigError(_OCCUPANCY_RANGE)
        if self.regime is Regime.MONOPOLISTIC:
            terms = occ * np.log(g) - _xlogx(occ) + occ
            n = float(np.add.reduce(occ))
            try:
                total = math.lgamma(n + 1.0)
            except OverflowError:
                raise ConfigError(_STIRLING_RANGE % n) from None
            total += float(np.add.reduce(terms))
            if not math.isfinite(total):
                raise ConfigError(_STIRLING_RANGE % n)
            return total
        # a + g - 1 associated as in the float loop
        return float(np.add.reduce(_xlogx(occ + g - 1.0) - _xlogx(occ) - _xlogx(g - 1.0)))


def _evaluator(grid: RevenueGrid, regime: Regime, e0: int = 0, span: int | None = None):
    """The one reader of ARRAY_MIN_LEVELS: _FloatLevels for a grid with fewer
    levels, else _ArrayLevels, on the grid's own levels or, given span, on
    the solver's shifted levels u = (e - e0) / span."""
    if grid.n < ARRAY_MIN_LEVELS:
        e = grid.levels if span is None else [(ek - e0) / span for ek in grid.levels]
        return _FloatLevels(e, grid.degeneracies, regime)
    e, g = grid.vectors
    return _ArrayLevels(e if span is None else (e - e0) / span, g, regime)


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
    relative error against counting.log_multiplicity shrinks like ln(a)/a.
    Refuses a wrong length, any entry that is negative or not finite, and
    a Boltzmann occupancy whose sum is past the float range: from
    N = 2.56e305 on ln N! is, and a little below it a_k ln a_k can be.
    """
    if isinstance(order, EconomicOrder):
        order = order.occupancy
    return _evaluator(grid, regime).stirling(order)


def occupancy(
    alpha: float, beta: float, grid: RevenueGrid, regime: Regime
) -> np.ndarray:
    """Closed-form occupancy a_k = g_k / (exp(alpha + beta e_k) - I)."""
    _finite_multipliers(alpha, beta)
    return np.asarray(_evaluator(grid, regime).closed_form(alpha, beta)[0])


def _anchored(grid: RevenueGrid, config: EconomyConfig):
    """The problem both solvers solve, anchored at the condensing end.

    Raises on an unsolvable economy, or one past the floats the solvers
    work in (N or Pi, or under perfect competition N^2, above the float
    range), and returns the forced occupancy of a boundary-degenerate one.
    Otherwise returns (e_0, span, N, pi_u): the anchor e_0 is the end of
    the grid where x = alpha + beta e is smallest, the lowest level when the
    mean revenue lies below the degeneracy-weighted grid mean, else the
    highest; span = e_far - e_0 (negative when anchored at the top), so
    that u = (e - e_0) / span lies in [0, 1], and pi_u = (Pi - N e_0) / span
    is the target of sum_k a_k u_k.  In x = a + b u the solution has b >= 0.
    """
    if config.total_revenue is None:
        raise ConfigError("economy.Pi: total revenue is required to solve for multipliers")
    top = sys.float_info.max
    for key, value in (("economy.N", config.n_firms), ("economy.Pi", config.total_revenue)):
        if value > top:
            raise ConfigError("%s: above the float range (%g) the solvers work in" % (key, top))
    lo_total = config.n_firms * grid.levels[0]
    hi_total = config.n_firms * grid.levels[-1]
    if not (lo_total <= config.total_revenue <= hi_total):
        raise InfeasibleError(
            "infeasible economy: total revenue %d outside [%d, %d]"
            % (config.total_revenue, lo_total, hi_total)
        )
    if config.total_revenue == lo_total or config.total_revenue == hi_total:
        occ = [0.0] * grid.n
        occ[0 if config.total_revenue == lo_total else -1] = float(config.n_firms)
        return MultiplierSolution(
            alpha=None,
            beta=None,
            occupancy=tuple(occ),
            residual_n=0.0,
            residual_pi=0.0,
            iterations=0,
            converged=True,
            boundary=True,
            method="degenerate",
        )
    if config.regime is Regime.PERFECT and config.n_firms**2 > top:
        # the Hessian weight a + a^2 / g, with a up to N, would overflow
        raise ConfigError(
            "economy.N: perfect competition is solved in floats only up to N = %.3g"
            % math.sqrt(top)
        )
    e0, e_far = grid.levels[0], grid.levels[-1]
    weighted_sum = sum(map(mul, grid.degeneracies, grid.levels))
    if config.total_revenue * grid.total_slots > config.n_firms * weighted_sum:
        e0, e_far = e_far, e0
    span = e_far - e0
    pi_u = (config.total_revenue - config.n_firms * e0) / span
    return e0, span, float(config.n_firms), pi_u


def _bisect(decreasing, lo: float, hi: float, floor: float = 0.0) -> float:
    """Root of a decreasing function bracketed by [lo, hi], to within
    2**-52 of |root| (relative, as both of the oracle's roots can be as small
    as 1/N), once the whole bracket lies within ``floor`` of 0, or once no
    float lies strictly between the ends."""
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo <= 2.0**-52 * abs(mid) or max(-lo, hi) <= floor or mid == lo or mid == hi:
            return mid
        if decreasing(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def solve_multipliers_bisection(grid: RevenueGrid, config: EconomyConfig) -> MultiplierSolution:
    """Nested-bisection oracle for solve_multipliers, on the same anchored
    problem (see _anchored) but with its own Python-scalar occupancy.

    Outer root: the mean sum_k a_k u_k at the firm-count root a(b) is
    decreasing in b, at least pi_u at b = 0 and below it for large b, so b
    is bisected on [0, hi] with hi doubled from 1 until the mean falls below
    pi_u.  Inner root: for mon, a(b) = ln(sum_k g_k e^(-b u_k) / N) in
    closed form; for per, at b >= 0 every term g_k / (e^(a + b u_k) - 1)
    lies between the anchor's own term and g_k / (e^a - 1), so
    [ln(1 + g_anchor / N), ln(1 + sum g / N)] brackets a exactly.  The
    residuals, and so converged, are taken from the raw levels with
    math.fsum against N and Pi, so a fault in the shared anchoring cannot
    hide from the oracle.  iterations counts the outer evaluations.
    """
    anchored = _anchored(grid, config)
    if isinstance(anchored, MultiplierSolution):
        return anchored
    e0, span, n_firms, pi_u = anchored
    u = [(ek - e0) / span for ek in grid.levels]
    g = list(map(float, grid.degeneracies))
    perfect = config.regime is Regime.PERFECT
    # the anchor's degeneracy sits at u = 0: the lowest level, or the top one
    a_lo, a_hi = math.log1p(g[0 if span > 0 else -1] / n_firms), math.log1p(sum(g) / n_firms)

    def occupancy_at(a: float, b: float) -> list[float]:
        if perfect:
            # past x = 700 expm1 overflows, and e^x - 1 == e^x in floats
            return [
                gk / math.expm1(x) if (x := a + b * uk) < 700.0 else gk * math.exp(-x)
                for gk, uk in zip(g, u)
            ]
        return [gk * math.exp(-a - b * uk) for gk, uk in zip(g, u)]

    def firm_root(b: float) -> float:
        if perfect:
            return _bisect(lambda a: sum(occupancy_at(a, b)) - n_firms, a_lo, a_hi)
        return math.log(sum(gk * math.exp(-b * uk) for gk, uk in zip(g, u)) / n_firms)

    evaluations = 0

    def mean_excess(b: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return sum(ak * uk for ak, uk in zip(occupancy_at(firm_root(b), b), u)) - pi_u

    hi = 1.0
    while mean_excess(hi) > 0.0:
        hi *= 2.0
    # a bracket of b within an ulp of a moves no x = a + b u (u <= 1) by more
    # than a rounding, so a root at b = 0 stops there, not in the subnormals
    b = _bisect(mean_excess, 0.0, hi, 2.0**-52 * abs(firm_root(0.0)))
    a = firm_root(b)
    occ = occupancy_at(a, b)
    res_n = math.fsum([*occ, -n_firms])
    res_pi = math.fsum([*(ak * ek for ak, ek in zip(occ, grid.levels)), -config.total_revenue])
    converged = abs(res_n) <= _TOL * n_firms and abs(res_pi) <= _TOL * max(
        1.0, config.total_revenue
    )
    beta = b / span
    return MultiplierSolution(
        alpha=a - beta * e0,
        beta=beta,
        occupancy=tuple(occ),
        residual_n=res_n,
        residual_pi=res_pi,
        iterations=evaluations,
        converged=converged,
        method="bisection",
    )


def solve_multipliers(grid: RevenueGrid, config: EconomyConfig) -> MultiplierSolution:
    """Solve the two-constraint system for (alpha, beta).

    Damped Newton on the dual Phi in the anchored coordinates x = a + b u
    of _anchored.  There the Bose-Einstein domain is a > 0, a + b > 0, a
    is the condensation gap, and close levels stay well conditioned.  Newton
    starts from the exact solution on the grid {u = 0, u = 1} with the same sum g
    and sum g u and with pi_u firms at u = 1, clamped inside the domain.
    Each step backtracks until it stays inside the domain and meets the
    Armijo condition on Phi, up to a few ulps of rounding.  Once the
    residuals are within 1e-10 of N and Pi, one more Newton step is taken to
    settle the last digits.  pinned marks a perfect-competition solve that
    stopped unconverged because no step inside the domain lowered Phi.
    One loop (_newton) runs on the evaluator that _evaluator selects.
    """
    anchored = _anchored(grid, config)
    if isinstance(anchored, MultiplierSolution):
        return anchored
    return _newton(_evaluator(grid, config.regime, *anchored[:2]), anchored, config)


def _newton(levels: _FloatLevels, anchored: tuple, config: EconomyConfig) -> MultiplierSolution:
    """solve_multipliers' damped Newton loop on one evaluator of the
    anchored problem (e_0, span, N, pi_u) of _anchored."""
    e0, span, n_firms, pi_u = anchored
    pi = float(config.total_revenue)
    perfect = config.regime is Regime.PERFECT
    g_total, g_far = levels.totals(levels.g)
    g_near, n_near = g_total - g_far, n_firms - pi_u
    if perfect:
        a = math.log1p(g_near / n_near)
        b = max(math.log1p(g_far / pi_u) - a, -0.5 * a)
    else:
        b = max(math.log(g_far * n_near / (g_near * pi_u)), 0.0)
        # the firm-count constraint has a closed-form root in a at fixed b:
        # N = sum_k g_k e^(-a - b u_k), and sum_k g_k e^(-b u_k) is ln Z at (0, b)
        a = math.log(levels.closed_form(0.0, b)[1] / n_firms)
    # Phi, its slope and its slack are held times 2**-960 from 2**960 firms
    # on, where a*N (a ~ -ln N) would overflow; a power of two scales every
    # product and sum exactly, so the Armijo test decides as unscaled
    scale = 2.0**-960 if n_firms >= 2.0**960 else 1.0
    n_scaled, pi_scaled = n_firms * scale, pi_u * scale
    occ, log_z = levels.closed_form(a, b)
    phi = a * n_scaled + b * pi_scaled + log_z * scale
    steps = 0
    polishing = converged = pinned = False
    while True:
        sums = s_n, s_u = levels.totals(occ)
        res_n = s_n - n_firms
        res_pi = e0 * res_n + span * (s_u - pi_u)
        converged = abs(res_n) <= _TOL * n_firms and abs(res_pi) <= _TOL * pi
        if (converged and polishing) or steps == _MAX_STEPS:
            break
        polishing = converged
        # Hessian sum_k w_k (1, u_k)(1, u_k)^T, factored about the weighted
        # mean of u so that the 2x2 solve never subtracts nearly equal terms
        w_sum, u_mean, spread = levels.curvature(occ, sums)
        grad_a, grad_b = -res_n, pi_u - s_u  # gradient of Phi
        step_b = -(grad_b - u_mean * grad_a) / spread
        step_a = -grad_a / w_sum - u_mean * step_b
        slope = grad_a * scale * step_a + grad_b * scale * step_b
        slack = 4 * _EPS * (abs(a) * n_scaled + abs(b * pi_scaled) + abs(log_z * scale))
        t = 1.0
        while t >= _MIN_STEP:
            try:
                occ_t, log_z_t = levels.closed_form(a + t * step_a, b + t * step_b)
            except SingularityError:
                t *= 0.5
                continue
            phi_t = (a + t * step_a) * n_scaled + (b + t * step_b) * pi_scaled + log_z_t * scale
            if phi_t <= phi + _ARMIJO * t * slope + slack:
                break
            t *= 0.5
        else:
            pinned = perfect and not converged
            break
        a, b = a + t * step_a, b + t * step_b
        occ, log_z, phi = occ_t, log_z_t, phi_t
        steps += 1

    beta = b / span
    return MultiplierSolution(
        alpha=a - beta * e0,
        beta=beta,
        occupancy=tuple(occ if isinstance(occ, list) else occ.tolist()),
        residual_n=res_n,
        residual_pi=res_pi,
        iterations=steps,
        converged=converged,
        pinned=pinned,
        method="newton",
    )


def detect_condensation(
    solution: MultiplierSolution,
    grid: RevenueGrid,
    config: EconomyConfig,
    fraction_threshold: float = 0.5,
    gap_threshold: float = 1e-6,
) -> CondensationReport:
    """Flag Bose-Einstein condensation: pile-up or vanishing gap at the
    condensing end, the level where x = alpha + beta * e is smallest (the top
    level when beta < 0, else level 0, also for degenerate solutions).

    Monopolistic economies have no singularity and are never condensed.
    """
    k = -1 if solution.beta is not None and solution.beta < 0 else 0
    ground_fraction = solution.occupancy[k] / config.n_firms
    if solution.alpha is None or solution.beta is None:
        gap = math.nan
    else:
        gap = solution.alpha + solution.beta * grid.levels[k]
    if config.regime is Regime.MONOPOLISTIC:
        condensed = False
    else:
        condensed = ground_fraction >= fraction_threshold or (
            math.isfinite(gap) and gap <= gap_threshold
        )
    return CondensationReport(
        condensed=condensed,
        ground_fraction=ground_fraction,
        gap=gap,
        fraction_threshold=fraction_threshold,
        gap_threshold=gap_threshold,
    )
