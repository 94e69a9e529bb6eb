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
definite on any grid with two or more levels.  solve_multipliers runs damped
Newton on Phi with a backtracking Armijo line search, which converges
globally on a strictly convex objective (Boyd & Vandenberghe, Convex
Optimization, 2004, sec. 9.5).

solve_multipliers_bisection is an independent oracle, used only by checks
and tests: the firm count is strictly decreasing in alpha at fixed beta, and
the constrained mean revenue is strictly decreasing in beta, so nested
bisection brackets both roots.

Near perfect competition the Bose-Einstein denominator can approach zero at
the condensing end of the grid; detect_condensation flags that crisis regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import EconomyConfig, Regime, RevenueGrid
from .errors import ConfigError, InfeasibleError, SingularityError

_EPS = float(np.finfo(float).eps)


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


def _closed_form(
    alpha: float, beta: float, e: np.ndarray, g: np.ndarray, regime: Regime
) -> tuple[np.ndarray, float]:
    """Occupancy and ln Z at x = alpha + beta * e.

    The one place that evaluates x and guards the Bose-Einstein wall:
    raises SingularityError when some x_k <= 0 under perfect competition.
    Bose-Einstein ln Z uses 1 / (1 - exp(-x)) = 1 + a / g.
    """
    x = alpha + beta * e
    with np.errstate(over="ignore"):
        if regime is Regime.PERFECT:
            if x.min() <= 0.0:
                k = int(np.argmin(x))
                raise SingularityError(
                    "Bose-Einstein occupancy undefined at level %d: "
                    "alpha + beta*e = %g <= 0" % (k, x[k]),
                    level_index=k,
                )
            occ = g / np.expm1(x)
            return occ, float(g @ np.log1p(occ / g))
        occ = g * np.exp(-x)
    return occ, float(occ.sum())


def _grid_arrays(grid: RevenueGrid) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.asarray(grid.levels, dtype=float),
        np.asarray(grid.degeneracies, dtype=float),
    )


def occupancy(
    alpha: float, beta: float, grid: RevenueGrid, regime: Regime
) -> np.ndarray:
    """Closed-form occupancy a_k = g_k / (exp(alpha + beta e_k) - I)."""
    return _closed_form(alpha, beta, *_grid_arrays(grid), regime)[0]


def _bose(g: float, x: float) -> float:
    # g / (e^x - 1); past x = 700 expm1 overflows, and e^x - 1 == e^x in floats
    return g / math.expm1(x) if x < 700.0 else g * math.exp(-x)


def _occ_scaled(indicator: int, g: Sequence[float], e: Sequence[float], alpha: float, beta: float) -> list[float]:
    # python-scalar evaluation; used by the bisection paths where n is small
    if indicator:
        return [_bose(gi, alpha + beta * ei) for gi, ei in zip(g, e)]
    return [gi * math.exp(-alpha - beta * ei) for gi, ei in zip(g, e)]


def _alpha_for_beta(
    indicator: int,
    g: Sequence[float],
    e: Sequence[float],
    n_firms: float,
    beta: float,
    inner_iters: int = 110,
) -> float:
    """Solve sum_k a_k(alpha, beta) = N for alpha at fixed beta."""
    if indicator == 0:
        # closed form via a stable log-sum-exp
        shift = max(-beta * ei for ei in e)
        acc = sum(gi * math.exp(-beta * ei - shift) for gi, ei in zip(g, e))
        return shift + math.log(acc) - math.log(n_firms)
    wall = max(-beta * ei for ei in e)

    def excess(offset: float) -> float:
        alpha = wall + offset
        return sum(_bose(gi, alpha + beta * ei) for gi, ei in zip(g, e)) - n_firms

    lo = 1.0
    while excess(lo) < 0.0:
        lo /= 16.0
        if lo < 1e-300:
            break
    hi = max(2.0 * lo, 1.0)
    while excess(hi) > 0.0:
        hi *= 4.0
        if hi > 1e300:
            break
    for _ in range(inner_iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return wall + 0.5 * (lo + hi)


def solve_multipliers_bisection(
    grid: RevenueGrid,
    config: EconomyConfig,
    tol: float = 1e-14,
    max_iters: int = 200,
) -> MultiplierSolution:
    """Nested-bisection solve: outer on beta (mean revenue is decreasing in
    beta at fixed firm count), inner on alpha (firm count is decreasing in
    alpha at fixed beta).  Slow but bracketing-safe; serves as the oracle
    for the Newton path.  It works in the levels' offsets from the lowest
    level, so that revenue above the ground state, not the whole of Pi,
    decides each bisection step.
    """
    prepared = _prepare(grid, config)
    if isinstance(prepared, MultiplierSolution):
        return prepared
    indicator, g, e, n_firms, pi_scaled, scale = prepared

    def mean_excess(beta: float) -> float:
        alpha = _alpha_for_beta(indicator, g, e, n_firms, beta)
        occ = _occ_scaled(indicator, g, e, alpha, beta)
        return sum(a * ei for a, ei in zip(occ, e)) - pi_scaled

    h0 = mean_excess(0.0)
    iters = 1
    if h0 > 0.0:
        lo, hi = 0.0, 1.0
        while mean_excess(hi) > 0.0 and hi < 1e18:
            hi *= 2.0
            iters += 1
    elif h0 < 0.0:
        lo, hi = -1.0, 0.0
        while mean_excess(lo) < 0.0 and lo > -1e18:
            lo *= 2.0
            iters += 1
    else:
        lo = hi = 0.0
    for _ in range(max_iters):
        if hi - lo <= tol * max(1.0, abs(lo), abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        iters += 1
        if mean_excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    beta_s = 0.5 * (lo + hi)
    alpha = _alpha_for_beta(indicator, g, e, n_firms, beta_s)
    occ = _occ_scaled(indicator, g, e, alpha, beta_s)
    res_n = sum(occ) - n_firms
    e0 = grid.levels[0]
    res_pi = (sum(a * ei for a, ei in zip(occ, e)) - pi_scaled) * scale + e0 * res_n
    converged = abs(res_n) <= 1e-10 * n_firms and abs(res_pi) <= 1e-10 * max(
        1.0, config.total_revenue
    )
    beta = beta_s / scale
    return MultiplierSolution(
        alpha=alpha - beta * e0,
        beta=beta,
        occupancy=tuple(occ),
        residual_n=res_n,
        residual_pi=res_pi,
        iterations=iters,
        converged=converged,
        method="bisection",
    )


def _boundary_solution(
    grid: RevenueGrid, config: EconomyConfig
) -> MultiplierSolution | None:
    """Shared feasibility handling: raises on an unsolvable economy, returns
    the forced occupancy of a boundary-degenerate one, else None."""
    if config.total_revenue is None:
        raise ConfigError("economy.Pi: total revenue is required to solve for multipliers")
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
    return None


def _prepare(grid: RevenueGrid, config: EconomyConfig):
    """Degenerate solution, or the scaled problem data for bisection
    (indicator, g, e, N, Pi_scaled, scale): e_k = (e_k - e_0) / scale in
    [0, 1] and Pi_scaled = (Pi - N e_0) / scale, with scale = e_max - e_0."""
    degenerate = _boundary_solution(grid, config)
    if degenerate is not None:
        return degenerate
    e0 = grid.levels[0]
    scale = float(grid.levels[-1] - e0)
    e = [(ei - e0) / scale for ei in grid.levels]
    g = [float(gi) for gi in grid.degeneracies]
    pi_scaled = (config.total_revenue - config.n_firms * e0) / scale
    return int(config.regime), g, e, float(config.n_firms), pi_scaled, scale


_TOL = 1e-10  # residuals relative to N and Pi
_MAX_STEPS = 100
_MIN_STEP = 2.0**-50
_ARMIJO = 1e-4


def solve_multipliers(grid: RevenueGrid, config: EconomyConfig) -> MultiplierSolution:
    """Solve the two-constraint system for (alpha, beta).

    Damped Newton on the dual Phi in shifted coordinates x = a + b u with
    u = (e - e_0) / (e_far - e_0) in [0, 1].  The anchor e_0 is the end of
    the grid where x is smallest: the lowest level when the mean revenue
    lies below the degeneracy-weighted grid mean (beta > 0), else the
    highest.  Then the Bose-Einstein domain is a > 0, a + b > 0, a is the
    condensation gap, and close levels stay well conditioned.  Each step
    backtracks until it stays inside the domain and meets the Armijo
    condition on Phi, up to a few ulps of rounding.  Once the residuals are
    within 1e-10 of N and Pi, one more Newton step is taken to settle the
    last digits.  pinned marks a perfect-competition solve that stopped
    unconverged because no step inside the domain lowered Phi.
    """
    degenerate = _boundary_solution(grid, config)
    if degenerate is not None:
        return degenerate
    e, g = _grid_arrays(grid)
    e0, e_far = grid.levels[0], grid.levels[-1]
    weighted_sum = sum(gk * ek for gk, ek in zip(grid.degeneracies, grid.levels))
    if config.total_revenue * grid.total_slots > config.n_firms * weighted_sum:
        e0, e_far = e_far, e0
    span = e_far - e0
    u = (e - e0) / span
    n_firms, pi = float(config.n_firms), float(config.total_revenue)
    pi_u = (config.total_revenue - config.n_firms * e0) / span  # target of sum a_k u_k
    regime = config.regime
    perfect = regime is Regime.PERFECT

    # at b = 0 the firm-count constraint has a closed-form root in a
    a = math.log1p(g.sum() / n_firms) if perfect else math.log(g.sum() / n_firms)
    b = 0.0
    occ, log_z = _closed_form(a, b, u, g, regime)
    phi = a * n_firms + b * pi_u + log_z
    steps = 0
    polishing = converged = pinned = False
    while True:
        s_u = float(occ @ u)
        res_n = float(occ.sum()) - n_firms
        res_pi = e0 * res_n + span * (s_u - pi_u)
        converged = abs(res_n) <= _TOL * n_firms and abs(res_pi) <= _TOL * pi
        if (converged and polishing) or steps == _MAX_STEPS:
            break
        polishing = converged
        # Hessian sum_k w_k (1, u_k)(1, u_k)^T, factored about the weighted
        # mean of u so that the 2x2 solve never subtracts nearly equal terms
        w = occ + occ * (occ / g) if perfect else occ
        w_sum = float(w.sum())
        u_mean = float(w @ u) / w_sum
        spread = float(w @ (u - u_mean) ** 2)
        grad_a, grad_b = -res_n, pi_u - s_u  # gradient of Phi
        step_b = -(grad_b - u_mean * grad_a) / spread
        step_a = -grad_a / w_sum - u_mean * step_b
        slope = grad_a * step_a + grad_b * step_b
        slack = 4 * _EPS * (abs(a) * n_firms + abs(b * pi_u) + abs(log_z))
        t = 1.0
        while t >= _MIN_STEP:
            try:
                occ_t, log_z_t = _closed_form(a + t * step_a, b + t * step_b, u, g, regime)
            except SingularityError:
                t *= 0.5
                continue
            phi_t = (a + t * step_a) * n_firms + (b + t * step_b) * pi_u + log_z_t
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
        occupancy=tuple(float(x) for x in occ),
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
