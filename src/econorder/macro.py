"""Bridge between the occupancy multipliers and neoclassical macro quantities.

The multipliers map to the marginal labor-capital return mu and the marginal
technology return theta through a positive scale constant lambda:

    alpha = -mu / (lambda * theta),    beta = 1 / (lambda * theta),

so the occupancy can be written a_k = g_k / (exp((e_k - mu)/(lambda*theta)) - I)
and the technology level is proportional to the log of the economy's degree of
freedom: T = lambda * ln(Omega).

log_W is the generating function whose alpha/beta derivatives reproduce the
firm count and total revenue.  Its sign convention is measured rather than
assumed: entropy_identity_residual evaluates the identity between the Stirling
entropy and (ln W - alpha dlnW/dalpha - beta dlnW/dbeta) under both signs and
reports whichever matches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Regime, RevenueGrid
from .counting import stirling_log_multiplicity
from .errors import ConfigError
from .maxent import _closed_form, _grid_arrays, occupancy


@dataclass(frozen=True)
class MacroParams:
    """Marginal returns and scale constant; technology level is derived."""

    mu: float
    theta: float
    lam: float = 1.0
    technology: float | None = None

    def __post_init__(self):
        if not (self.lam > 0):
            raise ConfigError("macro.lambda: must be positive")
        if self.theta == 0:
            raise ConfigError("macro.theta: must be nonzero for invertibility")


def macro_production(
    labor: float, capital: float, technology: float, x: float, y: float, z: float
) -> float:
    """Aggregate revenue L^x * K^y * T^z."""
    if labor <= 0 or capital <= 0 or technology <= 0:
        raise ConfigError("macro production inputs must be positive")
    return labor**x * capital**y * technology**z


def multipliers_from_macro(params: MacroParams) -> tuple[float, float]:
    """(alpha, beta) implied by (mu, theta, lambda)."""
    lt = params.lam * params.theta
    return -params.mu / lt, 1.0 / lt


def macro_from_multipliers(alpha: float, beta: float, lam: float = 1.0) -> MacroParams:
    """(mu, theta) implied by the multipliers at a given scale constant."""
    if beta == 0:
        raise ConfigError("beta must be nonzero to recover macro parameters")
    if not (lam > 0):
        raise ConfigError("macro.lambda: must be positive")
    return MacroParams(mu=-alpha / beta, theta=1.0 / (lam * beta), lam=lam)


def occupancy_from_macro(
    params: MacroParams, grid: RevenueGrid, regime: Regime
) -> np.ndarray:
    """Occupancy a_k = g_k / (exp((e_k - mu)/(lambda*theta)) - I).

    The multiplier form evaluated at the mapped multipliers.  For perfect
    competition every exponent must be positive; a level at or below mu is
    the crisis singularity and raises SingularityError.
    """
    return occupancy(*multipliers_from_macro(params), grid, regime)


def log_W(alpha: float, beta: float, grid: RevenueGrid, regime: Regime) -> float:
    """Level-wise generating function, ln W = -ln Z.

    Perfect competition: sum_k g_k ln(1 - exp(-(alpha + beta e_k))), defined
    for alpha + beta e_k > 0.  Monopolistic competition is the indicator -> 0
    limit of (1 - I exp(-x))^(g/I), giving -sum_k g_k exp(-(alpha + beta e_k)).
    """
    return -_closed_form(alpha, beta, *_grid_arrays(grid), regime)[1]


def log_W_gradient(
    alpha: float, beta: float, grid: RevenueGrid, regime: Regime
) -> tuple[float, float]:
    """Analytic (d lnW / d alpha, d lnW / d beta).

    In both regimes the gradient equals (sum a_k, sum a_k e_k) evaluated at
    the closed-form occupancy, which is how the generating function encodes
    the two constraints.
    """
    occ = occupancy(alpha, beta, grid, regime)
    e = np.asarray(grid.levels, dtype=float)
    return float(occ.sum()), float((occ * e).sum())


@dataclass(frozen=True)
class IdentityReport:
    """Measured residual of the entropy identity, under the better sign.

    residual = entropy - best_sign * expression, where expression is
    lnW - alpha dlnW/dalpha - beta dlnW/dbeta.  grad_* fields carry the
    analytic derivatives and their central finite-difference cross-checks.
    """

    residual: float
    best_sign: int
    entropy: float
    expression: float
    residual_positive: float
    residual_negative: float
    grad_alpha: float
    grad_beta: float
    grad_alpha_fd: float
    grad_beta_fd: float


def entropy_identity_residual(
    alpha: float,
    beta: float,
    grid: RevenueGrid,
    regime: Regime,
    fd_step: float = 1e-6,
) -> IdentityReport:
    """Compare the Stirling entropy of the closed-form occupancy against the
    generating-function expression, for both sign conventions."""
    occ = occupancy(alpha, beta, grid, regime)
    entropy = stirling_log_multiplicity(tuple(float(a) for a in occ), grid, regime)
    lw = log_W(alpha, beta, grid, regime)
    grad_a, grad_b = log_W_gradient(alpha, beta, grid, regime)
    ha = fd_step * max(1.0, abs(alpha))
    hb = fd_step * max(1.0, abs(beta))
    if regime is Regime.PERFECT:
        # both central differences must stay inside the domain x_k > 0;
        # the smallest exponent is ln(1 + g_k / a_k) at the largest a_k / g_k
        x_min = math.log1p(float(np.min(np.asarray(grid.degeneracies) / occ)))
        ha = min(ha, fd_step * x_min)
        hb = min(hb, fd_step * x_min / max(1, grid.levels[-1]))
    grad_a_fd = (log_W(alpha + ha, beta, grid, regime) - log_W(alpha - ha, beta, grid, regime)) / (2 * ha)
    grad_b_fd = (log_W(alpha, beta + hb, grid, regime) - log_W(alpha, beta - hb, grid, regime)) / (2 * hb)
    expression = lw - alpha * grad_a - beta * grad_b
    residual_positive = entropy - expression
    residual_negative = entropy + expression
    if abs(residual_positive) <= abs(residual_negative):
        best_sign, residual = 1, residual_positive
    else:
        best_sign, residual = -1, residual_negative
    return IdentityReport(
        residual=residual,
        best_sign=best_sign,
        entropy=entropy,
        expression=expression,
        residual_positive=residual_positive,
        residual_negative=residual_negative,
        grad_alpha=grad_a,
        grad_beta=grad_b,
        grad_alpha_fd=grad_a_fd,
        grad_beta_fd=grad_b_fd,
    )


def technology(log_omega: float, lam: float = 1.0) -> float:
    """Technology level implied by the degree of freedom: T = lambda * ln(Omega)."""
    if not (lam > 0):
        raise ConfigError("macro.lambda: must be positive")
    return lam * log_omega
