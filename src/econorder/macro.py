"""Bridge between the occupancy multipliers and neoclassical macro quantities.

The multipliers map to the marginal labor-capital return mu and the marginal
technology return theta through a positive scale constant lambda:

    alpha = -mu / (lambda * theta),    beta = 1 / (lambda * theta),

so the occupancy a_k = g_k / (exp((e_k - mu)/(lambda*theta)) - I) is
maxent.occupancy at multipliers_from_macro(params), and the technology level
is proportional to the log of the economy's degree of freedom:
T = lambda * ln(Omega).

log_W is the generating function whose alpha/beta derivatives reproduce the
firm count and total revenue; entropy_identity_residual reports them as
grad_alpha and grad_beta, and check holds them to finite differences of log_W.
Its sign convention is measured rather than assumed: the identity between the
Stirling entropy and (ln W - alpha dlnW/dalpha - beta dlnW/dbeta) is evaluated
under both signs and whichever matches is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Regime, RevenueGrid
from .errors import ConfigError
from .maxent import _evaluator, _finite_multipliers


@dataclass(frozen=True)
class MacroParams:
    """Marginal returns and scale constant; technology level is derived."""

    mu: float
    theta: float
    lam: float = 1.0

    def __post_init__(self):
        if not (0 < self.lam < math.inf):
            raise ConfigError("macro.lambda: must be positive and finite")
        if self.theta == 0:
            raise ConfigError("macro.theta: must be nonzero for invertibility")
        # an infinite or NaN theta or mu has no JSON form
        if not math.isfinite(self.theta):
            raise ConfigError("macro.theta: must be finite, got %s" % self.theta)
        if not math.isfinite(self.mu):
            raise ConfigError("macro.mu: must be finite, got %s" % self.mu)


def multipliers_from_macro(params: MacroParams) -> tuple[float, float]:
    """(alpha, beta) implied by (mu, theta, lambda)."""
    lt = params.lam * params.theta
    return -params.mu / lt, 1.0 / lt


def macro_from_multipliers(alpha: float, beta: float, lam: float = 1.0) -> MacroParams:
    """(mu, theta) implied by the multipliers at a given scale constant."""
    if beta == 0:
        raise ConfigError("beta must be nonzero to recover macro parameters")
    if not (0 < lam < math.inf):
        raise ConfigError("macro.lambda: must be positive and finite")
    return MacroParams(mu=-alpha / beta, theta=1.0 / (lam * beta), lam=lam)


def log_W(alpha: float, beta: float, grid: RevenueGrid, regime: Regime) -> float:
    """Level-wise generating function, ln W = -ln Z.

    Perfect competition: sum_k g_k ln(1 - exp(-(alpha + beta e_k))), defined
    for alpha + beta e_k > 0.  Monopolistic competition is the indicator -> 0
    limit of (1 - I exp(-x))^(g/I), giving -sum_k g_k exp(-(alpha + beta e_k)).
    """
    _finite_multipliers(alpha, beta)
    return -_evaluator(grid, regime).closed_form(alpha, beta)[1]


@dataclass(frozen=True)
class IdentityReport:
    """Measured residual of the entropy identity, under the better sign.

    residual = entropy - best_sign * expression, where expression is
    lnW - alpha dlnW/dalpha - beta dlnW/dbeta.  grad_alpha and grad_beta
    are those analytic derivatives, (sum a_k, sum a_k e_k).
    """

    residual: float
    best_sign: int
    entropy: float
    expression: float
    grad_alpha: float
    grad_beta: float


def entropy_identity_residual(
    alpha: float, beta: float, grid: RevenueGrid, regime: Regime
) -> IdentityReport:
    """Compare the Stirling entropy of the closed-form occupancy against the
    generating-function expression, for both sign conventions.

    Evaluated at (alpha, beta) only, on the evaluator maxent._evaluator
    selects: its closed form gives the occupancy, its Stirling sum the
    entropy and its totals the analytic gradient (sum a_k, sum a_k e_k),
    and one log_W call gives ln W.  Refuses multipliers at which the
    occupancy overflows, where the entropy is undefined.
    """
    _finite_multipliers(alpha, beta)
    levels = _evaluator(grid, regime)
    occ, log_z = levels.closed_form(alpha, beta)
    if math.isinf(log_z):
        raise ConfigError(
            "occupancy overflows at alpha = %s, beta = %s: no finite entropy" % (alpha, beta)
        )
    entropy = levels.stirling(occ)
    lw = log_W(alpha, beta, grid, regime)
    grad_a, grad_b = levels.totals(occ)
    expression = lw - alpha * grad_a - beta * grad_b
    best_sign = 1 if abs(entropy - expression) <= abs(entropy + expression) else -1
    residual = entropy - best_sign * expression
    return IdentityReport(residual, best_sign, entropy, expression, grad_a, grad_b)


def technology(log_omega: float, lam: float = 1.0) -> float:
    """Technology level implied by the degree of freedom: T = lambda * ln(Omega)."""
    if not (0 < lam < math.inf):
        raise ConfigError("macro.lambda: must be positive and finite")
    return lam * log_omega
