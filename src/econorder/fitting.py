"""Fit revenue or income samples to the two candidate occupancy laws.

Monopolistic competition predicts an exponential (Boltzmann) body; perfect
competition predicts a Bose-Einstein shape whose denominator can approach
zero near the sample minimum (the crisis regime).  The exponential fit is
closed-form maximum likelihood on the truncated body; the Bose-Einstein fit
is least squares of histogram counts against the occupancy curve evaluated
at bin centers, with the location constrained below the first populated bin.
Both report a one-sample Kolmogorov-Smirnov statistic against the implied
continuous distribution on the observed support; ``goodness_of_fit`` reads
that statistic back instead of testing the samples again.

Real income data carries a Pareto tail outside these laws, so fits truncate
a configurable top quantile (default 3 percent) before estimating.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, EconOrderError

KS_LEVEL = 0.01  # significance level of the goodness-of-fit verdict


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Finite non-negative revenue/income observations with a provenance note;
    ``values`` is a read-only 1-D float64 copy of what the set is built from."""

    values: np.ndarray
    source: str = ""

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if values.size == 0:
            raise ConfigError("samples: no samples")
        if values.ndim != 1:
            raise ConfigError("samples: expected a one-dimensional sequence")
        if not np.isfinite(values).all():
            raise ConfigError("samples: non-finite value rejected")
        if (values < 0).any():
            raise ConfigError("samples: negative value rejected")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class FitResult:
    model: str  # "boltzmann" | "bose_einstein"
    parameters: dict
    ks_statistic: float
    log_likelihood: float | None
    n_used: int
    support: tuple[float, float]
    converged: bool = True


@dataclass(frozen=True)
class GoodnessReport:
    critical_value: float
    passed: bool


def load_samples(path: str | Path) -> SampleSet:
    """Read samples from CSV: one value per row, or value,count rows.

    The first data row decides which: two cells mean value,count rows.
    Counts expand into repeated values.  Malformed rows raise with their
    line number.
    """
    path = Path(path)
    name = path.name
    values: list[float] = []
    width = 0  # cells per row, set by the first data row
    with path.open(newline="") as handle:
        for lineno, row in enumerate(csv.reader(handle), start=1):
            cells = [c for c in map(str.strip, row) if c]
            if not cells:
                continue
            width = width or (2 if len(cells) == 2 else 1)
            try:
                value = float(cells[0])
            except ValueError:
                raise ConfigError(f"{name}:{lineno}: cannot parse value {cells[0]!r}") from None
            if not math.isfinite(value):
                raise ConfigError(f"{name}:{lineno}: non-finite value rejected")
            if value < 0:
                raise ConfigError(f"{name}:{lineno}: negative value rejected")
            if len(cells) != width:
                expected = f"one column, got {len(cells)}" if width == 1 else "value,count columns"
                raise ConfigError(f"{name}:{lineno}: expected {expected}")
            if width == 1:
                values.append(value)
                continue
            try:
                count = int(cells[1])
            except ValueError:
                raise ConfigError(f"{name}:{lineno}: cannot parse count {cells[1]!r}") from None
            if count < 1:
                raise ConfigError(f"{name}:{lineno}: count must be >= 1")
            values.extend([value] * count)
    if not values:
        raise ConfigError(f"{name}: no samples")
    return SampleSet(values, source=str(path))


def _truncate_tail(values: np.ndarray, tail_quantile: float) -> np.ndarray:
    if not (0.0 <= tail_quantile <= 0.2):
        raise ConfigError("tail_quantile must lie in [0, 0.2]")
    ordered = np.sort(values)
    drop = int(round(tail_quantile * len(ordered)))
    return ordered[: len(ordered) - drop] if drop else ordered


def _histogram(kept: np.ndarray, bins: int):
    """Counts of ``bins`` equal cells spanning the retained body, their
    centers, and the cell width."""
    counts, edges = np.histogram(kept, bins=bins, range=(kept.min(), kept.max()))
    return counts, 0.5 * (edges[:-1] + edges[1:]), edges[1] - edges[0]


def fit_boltzmann(samples: SampleSet, tail_quantile: float = 0.03) -> FitResult:
    """Maximum-likelihood exponential fit on the retained body.

    Location is the sample minimum and the effective temperature is the mean
    excess over it.  Degenerate samples (zero variance) have no temperature.
    """
    from scipy import stats  # scipy loads only when a fit runs
    kept = _truncate_tail(samples.values, tail_quantile)
    if len(kept) < 10:
        raise ConfigError("boltzmann fit requires at least 10 samples after truncation")
    mu = float(kept.min())
    t_eff = float(np.mean(kept - mu))
    if t_eff <= 0.0:
        raise EconOrderError("zero temperature: all retained samples are equal")
    # the statistic only: "asymp" skips the exact p-value, not the distance
    cdf = stats.expon(loc=mu, scale=t_eff).cdf
    ks = float(stats.kstest(kept, cdf, method="asymp").statistic)
    n_used = int(len(kept))
    loglik = -n_used * (math.log(t_eff) + 1.0)
    return FitResult(
        model="boltzmann",
        parameters={"mu": mu, "t_eff": t_eff},
        ks_statistic=ks,
        log_likelihood=loglik,
        n_used=n_used,
        support=(mu, math.inf),
    )


def _bose_einstein_curve(x, mu: float, scale: float, c: float):
    """The occupancy law c / (exp((x - mu) / s) - 1)."""
    return c / np.expm1((x - mu) / scale)


def _bose_einstein_antiderivative(x, mu: float, scale: float):
    """-s ln(1 - exp(-(x - mu) / s)): a decreasing antiderivative of the
    occupancy law with c = 1, on x > mu."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return -scale * np.log1p(-np.exp(-(x - mu) / scale))


def _bose_einstein_cdf(mu: float, scale: float, lo: float, hi: float):
    """CDF of the normalised density 1/(exp((x-mu)/s)-1) on [lo, hi].

    The density diverges (integrably) at mu, so the support floor is nudged
    strictly above mu.
    """
    lo = max(lo, mu + 1e-9 * max(hi - mu, 1.0))
    top = _bose_einstein_antiderivative(lo, mu, scale)
    bottom = _bose_einstein_antiderivative(hi, mu, scale)

    def cdf(x):
        x = np.clip(x, lo, hi)
        return (top - _bose_einstein_antiderivative(x, mu, scale)) / (top - bottom)

    return cdf


def fit_bose_einstein(
    samples: SampleSet, bins: int = 50, tail_quantile: float = 0.03
) -> FitResult:
    """Binned least-squares fit of c/(exp((e-mu)/s)-1) at bin centers.

    The level degeneracy is not separately identifiable from binned counts
    and is absorbed into the overall scale c.  The location mu is constrained
    below the first populated bin center.  A failed optimisation is reported
    as non-convergence, never as a fabricated fit.
    """
    from scipy import optimize, stats
    if len(samples) < 100:
        raise ConfigError("bose-einstein fit requires at least 100 samples")
    if bins < 5:
        raise ConfigError("bose-einstein fit requires at least 5 bins")
    kept = _truncate_tail(samples.values, tail_quantile)
    counts, centers, width = _histogram(kept, bins)
    populated = counts > 0
    c_obs = counts[populated].astype(float)
    x_obs = centers[populated]
    mu_ceiling = float(x_obs.min()) - 1e-9 * max(1.0, abs(float(x_obs.min())))

    def residuals(theta):
        mu, log_s, log_c = theta
        return _bose_einstein_curve(x_obs, mu, np.exp(log_s), np.exp(log_c)) - c_obs

    start = np.array(
        [float(x_obs.min()) - 0.5 * width - 1e-6,
         math.log(float(kept.std()) + 1.0),
         math.log(float(c_obs.max()))]
    )
    result = optimize.least_squares(
        residuals,
        start,
        bounds=([-np.inf, -12.0, -12.0], [mu_ceiling, 40.0, 40.0]),
    )
    mu_hat = float(result.x[0])
    s_hat = float(math.exp(result.x[1]))
    c_hat = float(math.exp(result.x[2]))
    converged = bool(result.success) and bool(np.all(np.isfinite(result.x)))
    lo = float(kept.min())
    hi = float(kept.max())
    if converged and hi > max(lo, mu_hat):
        cdf = _bose_einstein_cdf(mu_hat, s_hat, lo, hi)
        ks = float(stats.kstest(kept, cdf, method="asymp").statistic)
    else:
        ks = math.nan
        converged = False
    return FitResult(
        model="bose_einstein",
        parameters={"mu": mu_hat, "lambda_theta": s_hat, "scale": c_hat},
        ks_statistic=ks,
        log_likelihood=None,
        n_used=int(len(kept)),
        support=(lo, hi),
        converged=converged,
    )


def ks_critical_value(n: int) -> float:
    """Two-sided one-sample KS critical value at KS_LEVEL; exact for small n."""
    from scipy import stats
    if n < 1:
        raise ConfigError("KS critical value requires n >= 1")
    if n <= 40:
        return float(stats.kstwo.ppf(1.0 - KS_LEVEL, n))
    return math.sqrt(-0.5 * math.log(KS_LEVEL / 2.0)) / math.sqrt(n)


def goodness_of_fit(fit: FitResult) -> GoodnessReport:
    """The fit's KS statistic against the critical value at KS_LEVEL.

    The fit measured the statistic on the body it describes, its ``n_used``
    retained samples, so nothing is truncated or tested again.  A fit that
    did not converge carries a NaN statistic and never passes.
    """
    critical = ks_critical_value(fit.n_used)
    return GoodnessReport(critical_value=critical, passed=fit.ks_statistic < critical)


def binned_fit_rows(
    samples: SampleSet, boltzmann: FitResult, bose: FitResult | None, bins: int
) -> list[dict]:
    """Counts of the body the exponential fit kept (its ``n_used`` smallest
    samples) in ``bins`` cells, beside each law's expected counts at the cell
    centers; the Bose-Einstein column is NaN without that fit."""
    kept = np.sort(samples.values)[: boltzmann.n_used]
    counts, centers, width = _histogram(kept, bins)
    mu_b, t_b = boltzmann.parameters["mu"], boltzmann.parameters["t_eff"]
    fitted_b = len(kept) * width / t_b * np.exp(-(np.maximum(centers - mu_b, 0.0)) / t_b)
    if bose is None:
        fitted_e = np.full_like(centers, math.nan)
    else:
        p = bose.parameters
        fitted_e = _bose_einstein_curve(centers, p["mu"], p["lambda_theta"], p["scale"])
    return [
        {
            "bin_center": float(c),
            "observed_count": int(o),
            "fitted_boltzmann": float(fb),
            "fitted_bose_einstein": float(fe),
        }
        for c, o, fb, fe in zip(centers, counts, fitted_b, fitted_e)
    ]


def synthetic_exponential(
    n: int, t_eff: float, mu: float = 0.0, seed: int = 0
) -> SampleSet:
    """Exponential body with known parameters, for estimator studies."""
    rng = np.random.default_rng(seed)
    return SampleSet(mu + rng.exponential(scale=t_eff, size=n), source="synthetic exponential")


def synthetic_bose_einstein(
    n: int,
    levels: np.ndarray | list,
    mu: float,
    lambda_theta: float,
    seed: int = 0,
    mode: str = "bin_weights",
) -> SampleSet:
    """Samples following the Bose-Einstein occupancy over a revenue ladder.

    mode "bin_weights" draws a level with probability proportional to its
    occupancy and spreads the draw uniformly over the level's cell, treating
    each level as a histogram bin representative.  mode "continuous" inverts
    the closed-form CDF of the continuous law on [min level, max level].
    """
    levels = np.asarray(levels, dtype=float)
    if np.any(levels <= mu):
        raise ConfigError("synthetic BE samples need every level above mu")
    rng = np.random.default_rng(seed)
    if mode == "bin_weights":
        weights = _bose_einstein_curve(levels, mu, lambda_theta, 1.0)
        prob = weights / weights.sum()
        cell = float(np.min(np.diff(levels))) if len(levels) > 1 else 1.0
        drawn = rng.choice(levels, size=n, p=prob)
        values = drawn + rng.uniform(-0.5 * cell, 0.5 * cell, size=n)
    elif mode == "continuous":
        top = _bose_einstein_antiderivative(float(levels.min()), mu, lambda_theta)
        bottom = _bose_einstein_antiderivative(float(levels.max()), mu, lambda_theta)
        t = top - rng.uniform(0.0, 1.0, size=n) * (top - bottom)
        # y -> -s ln(1 - exp(-y / s)) is its own inverse on y > 0
        values = mu + _bose_einstein_antiderivative(t, 0.0, lambda_theta)
    else:
        raise ConfigError("synthetic BE mode must be bin_weights or continuous")
    return SampleSet(np.clip(values, 0.0, None), source="synthetic bose-einstein")
