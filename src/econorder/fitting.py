"""Fit revenue or income samples to the two candidate occupancy laws.

Monopolistic competition predicts an exponential (Boltzmann) body; perfect
competition predicts a Bose-Einstein shape whose denominator can approach
zero near the sample minimum (the crisis regime).  The exponential fit is
closed-form maximum likelihood on the truncated body; the Bose-Einstein fit
is least squares of histogram counts against the occupancy curve evaluated
at bin centers, with the location constrained below the first populated bin.
Both report a one-sample Kolmogorov-Smirnov statistic against the implied
continuous distribution on the observed support.

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


@dataclass(frozen=True)
class SampleSet:
    """Non-negative revenue/income observations with a provenance note."""

    values: tuple[float, ...]
    source: str = ""

    def __post_init__(self):
        if len(self.values) == 0:
            raise ConfigError("samples: no samples")
        if any(v < 0 for v in self.values):
            raise ConfigError("samples: negative value rejected")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class FitResult:
    model: str  # "boltzmann" | "bose_einstein"
    parameters: dict
    ks_statistic: float
    log_likelihood: float | None
    n_used: int
    tail_truncated_fraction: float
    support: tuple[float, float]
    converged: bool = True


@dataclass(frozen=True)
class GoodnessReport:
    statistic: float
    critical_value: float
    level: float
    n: int
    passed: bool


def load_samples(path: str | Path, fmt: str = "auto") -> SampleSet:
    """Read samples from CSV: one value per row, or value,count rows.

    fmt is "values", "value_count", or "auto" (decided by the first data
    row).  Counts expand into repeated values.  Malformed rows raise with
    their line number.
    """
    if fmt not in ("auto", "values", "value_count"):
        raise ConfigError("samples format must be auto, values, or value_count")
    path = Path(path)
    values: list[float] = []
    with path.open(newline="") as handle:
        for lineno, row in enumerate(csv.reader(handle), start=1):
            cells = [c.strip() for c in row if c.strip() != ""]
            if not cells:
                continue
            if fmt == "auto":
                fmt = "value_count" if len(cells) == 2 else "values"
            try:
                value = float(cells[0])
            except ValueError:
                raise ConfigError(
                    f"{path.name}:{lineno}: cannot parse value {cells[0]!r}"
                ) from None
            if value < 0:
                raise ConfigError(f"{path.name}:{lineno}: negative value rejected")
            if fmt == "values":
                if len(cells) != 1:
                    raise ConfigError(
                        f"{path.name}:{lineno}: expected one column, got {len(cells)}"
                    )
                values.append(value)
            else:
                if len(cells) != 2:
                    raise ConfigError(
                        f"{path.name}:{lineno}: expected value,count columns"
                    )
                try:
                    count = int(cells[1])
                except ValueError:
                    raise ConfigError(
                        f"{path.name}:{lineno}: cannot parse count {cells[1]!r}"
                    ) from None
                if count < 1:
                    raise ConfigError(f"{path.name}:{lineno}: count must be >= 1")
                values.extend([value] * count)
    if not values:
        raise ConfigError(f"{path.name}: no samples")
    return SampleSet(tuple(values), source=str(path))


def _truncate_tail(values: np.ndarray, tail_quantile: float) -> np.ndarray:
    if not (0.0 <= tail_quantile <= 0.2):
        raise ConfigError("tail_quantile must lie in [0, 0.2]")
    ordered = np.sort(values)
    drop = int(round(tail_quantile * len(ordered)))
    return ordered[: len(ordered) - drop] if drop else ordered


def fit_boltzmann(samples: SampleSet, tail_quantile: float = 0.03) -> FitResult:
    """Maximum-likelihood exponential fit on the retained body.

    Location is the sample minimum and the effective temperature is the mean
    excess over it.  Degenerate samples (zero variance) have no temperature.
    """
    from scipy import stats  # scipy loads only when a fit runs
    values = np.asarray(samples.values, dtype=float)
    kept = _truncate_tail(values, tail_quantile)
    if len(kept) < 10:
        raise ConfigError("boltzmann fit requires at least 10 samples after truncation")
    mu = float(kept.min())
    t_eff = float(np.mean(kept - mu))
    if t_eff <= 0.0:
        raise EconOrderError("zero temperature: all retained samples are equal")
    ks = float(stats.kstest(kept, stats.expon(loc=mu, scale=t_eff).cdf).statistic)
    n_used = int(len(kept))
    loglik = -n_used * (math.log(t_eff) + 1.0)
    return FitResult(
        model="boltzmann",
        parameters={"mu": mu, "t_eff": t_eff},
        ks_statistic=ks,
        log_likelihood=loglik,
        n_used=n_used,
        tail_truncated_fraction=1.0 - n_used / len(values),
        support=(mu, math.inf),
    )


def _bose_einstein_cdf(mu: float, scale: float, lo: float, hi: float):
    """CDF of the normalised density 1/(exp((x-mu)/s)-1) on [lo, hi].

    The antiderivative -s*ln(1 - exp(-(x-mu)/s)) is decreasing, which gives
    a closed-form CDF.  The density diverges (integrably) at mu, so the
    support floor is nudged strictly above mu.
    """
    lo = max(lo, mu + 1e-9 * max(hi - mu, 1.0))

    def antideriv(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            return -scale * np.log1p(-np.exp(-(x - mu) / scale))

    top, bottom = antideriv(lo), antideriv(hi)

    def cdf(x):
        x = np.clip(x, lo, hi)
        return (top - antideriv(x)) / (top - bottom)

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
    values = np.asarray(samples.values, dtype=float)
    if len(values) < 100:
        raise ConfigError("bose-einstein fit requires at least 100 samples")
    if bins < 5:
        raise ConfigError("bose-einstein fit requires at least 5 bins")
    kept = _truncate_tail(values, tail_quantile)
    counts, edges = np.histogram(kept, bins=bins, range=(kept.min(), kept.max()))
    centers = 0.5 * (edges[:-1] + edges[1:])
    populated = counts > 0
    c_obs = counts[populated].astype(float)
    x_obs = centers[populated]
    mu_ceiling = float(x_obs.min()) - 1e-9 * max(1.0, abs(float(x_obs.min())))

    def residuals(theta):
        mu, log_s, log_c = theta
        return np.exp(log_c) / np.expm1((x_obs - mu) / np.exp(log_s)) - c_obs

    start = np.array(
        [float(x_obs.min()) - 0.5 * (edges[1] - edges[0]) - 1e-6,
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
        ks = float(stats.kstest(kept, cdf).statistic)
    else:
        ks = math.nan
        converged = False
    return FitResult(
        model="bose_einstein",
        parameters={"mu": mu_hat, "lambda_theta": s_hat, "scale": c_hat},
        ks_statistic=ks,
        log_likelihood=None,
        n_used=int(len(kept)),
        tail_truncated_fraction=1.0 - len(kept) / len(values),
        support=(lo, hi),
        converged=converged,
    )


def fitted_cdf(fit: FitResult):
    """The continuous CDF implied by a fit, on its recorded support."""
    from scipy import stats
    if fit.model == "boltzmann":
        return stats.expon(loc=fit.parameters["mu"], scale=fit.parameters["t_eff"]).cdf
    if fit.model == "bose_einstein":
        return _bose_einstein_cdf(
            fit.parameters["mu"], fit.parameters["lambda_theta"], *fit.support
        )
    raise ConfigError(f"unknown fit model {fit.model!r}")


def ks_critical_value(n: int, level: float = 0.01) -> float:
    """Two-sided one-sample KS critical value; exact for small n."""
    from scipy import stats
    if n < 1:
        raise ConfigError("KS critical value requires n >= 1")
    if n <= 40:
        return float(stats.kstwo.ppf(1.0 - level, n))
    return math.sqrt(-0.5 * math.log(level / 2.0)) / math.sqrt(n)


def goodness_of_fit(
    samples: SampleSet, fit: FitResult, level: float = 0.01
) -> GoodnessReport:
    """One-sample KS of the samples against the fitted law, with pass/fail.

    The same top-quantile truncation used by the fit is applied, so the
    statistic refers to the body the fit actually describes.
    """
    from scipy import stats
    values = np.asarray(samples.values, dtype=float)
    kept = _truncate_tail(values, fit.tail_truncated_fraction)
    statistic = float(stats.kstest(kept, fitted_cdf(fit)).statistic)
    critical = ks_critical_value(len(kept), level)
    return GoodnessReport(
        statistic=statistic,
        critical_value=critical,
        level=level,
        n=int(len(kept)),
        passed=statistic < critical,
    )


def synthetic_exponential(
    n: int, t_eff: float, mu: float = 0.0, seed: int = 0
) -> SampleSet:
    """Exponential body with known parameters, for estimator studies."""
    rng = np.random.default_rng(seed)
    values = mu + rng.exponential(scale=t_eff, size=n)
    return SampleSet(tuple(float(v) for v in values), source="synthetic exponential")


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
        weights = 1.0 / np.expm1((levels - mu) / lambda_theta)
        prob = weights / weights.sum()
        cell = float(np.min(np.diff(levels))) if len(levels) > 1 else 1.0
        drawn = rng.choice(levels, size=n, p=prob)
        values = drawn + rng.uniform(-0.5 * cell, 0.5 * cell, size=n)
    elif mode == "continuous":
        lo, hi = float(levels.min()), float(levels.max())

        def antideriv(x):
            return -lambda_theta * np.log1p(-np.exp(-(x - mu) / lambda_theta))

        top, bottom = antideriv(lo), antideriv(hi)
        t = top - rng.uniform(0.0, 1.0, size=n) * (top - bottom)
        values = mu - lambda_theta * np.log1p(-np.exp(-t / lambda_theta))
    else:
        raise ConfigError("synthetic BE mode must be bin_weights or continuous")
    values = np.clip(values, 0.0, None)
    return SampleSet(tuple(float(v) for v in values), source="synthetic bose-einstein")
