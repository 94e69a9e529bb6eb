"""Run configuration: INI-style files with [grid], [economy], [thresholds],
[caps] sections, validated field by field before any computation runs."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from .core import EconomyConfig, Regime, RevenueGrid
from .enumeration import DEFAULT_OUTCOME_CAP
from .errors import ConfigError

_KNOWN_KEYS = {
    "grid": {"levels", "degeneracies"},
    "economy": {"n", "pi", "regime", "lambda", "seeds", "output_dir"},
    "thresholds": {"ground_fraction", "gap"},
    "caps": {"max_outcomes", "sample_draws"},
}


@dataclass(frozen=True)
class Thresholds:
    ground_fraction: float = 0.5
    gap: float = 1e-6


@dataclass(frozen=True)
class Caps:
    max_outcomes: int = DEFAULT_OUTCOME_CAP
    sample_draws: int = 10000


@dataclass(frozen=True)
class RunConfig:
    grid: RevenueGrid
    economy: EconomyConfig
    lam: float = 1.0
    seed: int = 0
    output_dir: str | None = None
    thresholds: Thresholds = field(default_factory=Thresholds)
    caps: Caps = field(default_factory=Caps)


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: expected an integer, got {raw!r}") from None


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        if math.isfinite(value := float(raw)):  # nan and inf are no JSON numbers
            return value
    except ValueError:
        pass
    raise ConfigError(f"{section}.{key}: expected a finite number, got {raw!r}")


def _parse_int_list(section: str, key: str, raw: str) -> tuple[int, ...]:
    parts = raw.replace(",", " ").split()
    if not parts:
        raise ConfigError(f"{section}.{key}: expected at least one integer")
    return tuple(_parse_int(section, key, p) for p in parts)


def load_run_config(path: str | Path, regime_override: str | None = None) -> RunConfig:
    """Parse and validate a run configuration file.

    Unknown sections or keys are rejected with their path, as are values that
    violate any domain precondition, before any computation is dispatched.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"{section}: unknown config section")
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"{section}.{key}: unknown config key")

    if "grid" not in parser:
        raise ConfigError("grid: section is required")
    if "economy" not in parser:
        raise ConfigError("economy: section is required")
    gsec, esec = parser["grid"], parser["economy"]

    if "levels" not in gsec:
        raise ConfigError("grid.levels: key is required")
    levels = _parse_int_list("grid", "levels", gsec["levels"])
    degens = ()  # RevenueGrid gives every level one industry by default
    if "degeneracies" in gsec:
        degens = _parse_int_list("grid", "degeneracies", gsec["degeneracies"])
    grid = RevenueGrid(levels, degens)

    if "n" not in esec:
        raise ConfigError("economy.N: key is required")
    n_firms = _parse_int("economy", "N", esec["n"])
    pi_raw = esec.get("pi", "").strip()
    if pi_raw == "" or pi_raw.lower() == "none":
        total_revenue = None
    else:
        total_revenue = _parse_int("economy", "Pi", pi_raw)
    regime_text = regime_override or esec.get("regime")
    if regime_text is None:
        raise ConfigError("economy.regime: key is required (or pass --regime)")
    economy = EconomyConfig(n_firms, total_revenue, Regime.parse(regime_text))

    lam = _parse_float("economy", "lambda", esec["lambda"]) if "lambda" in esec else 1.0
    if not (lam > 0):
        raise ConfigError("economy.lambda: must be positive")
    seeds = _parse_int_list("economy", "seeds", esec.get("seeds", "0"))
    if len(seeds) > 1:
        raise ConfigError(f"economy.seeds: expected one integer, got {len(seeds)}")
    if seeds[0] < 0:
        raise ConfigError("economy.seeds: must be non-negative")
    output_dir = esec.get("output_dir") or None

    thresholds = Thresholds()
    if "thresholds" in parser:
        tsec = parser["thresholds"]
        thresholds = Thresholds(
            **{key: _parse_float("thresholds", key, tsec[key]) for key in tsec}
        )
        if not (0 < thresholds.ground_fraction <= 1):
            raise ConfigError("thresholds.ground_fraction: must lie in (0, 1]")
        if thresholds.gap < 0:
            raise ConfigError("thresholds.gap: must be non-negative")

    caps = Caps()
    if "caps" in parser:
        csec = parser["caps"]
        caps = Caps(**{key: _parse_int("caps", key, csec[key]) for key in csec})
        if caps.max_outcomes < 1:
            raise ConfigError("caps.max_outcomes: must be positive")
        if caps.sample_draws < 1:
            raise ConfigError("caps.sample_draws: must be positive")

    return RunConfig(
        grid=grid,
        economy=economy,
        lam=lam,
        seed=seeds[0],
        output_dir=output_dir,
        thresholds=thresholds,
        caps=caps,
    )
