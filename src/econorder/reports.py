"""Deterministic CSV/JSON serialisation of catalogs, solutions, and fits.

Outputs carry no timestamps or environment data, so identical inputs and
seeds produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

from .core import EconomicOrder, RevenueGrid
from .enumeration import OrderCatalog
from .macro import IdentityReport, MacroParams
from .maxent import CondensationReport, MultiplierSolution


def occupancy_text(order: EconomicOrder) -> str:
    return " ".join(str(a) for a in order.occupancy)


def _float_or_none(value):
    if value is None:
        return None
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def dump_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_orders_csv(path: Path, catalog: OrderCatalog) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["occupancy", "multiplicity", "probability_num", "probability_den", "probability_float"]
        )
        for entry in catalog.entries:
            writer.writerow(
                [
                    occupancy_text(entry.order),
                    entry.multiplicity,
                    entry.probability.numerator,
                    entry.probability.denominator,
                    repr(float(entry.probability)),
                ]
            )


def spontaneous_payload(catalog: OrderCatalog) -> dict:
    top = catalog.entries[0]
    return {
        "order": list(top.order.occupancy),
        "multiplicity": str(top.multiplicity),
        "probability_num": str(top.probability.numerator),
        "probability_den": str(top.probability.denominator),
        "probability_float": float(top.probability),
        "tie_set": [list(o.occupancy) for o in catalog.tie_set()],
        "total_outcomes": str(catalog.total_outcomes),
        "n_orders": len(catalog.entries),
    }


def write_occupancy_csv(path: Path, grid: RevenueGrid, occupancy) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["level_index", "revenue", "degeneracy", "occupancy"])
        for k, (e, g, a) in enumerate(zip(grid.levels, grid.degeneracies, occupancy)):
            writer.writerow([k, e, g, repr(float(a))])


def solution_payload(
    solution: MultiplierSolution,
    condensation: CondensationReport,
    macro: MacroParams | None,
    identity: IdentityReport | None,
    lam: float,
) -> dict:
    payload = {
        "alpha": _float_or_none(solution.alpha),
        "beta": _float_or_none(solution.beta),
        "occupancy": [float(a) for a in solution.occupancy],
        "residual_n": solution.residual_n,
        "residual_pi": solution.residual_pi,
        "iterations": solution.iterations,
        "converged": solution.converged,
        "boundary": solution.boundary,
        "pinned": solution.pinned,
        "method": solution.method,
        "lambda": lam,
        "condensation": {
            "condensed": condensation.condensed,
            "ground_fraction": condensation.ground_fraction,
            "gap": _float_or_none(condensation.gap),
            "fraction_threshold": condensation.fraction_threshold,
            "gap_threshold": condensation.gap_threshold,
        },
    }
    if macro is not None:
        payload["macro"] = {"mu": macro.mu, "theta": macro.theta, "lambda": macro.lam}
    if identity is not None:
        payload["identity"] = {
            "residual": identity.residual,
            "best_sign": identity.best_sign,
            "entropy": identity.entropy,
            "expression": identity.expression,
        }
    return payload


def macro_payload(
    macro: MacroParams,
    alpha: float,
    beta: float,
    lam: float,
    technology_level: float,
    log_omega: float,
    identity: IdentityReport,
) -> dict:
    return {
        "mu": macro.mu,
        "theta": macro.theta,
        "lambda": lam,
        "alpha": alpha,
        "beta": beta,
        "T": technology_level,
        "lnOmega": log_omega,
        "identity_residual": identity.residual,
        "best_sign": identity.best_sign,
    }


def write_frequencies_csv(
    path: Path,
    frequencies: dict[EconomicOrder, Fraction],
    catalog: OrderCatalog,
    draws: int,
) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["occupancy", "count", "frequency_float", "exact_probability_float", "abs_error"]
        )
        for entry in catalog.listing:
            freq = frequencies.get(entry.order, Fraction(0))
            exact = float(entry.probability)
            writer.writerow(
                [
                    occupancy_text(entry.order),
                    freq.numerator * draws // freq.denominator,
                    repr(float(freq)),
                    repr(exact),
                    repr(abs(float(freq) - exact)),
                ]
            )


def write_binned_fit_csv(path: Path, rows: list[dict]) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["bin_center", "observed_count", "fitted_boltzmann", "fitted_bose_einstein"]
        )
        for row in rows:
            writer.writerow(
                [
                    repr(row["bin_center"]),
                    row["observed_count"],
                    repr(row["fitted_boltzmann"]),
                    repr(row["fitted_bose_einstein"]),
                ]
            )


def error_payload(kind: str, message: str) -> dict:
    return {"error": kind, "message": message}
