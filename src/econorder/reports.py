"""Deterministic CSV/JSON serialisation of catalogs, solutions, and fits.

Outputs carry no timestamps or environment data, so identical inputs and
seeds produce byte-identical files.  Every file is written by ``_written``,
whole or not at all.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path

from .checks import CheckResult
from .core import RevenueGrid
from .enumeration import OrderCatalog
from .fitting import FitResult, GoodnessReport, SampleSet
from .macro import IdentityReport, MacroParams
from .maxent import CondensationReport, MultiplierSolution


def occupancy_text(occupancy: tuple[int, ...]) -> str:
    return " ".join(map(str, occupancy))


def _float_or_none(value):
    if value is None:
        return None
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


@contextmanager
def _written(path: Path):
    """Yield a text handle on a temporary sibling of ``path`` and rename it
    over ``path`` once the block ends; on any exception delete it and
    re-raise, so ``path`` keeps whatever it held before."""
    temp = path.with_name(".%s.%d.tmp" % (path.name, os.getpid()))
    try:
        with open(temp, "w", newline="") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


@contextmanager
def _csv_rows(path: Path, names: list[str]):
    """Yield a CSV writer on ``_written(path)`` that has written the header ``names``."""
    with _written(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(names)
        yield writer


def dump_json(path: Path, payload: dict) -> None:
    with _written(path) as handle:
        handle.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_orders_csv(path: Path, catalog: OrderCatalog) -> None:
    """One row per order, by decreasing multiplicity (``catalog.entries``'
    order), written from the catalog's columns with no order or entry
    record: the occupancy gathered from the level columns, the reduced
    probability ω / T by one gcd, and its float as ``ω / T``, the correctly
    rounded quotient that ``float(Fraction(ω, T))`` also gives."""
    positions, total = catalog.entries.positions, catalog.total_outcomes
    occupancies = zip(*(map(column.__getitem__, positions) for column in catalog.orders.columns))
    counts = map(catalog.counts.__getitem__, positions)
    names = ["occupancy", "multiplicity", "probability_num", "probability_den", "probability_float"]
    with _csv_rows(path, names) as writer:
        for occupancy, count in zip(occupancies, counts):
            common = math.gcd(count, total)
            writer.writerow(
                [
                    occupancy_text(occupancy),
                    count,
                    count // common,
                    total // common,
                    repr(count / total),
                ]
            )


def spontaneous_payload(catalog: OrderCatalog) -> dict:
    """The most probable order, ``catalog.entries[0]`` under the tie rule."""
    top, total = catalog.entries[0], catalog.total_outcomes
    return {
        "order": list(top.order.occupancy),
        "multiplicity": str(top.multiplicity),
        "probability_num": str(top.probability.numerator),
        "probability_den": str(top.probability.denominator),
        "probability_float": top.multiplicity / total,
        "tie_set": [list(o.occupancy) for o in catalog.tie_set()],
        "total_outcomes": str(total),
        "n_orders": len(catalog.orders),
    }


def write_occupancy_csv(path: Path, grid: RevenueGrid, occupancy) -> None:
    with _csv_rows(path, ["level_index", "revenue", "degeneracy", "occupancy"]) as writer:
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
    technology_level: float,
    log_omega: float,
    identity: IdentityReport,
) -> dict:
    return {
        "mu": macro.mu,
        "theta": macro.theta,
        "lambda": macro.lam,
        "alpha": alpha,
        "beta": beta,
        "T": technology_level,
        "lnOmega": log_omega,
        "identity_residual": identity.residual,
        "best_sign": identity.best_sign,
    }


def fit_payload(
    samples: SampleSet,
    boltzmann: FitResult,
    boltzmann_gof: GoodnessReport,
    bose: FitResult | None,
    bose_gof: GoodnessReport | None,
    skipped: str | None,
) -> dict:
    """Both fits beside their goodness of fit: ``bose`` is None when its fit
    was refused for the reason ``skipped``, ``bose_gof`` when it diverged."""
    payload = {
        "n_samples": len(samples),
        "source": samples.source,
        "boltzmann": {
            "parameters": boltzmann.parameters,
            "ks_statistic": boltzmann.ks_statistic,
            "log_likelihood": boltzmann.log_likelihood,
            "n_used": boltzmann.n_used,
            "gof_passed": boltzmann_gof.passed,
            "gof_critical_value": boltzmann_gof.critical_value,
        },
    }
    if bose is None:
        payload["bose_einstein"] = {"skipped": skipped}
    else:
        payload["bose_einstein"] = {
            "parameters": bose.parameters,
            "ks_statistic": None if bose_gof is None else bose.ks_statistic,
            "converged": bose.converged,
            "n_used": bose.n_used,
            "gof_passed": None if bose_gof is None else bose_gof.passed,
            "gof_critical_value": None if bose_gof is None else bose_gof.critical_value,
        }
    return payload


def check_payload(results: list[CheckResult]) -> dict:
    return {
        "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
        "all_passed": all(r.passed for r in results),
    }


def write_frequencies_csv(
    path: Path,
    tally: dict[int, int],
    catalog: OrderCatalog,
    draws: int,
) -> None:
    """One row per listed order: its count among ``draws`` picks (``tally``
    maps a listing index to its count, as a ``Counter`` of
    ``OrderCatalog.picks`` does) and its frequency ``drawn / draws``, the
    float ``Fraction(drawn, draws)`` rounds to, beside its exact one."""
    names = ["occupancy", "count", "frequency_float", "exact_probability_float", "abs_error"]
    with _csv_rows(path, names) as writer:
        total = catalog.total_outcomes
        for index, (occupancy, count) in enumerate(zip(zip(*catalog.orders.columns), catalog.counts)):
            drawn = tally.get(index, 0)
            freq = drawn / draws
            exact = count / total  # float(Fraction(count, total)), no gcd
            writer.writerow(
                [
                    occupancy_text(occupancy),
                    drawn,
                    repr(freq),
                    repr(exact),
                    repr(abs(freq - exact)),
                ]
            )


def write_outcomes_csv(path: Path, outcomes) -> None:
    """One row per outcome of the stream ``outcomes``, written as it is
    drawn: its step and its assignment as JSON, quoted as one CSV field."""
    with _csv_rows(path, ["step", "assignment"]) as writer:
        for step, outcome in enumerate(outcomes):
            writer.writerow([step, json.dumps(outcome.assignment)])


def write_binned_fit_csv(path: Path, rows: list[dict]) -> None:
    """Each row's values in the header's order, by ``repr`` (the count is an int)."""
    names = ["bin_center", "observed_count", "fitted_boltzmann", "fitted_bose_einstein"]
    with _csv_rows(path, names) as writer:
        writer.writerows([repr(row[name]) for name in names] for row in rows)


def error_payload(kind: str, message: str) -> dict:
    return {"error": kind, "message": message}
