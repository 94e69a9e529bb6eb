"""Command-line entry point: enumerate | solve | sample | fit | macro | check.

Every command reads a validated config (or a data file for ``fit``), writes
machine-readable CSV/JSON into the output directory, and exits with
0 on success, 2 on infeasibility, 3 on non-convergence, 4 on an exceeded
enumeration cap or a count with more decimal digits than the interpreter
prints, and 1 on any other error.  The output directory is made
only once the command's catalog, solve or Boltzmann fit has succeeded, so a
run that exits 2 or 4, or is refused its data or config, leaves no empty
directory behind.  Outputs are deterministic for a fixed config and seed
set.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from collections import Counter
from itertools import islice
from pathlib import Path

from . import reports
from .checks import run_checks
from .configio import RunConfig, load_run_config
from .enumeration import catalog
from .errors import CapExceededError, ConfigError, EconOrderError, InfeasibleError
from .fitting import (
    binned_fit_rows,
    fit_boltzmann,
    fit_bose_einstein,
    goodness_of_fit,
    load_samples,
)
from .macro import (
    entropy_identity_residual,
    macro_from_multipliers,
    technology,
)
from .maxent import detect_condensation, solve_multipliers, stirling_log_multiplicity

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_NONCONVERGENCE = 3
EXIT_CAP = 4


def _out_dir(args, run_config: RunConfig | None = None) -> Path:
    out = args.out or (run_config.output_dir if run_config else None) or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _apply_overrides(args, run_config: RunConfig) -> RunConfig:
    updates = {}
    if getattr(args, "seed", None) is not None:
        if args.seed < 0:
            raise ConfigError("--seed: must be non-negative")
        updates["seed"] = args.seed
    if getattr(args, "lam", None) is not None:
        if not (0 < args.lam < math.inf):
            raise ConfigError("economy.lambda: must be positive and finite")
        updates["lam"] = args.lam
    return dataclasses.replace(run_config, **updates) if updates else run_config


def _check_printable(total: int) -> None:
    """Refuse a total outcome count T whose decimal text passes CPython's
    int-to-str limit (sys.get_int_max_str_digits, 0 for none).  T bounds
    every count, numerator and denominator that enumerate prints.  Its
    digits are bounded from its bit length (log10 2 < 0.30103), at most one
    too many below 10**8 bits, which one power of ten settles."""
    limit = sys.get_int_max_str_digits()
    digits = total.bit_length() * 30103 // 100000 + 1
    if limit and digits > limit and total < 10 ** (digits - 1):
        digits -= 1
    if limit and digits > limit:
        raise CapExceededError(digits, limit, "total outcome count", "decimal digits")


def cmd_enumerate(args) -> int:
    run = _apply_overrides(args, load_run_config(args.config, args.regime))
    cat = catalog(run.grid, run.economy, cap=run.caps.max_outcomes)
    _check_printable(cat.total_outcomes)
    out = _out_dir(args, run)
    reports.write_orders_csv(out / "orders.csv", cat)
    reports.dump_json(out / "spontaneous.json", reports.spontaneous_payload(cat))
    print(
        "enumerated %d orders, %s outcomes -> %s"
        % (len(cat.entries), cat.total_outcomes, out)
    )
    return EXIT_OK


def _solve_bundle(run: RunConfig):
    solution = solve_multipliers(run.grid, run.economy)
    condensation = detect_condensation(
        solution,
        run.grid,
        run.economy,
        fraction_threshold=run.thresholds.ground_fraction,
        gap_threshold=run.thresholds.gap,
    )
    macro = identity = None
    if solution.alpha is not None and solution.beta not in (None, 0.0):
        macro = macro_from_multipliers(solution.alpha, solution.beta, run.lam)
        identity = entropy_identity_residual(
            solution.alpha, solution.beta, run.grid, run.economy.regime
        )
    return solution, condensation, macro, identity


def cmd_solve(args) -> int:
    run = _apply_overrides(args, load_run_config(args.config, args.regime))
    solution, condensation, macro, identity = _solve_bundle(run)
    out = _out_dir(args, run)
    reports.dump_json(
        out / "solution.json",
        reports.solution_payload(solution, condensation, macro, identity, run.lam),
    )
    reports.write_occupancy_csv(out / "occupancy.csv", run.grid, solution.occupancy)
    print(
        "solve: converged=%s boundary=%s condensed=%s -> %s"
        % (solution.converged, solution.boundary, condensation.condensed, out)
    )
    return EXIT_OK if solution.converged else EXIT_NONCONVERGENCE


def cmd_sample(args) -> int:
    run = _apply_overrides(args, load_run_config(args.config, args.regime))
    draws = run.caps.sample_draws
    cat = catalog(run.grid, run.economy, cap=run.caps.max_outcomes)
    # the outcome stream refuses N >= 2**63 firms here, before --out is made
    outcomes = islice(cat.sample(run.seed), draws) if args.log_outcomes else None
    tally = Counter(islice(cat.picks(run.seed), draws))
    out = _out_dir(args, run)
    if outcomes is not None:  # each row is written as it is drawn
        with (out / "outcomes.csv").open("w", newline="") as handle:
            handle.write("step,assignment\n")
            for step, outcome in enumerate(outcomes):
                handle.write("%d,%s\n" % (step, json.dumps(outcome.assignment)))
    reports.write_frequencies_csv(out / "frequencies.csv", tally, cat, draws)
    print("sampled %d outcomes over %d orders -> %s" % (draws, len(tally), out))
    return EXIT_OK


def cmd_fit(args) -> int:
    if args.bins < 1:
        raise ConfigError("--bins must be at least 1")
    samples = load_samples(args.data)
    payload: dict = {"n_samples": len(samples), "source": samples.source}
    exit_code = EXIT_OK
    boltzmann = fit_boltzmann(samples, tail_quantile=args.tail_quantile)
    out = _out_dir(args)
    gof_b = goodness_of_fit(boltzmann)
    payload["boltzmann"] = {
        "parameters": boltzmann.parameters,
        "ks_statistic": boltzmann.ks_statistic,
        "log_likelihood": boltzmann.log_likelihood,
        "n_used": boltzmann.n_used,
        "gof_passed": gof_b.passed,
        "gof_critical_value": gof_b.critical_value,
    }
    try:
        bose = fit_bose_einstein(samples, bins=args.bins, tail_quantile=args.tail_quantile)
        gof_be = goodness_of_fit(bose) if bose.converged else None
        payload["bose_einstein"] = {
            "parameters": bose.parameters,
            "ks_statistic": None if gof_be is None else bose.ks_statistic,
            "converged": bose.converged,
            "n_used": bose.n_used,
            "gof_passed": None if gof_be is None else gof_be.passed,
            "gof_critical_value": None if gof_be is None else gof_be.critical_value,
        }
        if not bose.converged:
            exit_code = EXIT_NONCONVERGENCE
    except ConfigError as exc:
        payload["bose_einstein"] = {"skipped": str(exc)}
        bose = None
    rows = binned_fit_rows(samples, boltzmann, bose, args.bins)
    reports.write_binned_fit_csv(out / "binned.csv", rows)
    reports.dump_json(out / "fit.json", payload)
    print(
        "fit: boltzmann ks=%.4g%s -> %s"
        % (
            boltzmann.ks_statistic,
            "" if bose is None else ", bose-einstein ks=%.4g" % bose.ks_statistic,
            out,
        )
    )
    return exit_code


def cmd_macro(args) -> int:
    run = _apply_overrides(args, load_run_config(args.config, args.regime))
    solution, condensation, macro, identity = _solve_bundle(run)
    if macro is None or identity is None:
        raise InfeasibleError(
            "macro mapping undefined: boundary-degenerate economy has no finite multipliers"
        )
    out = _out_dir(args, run)
    log_omega = stirling_log_multiplicity(solution.occupancy, run.grid, run.economy.regime)
    payload = reports.macro_payload(
        macro,
        solution.alpha,
        solution.beta,
        technology(log_omega, run.lam),
        log_omega,
        identity,
    )
    reports.dump_json(out / "macro.json", payload)
    print(
        "macro: mu=%.6g theta=%.6g T=%.6g (sign %+d) -> %s"
        % (macro.mu, macro.theta, payload["T"], identity.best_sign, out)
    )
    return EXIT_OK if solution.converged else EXIT_NONCONVERGENCE


def cmd_check(args) -> int:
    run = _apply_overrides(args, load_run_config(args.config, args.regime))
    out = _out_dir(args, run)
    results = run_checks(run)
    payload = {
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    reports.dump_json(out / "check.json", payload)
    for r in results:
        print("%s %s" % ("PASS" if r.passed else "FAIL", r.name))
        if not r.passed:
            print("  detail: %s" % json.dumps(r.detail, sort_keys=True))
    return EXIT_OK if payload["all_passed"] else EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="econorder",
        description="Most-probable revenue distributions of long-run competitive economies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_lambda=False, with_seed=False):
        p.add_argument("--config", required=True, help="run configuration file")
        if with_seed:  # only sample and check draw random numbers
            p.add_argument("--seed", type=int, help="override the seed")
        p.add_argument("--out", help="output directory (default: out)")
        p.add_argument("--regime", choices=["mon", "per"], help="override the regime")
        if with_lambda:
            p.add_argument("--lambda", dest="lam", type=float, help="macro scale constant")

    p = sub.add_parser("enumerate", help="exact catalog of feasible orders")
    add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("solve", help="solve the occupancy multipliers")
    add_common(p, with_lambda=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sample", help="sample outcomes uniformly")
    add_common(p, with_seed=True)
    p.add_argument("--log-outcomes", action="store_true", help="also log the raw stream")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("fit", help="fit exponential and Bose-Einstein laws to data")
    p.add_argument("data", help="CSV of samples (value rows or value,count rows)")
    p.add_argument("--tail-quantile", type=float, default=0.03)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--out", help="output directory (default: out)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("macro", help="macro mapping and technology report")
    add_common(p, with_lambda=True)
    p.set_defaults(func=cmd_macro)

    p = sub.add_parser("check", help="run the internal verification suites")
    add_common(p, with_seed=True)
    p.set_defaults(func=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(json.dumps(reports.error_payload("infeasible", str(exc)), sort_keys=True))
        return EXIT_INFEASIBLE
    except CapExceededError as exc:
        print(json.dumps(reports.error_payload("cap_exceeded", str(exc)), sort_keys=True))
        return EXIT_CAP
    except EconOrderError as exc:
        print(json.dumps(reports.error_payload("config", str(exc)), sort_keys=True))
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
