"""Command-line entry point: enumerate | solve | sample | fit | macro | check.

Every command reads a validated config (or a data file for ``fit``), writes
machine-readable CSV/JSON into the output directory, and exits with
0 on success, 2 on infeasibility, 3 on non-convergence, 4 on an exceeded
enumeration cap, and 1 on any other error.  Outputs are deterministic for a
fixed config and seed set.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from itertools import islice
from pathlib import Path

from . import reports
from .checks import run_checks
from .configio import RunConfig, load_run_config
from .counting import stirling_log_multiplicity
from .enumeration import catalog, empirical_frequencies
from .errors import CapExceededError, ConfigError, EconOrderError, InfeasibleError
from .fitting import (
    _truncate_tail,
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
from .maxent import detect_condensation, solve_multipliers

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
        updates["seed"] = args.seed
    if getattr(args, "lam", None) is not None:
        if not (args.lam > 0):
            raise ConfigError("economy.lambda: must be positive")
        updates["lam"] = args.lam
    return dataclasses.replace(run_config, **updates) if updates else run_config


def cmd_enumerate(args) -> int:
    run = _apply_overrides(args, load_run_config(args.config, args.regime))
    out = _out_dir(args, run)
    cat = catalog(run.grid, run.economy, cap=run.caps.max_outcomes)
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
    out = _out_dir(args, run)
    solution, condensation, macro, identity = _solve_bundle(run)
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
    out = _out_dir(args, run)
    draws = run.caps.sample_draws
    cat = catalog(run.grid, run.economy, cap=run.caps.max_outcomes)
    outcomes = list(islice(cat.sample(run.seed), draws))
    freqs = empirical_frequencies(outcomes, run.grid)
    reports.write_frequencies_csv(out / "frequencies.csv", freqs, cat, draws)
    if args.log_outcomes:
        with (out / "outcomes.csv").open("w", newline="") as handle:
            handle.write("step,assignment\n")
            for step, outcome in enumerate(outcomes):
                handle.write("%d,%s\n" % (step, json.dumps(outcome.assignment)))
    print("sampled %d outcomes over %d orders -> %s" % (draws, len(freqs), out))
    return EXIT_OK


def cmd_fit(args) -> int:
    out = _out_dir(args)
    samples = load_samples(args.data)
    payload: dict = {"n_samples": len(samples), "source": samples.source}
    exit_code = EXIT_OK
    boltzmann = fit_boltzmann(samples, tail_quantile=args.tail_quantile)
    gof_b = goodness_of_fit(samples, boltzmann)
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
        gof_be = goodness_of_fit(samples, bose) if bose.converged else None
        payload["bose_einstein"] = {
            "parameters": bose.parameters,
            "ks_statistic": None if bose.ks_statistic != bose.ks_statistic else bose.ks_statistic,
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
    _write_binned(out, samples, args, boltzmann, bose)
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


def _write_binned(out: Path, samples, args, boltzmann, bose) -> None:
    import numpy as np

    kept = _truncate_tail(np.asarray(samples.values, dtype=float), args.tail_quantile)
    counts, edges = np.histogram(kept, bins=args.bins, range=(kept.min(), kept.max()))
    centers = 0.5 * (edges[:-1] + edges[1:])
    width = edges[1] - edges[0]
    mu_b, t_b = boltzmann.parameters["mu"], boltzmann.parameters["t_eff"]
    fitted_b = len(kept) * width / t_b * np.exp(-(np.maximum(centers - mu_b, 0.0)) / t_b)
    if bose is not None:
        mu_e, s_e, c_e = (
            bose.parameters["mu"],
            bose.parameters["lambda_theta"],
            bose.parameters["scale"],
        )
        fitted_e = c_e / np.expm1((centers - mu_e) / s_e)
    else:
        fitted_e = np.full_like(centers, float("nan"))
    rows = [
        {
            "bin_center": float(c),
            "observed_count": int(o),
            "fitted_boltzmann": float(fb),
            "fitted_bose_einstein": float(fe),
        }
        for c, o, fb, fe in zip(centers, counts, fitted_b, fitted_e)
    ]
    reports.write_binned_fit_csv(out / "binned.csv", rows)


def cmd_macro(args) -> int:
    run = _apply_overrides(args, load_run_config(args.config, args.regime))
    out = _out_dir(args, run)
    solution, condensation, macro, identity = _solve_bundle(run)
    if macro is None or identity is None:
        raise InfeasibleError(
            "macro mapping undefined: boundary-degenerate economy has no finite multipliers"
        )
    log_omega = stirling_log_multiplicity(solution.occupancy, run.grid, run.economy.regime)
    payload = reports.macro_payload(
        macro,
        solution.alpha,
        solution.beta,
        run.lam,
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
    results = run_checks(run, inject_fault=args.inject_fault)
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

    def add_common(p, with_lambda=False):
        p.add_argument("--config", required=True, help="run configuration file")
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
    add_common(p)
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
    add_common(p)
    p.add_argument("--inject-fault", help=argparse.SUPPRESS)
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
