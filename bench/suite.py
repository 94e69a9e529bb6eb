"""Layer suite: fixed inputs that time every layer, run by every traced run.

The inputs do not depend on the workload or its seed, so the per-layer
numbers of any traced run compare directly with those of another commit.
Most rows are the ROADMAP baseline table, now measured by this harness:

- catalog at N=100 on 5 levels (both regimes);
- the uniform sampler's first draw at 73,789 outcomes;
- chain time per step at N=50;
- Newton and bisection time per random ``per`` instance;
- a 2000-level solve;
- mon ``multiplicity`` at N=10^5;
- both fits on 2*10^5 samples (inside the ``fit`` replay).

The six CLI subcommands are replayed in process, under the tracer, for the
configio, reports, fitting and checks layers.  Import times come from cold
subprocesses.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import econorder as eo
from econorder import EconomyConfig, Regime, RevenueGrid
from tracer import Tracer
from workloads import (
    CliCold,
    Sampling,
    SolveSweep,
    cli_env,
    condensation_instances,
    random_solver_instance,
    sample_session,
    wide_instance,
)

SEED = 0
IMPORT_REPEATS = 3
IMPORT_PROBE = (
    "import json, sys, time\n"
    "t0 = time.perf_counter(); import numpy\n"
    "t1 = time.perf_counter(); import econorder\n"
    "t2 = time.perf_counter()\n"
    "print(json.dumps([t1 - t0, t2 - t1, 'scipy' in sys.modules]))\n"
)


def mean_ms(tracer: Tracer, name: str) -> float:
    calls, total, _own = tracer.by_name[name]
    if not calls:
        raise RuntimeError("layer suite: %s was never called" % name)
    return total / calls * 1e3


def import_rows() -> dict:
    runs = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=cli_env(), check=True, capture_output=True
        ).stdout
        runs.append(json.loads(out))
    return {
        "import.numpy_s": statistics.median(r[0] for r in runs),
        "import.econorder_s": statistics.median(r[1] for r in runs),
        "import.scipy_loaded": float(all(r[2] for r in runs)),
    }


def cli_rows(workdir: Path, tracers: list) -> dict:
    import econorder.cli

    workdir = workdir / "suite"
    workdir.mkdir()
    cold = CliCold(SEED, workdir)
    write_ms = []
    by_cmd = {}
    for op in cold.ops:
        tracer = Tracer()
        tracers.append(tracer)
        argv = list(op.args) + ["--out", str(workdir / op.kind)]
        with tracer, contextlib.redirect_stdout(io.StringIO()):
            econorder.cli.main(argv)
        write_ms.append(tracer.layer_cover["reports"] * 1e3)
        by_cmd[op.kind] = tracer
    loads = [by_cmd[c].by_name["configio.load_run_config"] for c in by_cmd]
    fit, check = by_cmd["fit"], by_cmd["check"]
    return {
        "configio.load_run_config_ms": sum(l[1] for l in loads) / sum(l[0] for l in loads) * 1e3,
        "reports.write_ms": statistics.mean(write_ms),
        "fitting.load_samples_ms": mean_ms(fit, "fitting.load_samples"),
        "fitting.fit_boltzmann_ms": mean_ms(fit, "fitting.fit_boltzmann"),
        "fitting.fit_bose_einstein_ms": mean_ms(fit, "fitting.fit_bose_einstein"),
        "fitting.goodness_of_fit_ms": mean_ms(fit, "fitting.goodness_of_fit"),
        "checks.two_firm_ms": mean_ms(check, "checks.check_two_firm_example"),
        "checks.counting_oracle_ms": mean_ms(check, "checks.check_counting_oracle"),
        "checks.solver_ms": mean_ms(check, "checks.check_solver"),
        "checks.argmax_ms": mean_ms(check, "checks.check_argmax_convergence"),
        "checks.sampler_ms": mean_ms(check, "checks.check_sampler"),
        "checks.macro_ms": mean_ms(check, "checks.check_macro_identities"),
    }


def counting_rows(tracers: list) -> dict:
    levels = (1, 2, 3, 4, 5)
    rows = {}
    tracer = Tracer()
    tracers.append(tracer)
    with tracer:
        for regime in (Regime.MONOPOLISTIC, Regime.PERFECT):
            before = tracer.by_name["enumeration.catalog"][1]
            eo.catalog(RevenueGrid(levels, (1,) * 5), EconomyConfig(100, 300, regime))
            rows["enumeration.catalog_%s_ms" % regime.short_name] = (
                tracer.by_name["enumeration.catalog"][1] - before
            ) * 1e3
    calls, mult_total, _ = tracer.by_name["counting.multiplicity"]
    enum_calls, enum_total, _ = tracer.by_name["enumeration.enumerate_orders"]
    cat_calls, _, cat_self = tracer.by_name["enumeration.catalog"]
    listed = tracer.counts["enumeration.enumerate_orders"]
    rows.update(
        {
            "counting.multiplicity_calls": calls,
            "counting.multiplicity_small_us": mult_total / calls * 1e6,
            "enumeration.enumerate_orders_ms": enum_total / enum_calls * 1e3,
            "enumeration.orders_listed": listed,
            "enumeration.orders_per_s": listed / enum_total,
            "enumeration.catalog_self_ms": cat_self / cat_calls * 1e3,
        }
    )
    big = Tracer()
    tracers.append(big)
    with big:
        eo.multiplicity((20_000,) * 5, RevenueGrid(levels, (1, 2, 3, 2, 1)), Regime.MONOPOLISTIC)
    rows["counting.multiplicity_big_ms"] = mean_ms(big, "counting.multiplicity")
    return rows


def _draw_times(tracer: Tracer) -> tuple[float, float]:
    """(first draw incl. sampler set-up, mean later draw) in seconds."""
    setup = tracer.by_name["enumeration.sample_outcomes"][1]
    draws = [s[3] - s[2] for s in tracer.spans if s[0] == "enumeration.sample_outcomes.next"]
    return setup + draws[0], statistics.mean(draws[1:])


def sampling_rows(tracers: list) -> dict:
    draws, cap = Sampling.DRAWS, Sampling.CAP
    # the 73,789-outcome space of the baseline table: central trinomial at N=12
    uniform = (RevenueGrid((1, 2, 3), (1, 1, 1)), EconomyConfig(12, 24, Regime.MONOPOLISTIC))
    chain = (RevenueGrid(Sampling.CHAIN_LEVELS, (40, 1, 2, 3, 2)), EconomyConfig(50, 53, Regime.MONOPOLISTIC))
    rows = {}
    tracer = Tracer()
    tracers.append(tracer)
    with tracer:
        sample_session(*uniform, SEED, draws, cap)
    first, later = _draw_times(tracer)
    built = tracer.counts["enumeration.enumerate_outcomes"]
    rows.update(
        {
            "enumeration.uniform_first_draw_ms": first * 1e3,
            "enumeration.uniform_draw_us": later * 1e6,
            "enumeration.feasible_outcome_count_ms": tracer.by_name["enumeration.feasible_outcome_count"][1] * 1e3,
            "enumeration.enumerate_outcomes_ms": tracer.by_name["enumeration.enumerate_outcomes"][1] * 1e3,
            "enumeration.outcomes_built": built,
            "enumeration.outcomes_built_per_draw": built / draws,
            "enumeration.empirical_frequencies_ms": mean_ms(tracer, "enumeration.empirical_frequencies"),
        }
    )
    tracer = Tracer()
    tracers.append(tracer)
    with tracer:
        _outcomes, freqs, _exact, missing = sample_session(*chain, SEED, draws, cap)
    first, later = _draw_times(tracer)
    steps_per_draw = 2 * 50  # the sampler's default thinning, 2N
    rows.update(
        {
            "enumeration.chain_first_draw_ms": first * 1e3,
            "enumeration.chain_draw_us": later * 1e6,
            "enumeration.chain_step_us": later / steps_per_draw * 1e6,
            "enumeration.chain_order_coverage": len(freqs) / (len(freqs) + len(missing)),
        }
    )
    return rows


def solver_rows(tracers: list) -> dict:
    rng = np.random.default_rng(SEED)
    randoms = [random_solver_instance(rng, Regime.PERFECT) for _ in range(100)]
    sweep = [
        x
        for regime in (Regime.MONOPOLISTIC, Regime.PERFECT)
        for x in condensation_instances(rng, regime, SolveSweep.SWEEP_SIZES, (1, 3, 10))
    ]
    wide = wide_instance(rng, Regime.PERFECT, 2_000)
    newton = Tracer()
    tracers.append(newton)
    solutions = []
    with newton:
        for grid, config in randoms:
            sol = eo.solve_multipliers(grid, config)
            eo.detect_condensation(sol, grid, config)
            eo.macro_from_multipliers(sol.alpha, sol.beta)
            eo.entropy_identity_residual(sol.alpha, sol.beta, grid, config.regime)
            solutions.append(sol)
    solve_us = mean_ms(newton, "maxent.solve_multipliers") * 1e3
    detect_us = mean_ms(newton, "maxent.detect_condensation") * 1e3
    solutions += [eo.solve_multipliers(grid, config) for grid, config in sweep]
    bisection = Tracer()
    tracers.append(bisection)
    with bisection:
        for grid, config in randoms:
            eo.solve_multipliers_bisection(grid, config)
    widest = Tracer()
    tracers.append(widest)
    with widest:
        eo.solve_multipliers(*wide)
    newton_iters = [s.iterations for s in solutions if s.method == "newton"]
    return {
        "maxent.solve_us": solve_us,
        "maxent.detect_condensation_us": detect_us,
        "maxent.newton_iterations_mean": statistics.mean(newton_iters),
        "maxent.newton_iterations_max": max(newton_iters),
        "maxent.fallback_frac": sum(s.method == "bisection" for s in solutions) / len(solutions),
        "maxent.pinned_count": sum(s.pinned for s in solutions),
        "maxent.nonconverged_count": sum(not s.converged for s in solutions),
        "maxent.bisection_ms": mean_ms(bisection, "maxent.solve_multipliers_bisection"),
        "maxent.solve_2000_levels_ms": mean_ms(widest, "maxent.solve_multipliers"),
        "macro.identity_us": mean_ms(newton, "macro.entropy_identity_residual") * 1e3,
        "macro.log_W_us": mean_ms(newton, "macro.log_W") * 1e3,
        "macro.map_us": mean_ms(newton, "macro.macro_from_multipliers") * 1e3,
    }


def layer_suite(workdir: Path) -> tuple[dict, list[Tracer]]:
    tracers: list[Tracer] = []
    metrics = import_rows()
    metrics.update(cli_rows(workdir, tracers))
    metrics.update(counting_rows(tracers))
    metrics.update(sampling_rows(tracers))
    metrics.update(solver_rows(tracers))
    return metrics, tracers
