"""The benchmark's four workloads.

Each workload builds its inputs from a seed, runs one op at a time, and
checks every op's output by a route the package already has (its gate).
Ops come in a fixed deck; a run repeats whole decks so that every run
measures the same mix of sizes.  The seed varies the instances (degeneracies,
totals, sampler seeds), never the sizes.

``tiny=True`` shrinks every size for the benchmark's self-test.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from pathlib import Path

import numpy as np

# calls go through the package namespace, where an installed Tracer sees them
import econorder as eo
from econorder import EconomyConfig, Regime, RevenueGrid

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REGIMES = (Regime.MONOPOLISTIC, Regime.PERFECT)


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple


class Workload:
    name = ""
    # layers whose spans should cover the op time (checked in the traced run)
    claimed: tuple[str, ...] = ()
    # Every op runs at least three times and counts its fastest run: on a
    # shared machine single timings swing by half, for seconds at a time.
    min_decks = 3
    # Outputs are deterministic, so only the first run of an op is gated,
    # unless a gate compares repeats (cli-cold's artifacts).
    gate_replay = False

    def run(self, op: Op):
        raise NotImplementedError

    def run_traced(self, op: Op, tracer):
        """Run one op under an installed tracer."""
        return self.run(op)

    def gate(self, op: Op, result) -> bool:
        raise NotImplementedError

    def close(self) -> int:
        """Failures that only a whole run can show (pooled tests)."""
        return 0


# -- exact-orders ------------------------------------------------------------


def _degeneracies(rng: np.random.Generator, n: int) -> tuple[int, ...]:
    return tuple(int(g) for g in rng.integers(1, 4, size=n))


class ExactOrders(Workload):
    """What ``econorder enumerate`` computes, plus exact big counts."""

    name = "exact-orders"
    claimed = ("enumeration", "counting")
    LEVELS = (1, 2, 3, 4, 5)
    SHAPE = (0.3, 0.25, 0.2, 0.15, 0.1)  # fixed occupancy shape of big counts
    # Cost grows with the size of the integers, so with the degeneracies.
    # The seed permutes one fixed multiset of them, and draws twice per size,
    # so that it moves which level is degenerate, not the cost of the deck.
    DEGENERACIES = (1, 2, 2, 3, 3)
    DRAWS = 2
    # Ops stay under about 0.15 s so that a run holds a dozen decks or more:
    # the fastest of many short runs is steady on a shared machine, the
    # fastest of a few long ones is not.  The layer suite still measures the
    # N=100 catalog and the N=1e5 big count.
    LADDER = range(30, 61, 10)
    BIG = (10_000, 20_000)

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        ladder = (6, 9) if tiny else self.LADDER
        big = (300, 1000) if tiny else self.BIG
        rng = np.random.default_rng(seed)
        self.ops = []
        for regime in REGIMES:
            for n in ladder:
                for _ in range(self.DRAWS):
                    grid = RevenueGrid(self.LEVELS, self._degeneracies(rng))
                    self.ops.append(Op("catalog", (grid, EconomyConfig(n, 3 * n, regime))))
            for n in big:
                grid = RevenueGrid(self.LEVELS, self._degeneracies(rng))
                occ = [int(n * share) for share in self.SHAPE]
                occ[0] += n - sum(occ)
                self.ops.append(Op("multiplicity", (tuple(occ), grid, regime)))

    def _degeneracies(self, rng: np.random.Generator) -> tuple[int, ...]:
        return tuple(int(g) for g in rng.permutation(self.DEGENERACIES))

    def run(self, op: Op):
        if op.kind == "catalog":
            cat = eo.catalog(*op.args)
            return cat, cat.most_probable(), cat.tie_set()
        return eo.multiplicity(*op.args)

    def gate(self, op: Op, result) -> bool:
        if op.kind == "multiplicity":
            return log_matches(result, *op.args)
        grid, config = op.args
        cat, top, ties = result
        entries = cat.entries
        for entry in entries:
            occ = entry.order.occupancy
            if sum(occ) != config.n_firms:
                return False
            if sum(a * e for a, e in zip(occ, grid.levels)) != config.total_revenue:
                return False
            if not log_matches(entry.multiplicity, occ, grid, config.regime):
                return False
        best = max(entry.multiplicity for entry in entries)
        tied = sorted(e.order.occupancy for e in entries if e.multiplicity == best)
        if top.occupancy != tied[0] or sorted(o.occupancy for o in ties) != tied:
            return False
        if not sums_to_one([entry.probability for entry in entries], cat.total_outcomes):
            return False
        return cat.total_outcomes == eo.feasible_outcome_count(grid, config)


def log_matches(count: int, occ, grid: RevenueGrid, regime: Regime) -> bool:
    """ln of an exact count agrees with the log-gamma route to 1e-9 relative."""
    exact = math.log(count) if count > 0 else -math.inf
    approx = eo.log_multiplicity(occ, grid, regime)
    return abs(exact - approx) <= 1e-9 * max(1.0, abs(approx))


def sums_to_one(probabilities: list[Fraction], total: int) -> bool:
    """Exact test of sum(probabilities) == 1.

    Correct probabilities are multiples of 1/total, so they add as integers;
    any other denominator falls back to plain Fraction addition.
    """
    acc = 0
    for p in probabilities:
        quotient, rest = divmod(total, p.denominator)
        if rest:
            return sum(probabilities, Fraction(0)) == 1
        acc += p.numerator * quotient
    return acc == total


# -- sampling ----------------------------------------------------------------


def chi2_sf(stat: float, dof: int) -> float:
    """Upper tail of the chi-square law (Wilson-Hilferty cube-root normal)."""
    if dof <= 0:
        return 1.0
    k = float(dof)
    z = ((stat / k) ** (1.0 / 3.0) - (1.0 - 2.0 / (9.0 * k))) / math.sqrt(2.0 / (9.0 * k))
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def outcome_is_feasible(outcome, grid: RevenueGrid, config: EconomyConfig) -> bool:
    if outcome.regime is Regime.MONOPOLISTIC:
        placed = [(pos, 1) for pos in outcome.assignment]
    else:
        placed = list(outcome.assignment)
    firms = revenue = 0
    for (level, slot), count in placed:
        if not (0 <= level < grid.n and 0 <= slot < grid.degeneracies[level]) or count < 1:
            return False
        firms += count
        revenue += count * grid.levels[level]
    if firms != config.n_firms:
        return False
    return config.total_revenue is None or revenue == config.total_revenue


def sample_session(grid, config, seed: int, draws: int, cap: int):
    """What ``econorder sample`` computes: draws, frequencies, then the exact
    catalog when the space fits under the cap, else the order-coverage probe."""
    stream = eo.sample_outcomes(grid, config, seed, cap=cap)
    outcomes = list(islice(stream, draws))
    freqs = eo.empirical_frequencies(outcomes, grid)
    if eo.feasible_outcome_count(grid, config) <= cap:
        return outcomes, freqs, eo.catalog(grid, config), None
    missing = set(eo.enumerate_orders(grid, config)) - set(freqs)
    return outcomes, freqs, None, missing


class Sampling(Workload):
    """One ``econorder sample`` session per op, in the CLI's order."""

    name = "sampling"
    claimed = ("enumeration", "counting")
    CAP = 200_000  # caps.max_outcomes: the uniform class fits, the chain class does not
    CHAIN_LEVELS = (1, 2, 3, 4, 5)  # consecutive levels keep the pair-move chain ergodic
    DRAWS = 400  # caps.sample_draws
    CHAIN_PMIN = 0.15  # every order gets >= 60 expected visits in DRAWS draws
    P_FLOOR = 1e-6  # pooled chi-square p-value below which the uniform path fails

    # uniform class: (firms, outcome band) per regime.  The firm count is
    # fixed because the cost per outcome grows with it.  Sessions stay under
    # about 0.1 s, for the reason given in exact-orders; the layer suite
    # measures the 73,789-outcome session and the chain at N=50.
    UNIFORM = {
        Regime.MONOPOLISTIC: ((6, 2_000, 3_000), (7, 3_000, 5_000)),
        Regime.PERFECT: ((10, 2_000, 3_000), (12, 3_000, 5_000)),
    }
    CHAIN_FIRMS = (20, 20)
    # A session's cost follows its outcome space and, on the chain, its
    # degeneracies, which vary by half within a slot.  So the grids come from
    # this fixed seed and the run's seed draws the sampler seeds only.
    LAYOUT_SEED = 0

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.draws = 200 if tiny else self.DRAWS
        self.cap = 2_000 if tiny else self.CAP
        chain_firms = (8, 12) if tiny else self.CHAIN_FIRMS
        layout = np.random.default_rng(self.LAYOUT_SEED)
        rng = np.random.default_rng(seed)
        self.ops = []
        for regime in REGIMES:
            for n, lo, hi in ((6, 100, 1_000),) if tiny else self.UNIFORM[regime]:
                grid, config = self._uniform_instance(layout, regime, n, lo, hi)
                self.ops.append(Op("uniform", (grid, config, int(rng.integers(2**31)))))
            for n in chain_firms:
                grid, config = self._chain_instance(layout, regime, n)
                self.ops.append(Op("chain", (grid, config, int(rng.integers(2**31)))))
        self._chi_stat = 0.0
        self._chi_dof = 0
        self._pooled: set[int] = set()

    def _uniform_instance(self, rng, regime, n, lo, hi):
        """3 levels, n firms, outcome space between lo and hi (sampled by index)."""
        while True:
            grid = RevenueGrid((1, 2, 3), _degeneracies(rng, 3))
            config = EconomyConfig(n, int(rng.integers(n + 1, 3 * n)), regime)
            if lo <= eo.feasible_outcome_count(grid, config) <= hi:
                return grid, config

    def _chain_instance(self, rng, regime, n):
        """5 consecutive levels, a little revenue above the ground state, and
        an outcome space above the cap, so the chain path runs.  The ground
        degeneracy keeps the order probabilities comparable; instances whose
        least likely order is rarer than CHAIN_PMIN are redrawn, because a
        missed order there would be sampling noise, not a defect."""
        while True:
            if regime is Regime.MONOPOLISTIC:
                ground = int(rng.integers(n // 2, 2 * n))
            else:
                ground = int(rng.integers(4, 7))
            grid = RevenueGrid(self.CHAIN_LEVELS, (ground,) + _degeneracies(rng, 4))
            config = EconomyConfig(n, n + int(rng.integers(3, 7)), regime)
            cat = eo.catalog(grid, config)
            if cat.total_outcomes > self.cap and min(
                e.probability for e in cat.entries
            ) >= self.CHAIN_PMIN:
                return grid, config

    def run(self, op: Op):
        return sample_session(*op.args, self.draws, self.cap)

    def gate(self, op: Op, result) -> bool:
        grid, config, _seed = op.args
        outcomes, freqs, exact, missing = result
        if len(outcomes) != self.draws:
            return False
        if not all(outcome_is_feasible(o, grid, config) for o in outcomes):
            return False
        if op.kind == "chain":
            return exact is None and not missing
        if exact is None:
            return False
        if id(op) in self._pooled:
            return True  # a repeated deck replays the same seeded draws
        self._pooled.add(id(op))
        stat, dof = chi_square(freqs, exact, self.draws)
        self._chi_stat += stat
        self._chi_dof += dof
        return True

    def pooled_pvalue(self) -> float:
        return chi2_sf(self._chi_stat, self._chi_dof)

    def close(self) -> int:
        # the pooled test fails every uniform session it pools
        return len(self._pooled) if self.pooled_pvalue() < self.P_FLOOR else 0


def chi_square(freqs, exact, draws: int) -> tuple[float, int]:
    """Chi-square of sampled order counts against the exact catalog.

    Orders expected fewer than 5 times are pooled into one bin; an order the
    catalog does not know gets an expected count of zero and fails outright.
    """
    known = {entry.order: float(entry.probability) * draws for entry in exact.entries}
    if any(order not in known for order in freqs):
        return math.inf, 1
    stat = 0.0
    bins = 0
    rest_obs = rest_exp = 0.0
    for order, expected in known.items():
        observed = float(freqs.get(order, 0)) * draws
        if expected >= 5.0:
            stat += (observed - expected) ** 2 / expected
            bins += 1
        else:
            rest_obs += observed
            rest_exp += expected
    if rest_exp > 0.0:
        stat += (rest_obs - rest_exp) ** 2 / rest_exp
        bins += 1
    return stat, bins - 1


# -- solve-sweep -------------------------------------------------------------


def random_solver_instance(rng: np.random.Generator, regime: Regime):
    """Interior instance, drawn as econorder.checks.random_solver_instance
    draws it (copied so the workload does not import the checks module)."""
    n = int(rng.integers(2, 7))
    levels = tuple(sorted(rng.choice(np.arange(1, 61), size=n, replace=False).tolist()))
    degens = tuple(int(rng.integers(1, 6)) for _ in range(n))
    n_firms = int(rng.integers(5, 400))
    u = 0.15 + 0.7 * rng.random()
    mean = levels[0] + u * (levels[-1] - levels[0])
    total = int(round(n_firms * mean))
    total = min(max(total, n_firms * levels[0] + 1), n_firms * levels[-1] - 1)
    return RevenueGrid(levels, degens), EconomyConfig(n_firms, total, regime)


def condensation_instances(rng, regime, sizes, excesses):
    """3 levels with the total revenue just above the ground state."""
    return [
        (RevenueGrid((1, 2, 3), _degeneracies(rng, 3)), EconomyConfig(n, n + d, regime))
        for n in sizes
        for d in excesses
    ]


def wide_instance(rng, regime, levels: int):
    grid = RevenueGrid(tuple(range(1, levels + 1)), tuple(int(g) for g in rng.integers(1, 6, size=levels)))
    n = int(rng.integers(1_000, 100_000))
    return grid, EconomyConfig(n, int(n * (1 + rng.uniform(0.05, 0.6) * (levels - 1))), regime)


def occupancy_at(alpha: float, beta: float, grid: RevenueGrid, regime: Regime) -> np.ndarray:
    """Closed-form occupancy, computed here as the gate's independent route."""
    x = alpha + beta * np.asarray(grid.levels, dtype=float)
    g = np.asarray(grid.degeneracies, dtype=float)
    if regime is Regime.PERFECT:
        return g / np.expm1(x)
    return g * np.exp(-x)


class SolveSweep(Workload):
    """What ``econorder solve`` and ``econorder macro`` compute."""

    name = "solve-sweep"
    claimed = ("maxent", "macro")
    RESIDUAL = 1e-10
    ORACLE_GAP = 1e-8
    SWEEP_SIZES = (10, 100, 1_000, 10_000, 100_000)

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        interior = 10 if tiny else 300
        sizes = (10, 100) if tiny else self.SWEEP_SIZES
        excesses = (1, 3) if tiny else (1, 2, 3, 5, 8, 13)
        wide, wide_levels = (1, 50) if tiny else (4, 2_000)
        rng = np.random.default_rng(seed)
        self.ops = []
        for regime in REGIMES:
            self.ops += [Op("interior", random_solver_instance(rng, regime)) for _ in range(interior)]
            self.ops += [Op("condensation", x) for x in condensation_instances(rng, regime, sizes, excesses)]
            self.ops += [Op("wide", wide_instance(rng, regime, wide_levels)) for _ in range(wide)]
        # the bisection oracle checks a seeded subset: a dozen narrow grids and one wide grid
        narrow = [i for i, op in enumerate(self.ops) if op.kind != "wide"]
        wides = [i for i, op in enumerate(self.ops) if op.kind == "wide"]
        self.oracle = set(rng.choice(narrow, size=min(12, len(narrow)), replace=False).tolist())
        self.oracle.add(int(rng.choice(wides)))
        self._index = {id(op): i for i, op in enumerate(self.ops)}
        self._checked: set[int] = set()

    def run(self, op: Op):
        grid, config = op.args
        sol = eo.solve_multipliers(grid, config)
        cond = eo.detect_condensation(sol, grid, config)
        macro = identity = None
        # as the CLI does: no macro mapping without finite, nonzero multipliers
        if sol.alpha is not None and sol.beta not in (None, 0.0):
            macro = eo.macro_from_multipliers(sol.alpha, sol.beta)
            identity = eo.entropy_identity_residual(sol.alpha, sol.beta, grid, config.regime)
        tech = eo.technology(eo.stirling_log_multiplicity(sol.occupancy, grid, config.regime))
        return sol, cond, macro, identity, tech

    def gate(self, op: Op, result) -> bool:
        grid, config = op.args
        sol, cond, macro, identity, tech = result
        if not sol.converged or sol.alpha is None or sol.beta is None:
            return False
        occ = occupancy_at(sol.alpha, sol.beta, grid, config.regime)
        res_n = abs(float(occ.sum()) - config.n_firms) / config.n_firms
        res_pi = abs(float(occ @ np.asarray(grid.levels, float)) - config.total_revenue) / max(
            1.0, config.total_revenue
        )
        if not (res_n <= self.RESIDUAL and res_pi <= self.RESIDUAL):
            return False
        values = [cond.ground_fraction, tech]
        if macro is not None:
            values += [macro.mu, macro.theta, identity.residual]
        if not all(math.isfinite(v) for v in values):
            return False
        index = self._index[id(op)]
        if index in self.oracle and index not in self._checked:
            self._checked.add(index)
            return self.matches_oracle(op, sol)
        return True

    def matches_oracle(self, op: Op, sol) -> bool:
        grid, config = op.args
        oracle = eo.solve_multipliers_bisection(grid, config)
        gap = np.max(np.abs(np.asarray(sol.occupancy) - np.asarray(oracle.occupancy)))
        return bool(gap <= self.ORACLE_GAP * config.n_firms)


# -- cli-cold ----------------------------------------------------------------

CONFIGS = ROOT / "demos" / "configs"
# (subcommand, config file or None for the seeded CSV, takes --seed)
COMMANDS = (
    ("enumerate", "two_firms.ini", False),
    ("solve", "condensation.ini", False),
    ("sample", "two_firms.ini", True),
    ("macro", "two_level_solve.ini", False),
    ("check", "condensation.ini", False),
    ("fit", None, False),
)
EXPECTED_EXIT = 0  # every command above succeeds (cli.py: 0 ok, 1-4 failures)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def artifact_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(out)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


class CliCold(Workload):
    """One cold ``python -m econorder.cli <cmd>`` subprocess per op."""

    name = "cli-cold"
    claimed = ("import",)
    gate_replay = True  # artifacts must match across repeats, traced or not

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.workdir = workdir
        self.csv = self.write_inputs(workdir, seed, tiny)
        self.ops = []
        for cmd, config, seeded in COMMANDS:
            argv = [cmd, str(self.csv)] if config is None else [cmd, "--config", str(CONFIGS / config)]
            if seeded:
                argv += ["--seed", str(seed)]
            self.ops.append(Op(cmd, tuple(argv)))
        self._repeat = 0
        self._digests: dict[str, str] = {}
        self.env = cli_env()

    @staticmethod
    def write_inputs(workdir: Path, seed: int, tiny: bool) -> Path:
        """Seeded income-like samples: an exponential body above a floor."""
        path = workdir / "samples.csv"
        rng = np.random.default_rng(seed)
        rows = 2_000 if tiny else 200_000
        np.savetxt(path, 1.0 + rng.exponential(5.0, size=rows), fmt="%.6f")
        return path

    def _out(self, op: Op) -> Path:
        self._repeat += 1
        return self.workdir / "out" / ("%s-%d" % (op.kind, self._repeat))

    def run(self, op: Op):
        out = self._out(op)
        proc = subprocess.run(
            [sys.executable, "-m", "econorder.cli", *op.args, "--out", str(out)],
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            check=False,
        )
        return proc.returncode, out, proc.stderr

    def run_traced(self, op: Op, tracer):
        import json

        out = self._out(op)
        summary_path = out.with_suffix(".spans.json")
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "tracecli.py"), str(summary_path), *op.args, "--out", str(out)],
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            check=False,
        )
        if summary_path.exists():
            tracer.absorb(json.loads(summary_path.read_text()))
            summary_path.unlink()
        return proc.returncode, out, proc.stderr

    def gate(self, op: Op, result) -> bool:
        code, out, stderr = result
        if code != EXPECTED_EXIT:
            sys.stderr.write(stderr.decode(errors="replace"))
            return False
        digest = artifact_digest(out)
        return self._digests.setdefault(op.kind, digest) == digest


WORKLOADS = {w.name: w for w in (ExactOrders, Sampling, SolveSweep, CliCold)}
