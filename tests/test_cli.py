"""Command-line interface: outputs, exit codes, and determinism."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from econorder import (
    EconOrderError,
    EconomyConfig,
    Regime,
    RevenueGrid,
    cli,
    counting,
    enumeration,
    solve_multipliers,
)
from econorder.checks import check_sampler
from econorder.cli import main

SOURCE_ROOT = str(Path(cli.__file__).resolve().parent.parent)
# the CLI in a process whose address space may not grow past 1 GiB
LIMITED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
from econorder.cli import main
sys.exit(main(sys.argv[1:]))
"""

EXAMPLE_TWO_FIRMS = """
[grid]
levels = 1 2
degeneracies = 1 1

[economy]
N = 2
regime = mon
seeds = 7
"""

TWO_LEVEL_SOLVE = """
[grid]
levels = 1 2

[economy]
N = 10
Pi = 14
regime = mon
"""

CONDENSED = """
[grid]
levels = 1 2 3

[economy]
N = 100
Pi = 105
regime = per
"""

CHECK_CONFIG = """
[grid]
levels = 1 2 3

[economy]
N = 12
Pi = 24
regime = per
seeds = 42

[caps]
sample_draws = 4000
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text.strip() + "\n")
    return path


def read_rows(path):
    with path.open() as handle:
        return list(csv.DictReader(handle))


def count_calls(monkeypatch, name, module=enumeration):
    """Record each call of ``<module>.<name>``, by default a name in
    ``econorder.enumeration``; returns the log."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("command", ["enumerate", "sample"])
def test_orders_listed_once(tmp_path, monkeypatch, command):
    calls = count_calls(monkeypatch, "enumerate_orders")
    config = write_config(tmp_path, EXAMPLE_TWO_FIRMS)
    assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


INFEASIBLE = EXAMPLE_TWO_FIRMS.replace("regime = mon", "regime = mon\nPi = 1000")
CAPPED = EXAMPLE_TWO_FIRMS.replace("N = 2", "N = 12") + "\n[caps]\nmax_outcomes = 12\n"
BOUNDARY = TWO_LEVEL_SOLVE.replace("Pi = 14", "Pi = 10")


@pytest.mark.parametrize(
    "argv,text,code",
    [
        (["enumerate"], INFEASIBLE, 2),
        (["solve"], INFEASIBLE, 2),
        (["sample"], INFEASIBLE, 2),
        (["sample", "--log-outcomes"], INFEASIBLE, 2),
        (["macro"], INFEASIBLE, 2),
        (["macro"], BOUNDARY, 2),
        (["enumerate"], CAPPED, 4),
        (["sample", "--log-outcomes"], CAPPED, 4),
    ],
    ids=[
        "enumerate-infeasible",
        "solve-infeasible",
        "sample-infeasible",
        "sample-log-infeasible",
        "macro-infeasible",
        "macro-boundary",
        "enumerate-cap",
        "sample-log-cap",
    ],
)
def test_failed_command_makes_no_output_folder(tmp_path, capsys, argv, text, code):
    config = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(argv + ["--config", str(config), "--out", str(out)]) == code
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == ("infeasible" if code == 2 else "cap_exceeded")
    assert not out.exists()


# 1,200 levels, far deeper than the interpreter's recursion limit; the one
# feasible order puts the firm on level 7
TWELVE_HUNDRED_LEVELS = """
[grid]
levels = %s

[economy]
N = 1
Pi = 7
regime = mon

[caps]
sample_draws = 100
""" % " ".join(map(str, range(1, 1201)))


@pytest.mark.parametrize("command, table", [("enumerate", "orders.csv"), ("sample", "frequencies.csv")])
def test_twelve_hundred_levels(tmp_path, command, table):
    config = write_config(tmp_path, TWELVE_HUNDRED_LEVELS)
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    rows = read_rows(out / table)
    assert [r["occupancy"] for r in rows] == [" ".join("1" if k == 6 else "0" for k in range(1200))]


def extreme_config(levels, n_firms, total, regime, degeneracies=None):
    grid = "levels = %s\n" % " ".join(map(str, levels))
    if degeneracies is not None:
        grid += "degeneracies = %s\n" % " ".join(map(str, degeneracies))
    return "[grid]\n%s\n[economy]\nN = %d\nPi = %d\nregime = %s\n" % (
        grid, n_firms, total, regime
    )


def all_g1_config(levels, n_firms, total, regime):
    """extreme_config with every degeneracy written out as 1."""
    return extreme_config(levels, n_firms, total, regime, [1] * len(levels))


HUGE_N = 10**150
# (config, the exit code of enumerate, solve, sample and macro in turn)
EXTREME_SHAPES = {
    # one firm on 2,000 levels
    "wide-mon": (extreme_config(range(1, 2001), 1, 1000, "mon"), (0, 0, 0, 0)),
    "wide-per": (extreme_config(range(1, 2001), 1, 1000, "per"), (0, 0, 0, 0)),
    # gaps and level 0
    "gaps": (extreme_config((0, 3, 7, 20), 12, 60, "mon"), (0, 0, 0, 0)),
    # past any listing, which the order cap refuses; the solvers work in floats
    "huge-n": (extreme_config((1, 2, 3), HUGE_N, HUGE_N + HUGE_N // 3, "per"), (4, 0, 4, 0)),
    # every degeneracy 1: under perfect competition every order counts 1 and ties
    "all-g1-mon": (all_g1_config((1, 2, 3, 4, 5), 30, 60, "mon"), (0, 0, 0, 0)),
    "all-g1-per": (all_g1_config((1, 2, 3, 4, 5), 30, 60, "per"), (0, 0, 0, 0)),
}


@pytest.mark.parametrize("shape", EXTREME_SHAPES)
def test_extreme_shapes_end_in_time_with_a_documented_exit(tmp_path, capsys, shape):
    # each run ends within a wall-clock budget (about 1.5 s is the slowest,
    # sample on 2,000 levels); a refusal exits with its code and a JSON error
    text, codes = EXTREME_SHAPES[shape]
    config = write_config(tmp_path, text)
    for command, code in zip(("enumerate", "solve", "sample", "macro"), codes):
        out = tmp_path / command
        start = time.perf_counter()
        assert main([command, "--config", str(config), "--out", str(out)]) == code, command
        assert time.perf_counter() - start < 20.0, command
        last = capsys.readouterr().out.strip().splitlines()[-1]
        if code:
            assert json.loads(last)["error"] == "cap_exceeded" and not out.exists()
        else:
            assert last.endswith(str(out))


FLOAT_MAX = int(sys.float_info.max)  # the solvers refuse N or Pi above it
PER_MAX = math.isqrt(FLOAT_MAX)  # perfect competition refuses N above it (N^2 overflows)
LN_N_FACTORIAL_MAX = 256 * 10**303  # ln N! overflows a float from N = 2.56e305 on
BELOW = 25 * 10**304
STIRLING_N = 25599 * 10**301  # ln N! is finite, a ln a of a_0 ~ N is not
# (levels, N, Pi, regime, the exit code of solve and macro, the start of the
# error message or None): each shape lies just at or past one bound, on a
# grid with every g = 1 and Pi off the grid's mean, so that macro is defined
FLOAT_EDGES = {
    "mon-ln-n-factorial-below": ((1, 2, 3), BELOW, BELOW * 4 // 3, "mon", 0, None),
    "mon-ln-n-factorial-above": (
        (1, 2, 3),
        LN_N_FACTORIAL_MAX,
        LN_N_FACTORIAL_MAX * 4 // 3,
        "mon",
        1,
        "order: the Stirling sum",
    ),
    "mon-n-at-float-max": ((0, 1, 3), FLOAT_MAX, FLOAT_MAX, "mon", 1, "order: the Stirling sum"),
    "mon-stirling-sum-above": (
        (1, 2, 3), STIRLING_N, STIRLING_N + 10**290, "mon", 1, "order: the Stirling sum"
    ),
    "mon-n-above": ((0, 1, 3), FLOAT_MAX + 1, FLOAT_MAX, "mon", 1, "economy.N: above"),
    "mon-pi-at-float-max": ((1, 2, 1000), BELOW, FLOAT_MAX, "mon", 0, None),
    "mon-pi-above": ((1, 2, 1000), BELOW, FLOAT_MAX + 1, "mon", 1, "economy.Pi: above"),
    "per-n-at-max": ((1, 2, 3), PER_MAX, PER_MAX * 4 // 3, "per", 0, None),
    "per-n-above": (
        (1, 2, 3), PER_MAX + 1, (PER_MAX + 1) * 4 // 3, "per", 1, "economy.N: perfect"
    ),
    # theta = 1 / beta overflows: refused, not written as Infinity
    "per-pi-at-float-max": ((1, 2, 10**155), PER_MAX, FLOAT_MAX, "per", 1, "macro.theta"),
    "per-pi-above": ((1, 2, 10**155), PER_MAX, FLOAT_MAX + 1, "per", 1, "economy.Pi: above"),
}


@pytest.mark.parametrize("shape", FLOAT_EDGES)
@pytest.mark.parametrize("command", ["solve", "macro"])
def test_float_range_edges_finish_or_refuse_by_name(tmp_path, capsys, command, shape):
    # exit 0, or exit 1 with a JSON config error naming the bound and no
    # --out directory; never a traceback, and each run well within a second
    *economy, code, message = FLOAT_EDGES[shape]
    config = write_config(tmp_path, all_g1_config(*economy))
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main([command, "--config", str(config), "--out", str(out)]) == code
    assert time.perf_counter() - start < 5.0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    if code:
        err = json.loads(last)
        assert err["error"] == "config" and err["message"].startswith(message)
        assert not out.exists()
    else:
        assert last.endswith(str(out))


class TestEnumerate:
    def test_two_firm_example_counts(self, tmp_path):
        config = write_config(tmp_path, EXAMPLE_TWO_FIRMS)
        out = tmp_path / "out"
        assert main(["enumerate", "--config", str(config), "--out", str(out)]) == 0
        rows = read_rows(out / "orders.csv")
        got = {r["occupancy"]: int(r["multiplicity"]) for r in rows}
        assert got == {"1 1": 2, "0 2": 1, "2 0": 1}
        probs = {r["occupancy"]: (int(r["probability_num"]), int(r["probability_den"])) for r in rows}
        assert probs["1 1"] == (1, 2)
        spont = json.loads((out / "spontaneous.json").read_text())
        assert spont["order"] == [1, 1]
        assert spont["tie_set"] == [[1, 1]]

    def test_revenue_constraint_single_order(self, tmp_path):
        config = write_config(
            tmp_path, EXAMPLE_TWO_FIRMS.replace("regime = mon", "regime = mon\nPi = 3")
        )
        out = tmp_path / "out"
        assert main(["enumerate", "--config", str(config), "--out", str(out)]) == 0
        rows = read_rows(out / "orders.csv")
        assert len(rows) == 1 and rows[0]["occupancy"] == "1 1"
        assert rows[0]["probability_float"] == "1.0"

    def test_single_firm_single_row(self, tmp_path):
        config = write_config(
            tmp_path,
            "[grid]\nlevels = 5\n\n[economy]\nN = 1\nPi = 5\nregime = mon\n",
        )
        out = tmp_path / "out"
        assert main(["enumerate", "--config", str(config), "--out", str(out)]) == 0
        rows = read_rows(out / "orders.csv")
        assert len(rows) == 1
        assert rows[0]["probability_float"] == "1.0"

    def test_byte_identical_across_runs(self, tmp_path):
        config = write_config(tmp_path, EXAMPLE_TWO_FIRMS)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["enumerate", "--config", str(config), "--out", str(out1)])
        main(["enumerate", "--config", str(config), "--out", str(out2)])
        assert (out1 / "orders.csv").read_bytes() == (out2 / "orders.csv").read_bytes()
        assert (out1 / "spontaneous.json").read_bytes() == (out2 / "spontaneous.json").read_bytes()

    def test_infeasible_exits_2(self, tmp_path, capsys):
        config = write_config(
            tmp_path, EXAMPLE_TWO_FIRMS.replace("regime = mon", "regime = mon\nPi = 5")
        )
        assert main(["enumerate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "infeasible"

    def test_cap_exceeded_exits_4(self, tmp_path, capsys, monkeypatch):
        # N = 12 firms over two levels: 13 orders, one more than the cap,
        # which stops the listing before any order is counted
        counted = count_calls(monkeypatch, "_multiplicities")
        walked = count_calls(monkeypatch, "_ratio_walk", counting)
        checked = count_calls(monkeypatch, "multiplicity")
        text = EXAMPLE_TWO_FIRMS.replace("N = 2", "N = 12") + "\n[caps]\nmax_outcomes = 12\n"
        config = write_config(tmp_path, text)
        assert main(["enumerate", "--config", str(config), "--out", str(tmp_path / "o")]) == 4
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "cap_exceeded"
        assert "order list" in err["message"]
        assert counted == walked == checked == []

    def test_cap_exceeded_on_a_million_firms_holds_no_level(self, tmp_path, capsys):
        # the root level of five holds about 10^6 prefixes; the listing is
        # refused at the first run past the cap, before the rest are made
        text = extreme_config((1, 2, 3, 4, 5), 10**6, 3 * 10**6, "per")
        config = write_config(tmp_path, text + "\n[caps]\nmax_outcomes = 1000\n")
        out = tmp_path / "o"
        tracemalloc.start()
        try:
            assert main(["enumerate", "--config", str(config), "--out", str(out)]) == 4
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "cap_exceeded"
        assert "order list" in err["message"] and "cap of 1000" in err["message"]
        assert not out.exists()
        assert peak < 1_000_000

    def test_total_past_the_digit_limit_exits_4(self, tmp_path, capsys):
        # two levels, no total: T = 2**14400 has 4,335 digits, past CPython's
        # default int-to-str limit of 4,300, which every count would meet
        config = write_config(tmp_path, EXAMPLE_TWO_FIRMS.replace("N = 2", "N = 14400"))
        out = tmp_path / "o"
        assert main(["enumerate", "--config", str(config), "--out", str(out)]) == 4
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "cap_exceeded"
        assert err["message"] == (
            "total outcome count has 4335 decimal digits, exceeding the cap of 4300"
        )
        assert not out.exists()

    @pytest.mark.parametrize("room", [0, -1])
    def test_digit_limit_is_exact(self, tmp_path, capsys, room):
        # N = 2127: T = 2**2127 has 641 digits, one above the lowest limit
        # CPython takes (640); a limit of 641 writes every file, 640 refuses
        config = write_config(tmp_path, EXAMPLE_TWO_FIRMS.replace("N = 2", "N = 2127"))
        out = tmp_path / "o"
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(641 + room)
        try:
            code = main(["enumerate", "--config", str(config), "--out", str(out)])
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == (4 if room else 0)
        assert out.exists() != bool(room)
        if not room:
            top = json.loads((out / "spontaneous.json").read_text())
            assert top["total_outcomes"] == str(2**2127)

    def test_power_past_comb_bound_is_refused_not_built(self, tmp_path):
        # levels 1 2 3, g 1 1 2, N = 10^20, Pi = 3N - 1: the one order
        # (0, 1, N - 1) counts N * 2**(N - 1), a power no memory holds.  Run
        # under a 1 GiB address space and a time budget, enumerate refuses
        # it by name where building 2**(N - 1) died with a MemoryError.
        n_firms = 10**20
        text = extreme_config((1, 2, 3), n_firms, 3 * n_firms - 1, "mon", (1, 1, 2))
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        path = os.pathsep.join(filter(None, (SOURCE_ROOT, os.environ.get("PYTHONPATH"))))
        result = subprocess.run(
            [sys.executable, "-c", LIMITED_CLI, "enumerate", "--config", str(config),
             "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1"),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 1, result.stderr
        err = json.loads(result.stdout.strip().splitlines()[-1])
        message = "count: N = %d firms is too many to form an order's exact count"
        assert err == {"error": "config", "message": message % n_firms}
        assert not out.exists()


class TestSolve:
    def test_two_level_solution_files(self, tmp_path):
        config = write_config(tmp_path, TWO_LEVEL_SOLVE)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
        solution = json.loads((out / "solution.json").read_text())
        assert solution["converged"] is True
        assert solution["occupancy"][0] == pytest.approx(6.0, rel=1e-9)
        assert solution["occupancy"][1] == pytest.approx(4.0, rel=1e-9)
        rows = read_rows(out / "occupancy.csv")
        assert [r["revenue"] for r in rows] == ["1", "2"]
        assert float(rows[0]["occupancy"]) == pytest.approx(6.0, rel=1e-9)

    def test_condensed_instance_flagged(self, tmp_path):
        config = write_config(tmp_path, CONDENSED)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
        solution = json.loads((out / "solution.json").read_text())
        assert solution["condensation"]["condensed"] is True
        assert solution["condensation"]["ground_fraction"] > 0.9

    def test_boundary_degenerate(self, tmp_path):
        config = write_config(tmp_path, TWO_LEVEL_SOLVE.replace("Pi = 14", "Pi = 10"))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
        solution = json.loads((out / "solution.json").read_text())
        assert solution["boundary"] is True
        assert solution["alpha"] is None
        assert solution["occupancy"] == [10.0, 0.0]

    @pytest.mark.parametrize("command", ["solve", "macro"])
    def test_economy_past_float_range_is_a_config_error(self, tmp_path, capsys, command):
        # levels 1 2 3, N = 10^400, Pi = 2 * 10^400: refused by name, no traceback
        text = CONDENSED.replace("N = 100", "N = %d" % 10**400).replace(
            "Pi = 105", "Pi = %d" % (2 * 10**400)
        )
        out = tmp_path / "out"
        assert main([command, "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "config"
        assert "economy.N" in err["message"]
        assert not out.exists()

    def test_regime_override_flag(self, tmp_path):
        config = write_config(tmp_path, TWO_LEVEL_SOLVE)
        out = tmp_path / "out"
        assert main(
            ["solve", "--config", str(config), "--out", str(out), "--regime", "per"]
        ) == 0
        solution = json.loads((out / "solution.json").read_text())
        # two levels force the same (6, 4) occupancy in either regime, but
        # the Bose-Einstein multipliers live in the positive-gap domain
        assert solution["occupancy"][0] == pytest.approx(6.0, rel=1e-9)
        assert solution["alpha"] > 0


    @pytest.mark.parametrize(
        "levels, degens, n_firms, total",
        [("174 190", "21 17", 803586, 152681318), ("87 95", "1 18", 752586, 65474989)],
    )
    def test_near_condensed_close_levels_solve(self, tmp_path, levels, degens, n_firms, total):
        text = (
            f"[grid]\nlevels = {levels}\ndegeneracies = {degens}\n\n"
            f"[economy]\nN = {n_firms}\nPi = {total}\nregime = per\n"
        )
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
        solution = json.loads((out / "solution.json").read_text())
        assert solution["converged"] is True and solution["method"] == "newton"

    def test_a_degeneracy_that_holds_every_bit_of_the_sum_solves(self, tmp_path):
        # levels 1 2, g 1 10^17: sum g less sum g u is 0.0 in floats, and the
        # mon start divided by it (a ZeroDivisionError traceback, exit 1)
        text = (
            "[grid]\nlevels = 1 2\ndegeneracies = 1 %d\n\n"
            "[economy]\nN = 1000\nPi = 1500\nregime = mon\n" % 10**17
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
        solution = json.loads((out / "solution.json").read_text())
        assert solution["converged"] is True and "macro" in solution

    def test_non_finite_multipliers_are_not_mapped(self, monkeypatch, tmp_path, capsys):
        # an unconverged solve that ends on a NaN alpha and an infinite beta
        # writes its solution without macro fields and exits 3; macro refuses it
        def unsolved(grid, economy):
            solution = solve_multipliers(grid, economy)
            return dataclasses.replace(solution, alpha=math.nan, beta=-math.inf, converged=False)

        monkeypatch.setattr(cli, "solve_multipliers", unsolved)
        config = write_config(tmp_path, TWO_LEVEL_SOLVE)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 3
        solution = json.loads((out / "solution.json").read_text())
        assert solution["alpha"] is None and solution["beta"] is None
        assert "macro" not in solution and "identity" not in solution
        assert main(["macro", "--config", str(config), "--out", str(tmp_path / "macro")]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert "no finite multipliers" in err["message"]

class TestSample:
    def test_constrained_two_firm_only_split_order(self, tmp_path):
        text = EXAMPLE_TWO_FIRMS.replace("regime = mon", "regime = mon\nPi = 3")
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["sample", "--config", str(config), "--out", str(out)]) == 0
        rows = read_rows(out / "frequencies.csv")
        assert len(rows) == 1
        assert rows[0]["occupancy"] == "1 1"
        assert rows[0]["frequency_float"] == "1.0"
        assert rows[0]["exact_probability_float"] == "1.0"

    def test_seed_override_changes_stream_but_not_totals(self, tmp_path):
        config = write_config(tmp_path, EXAMPLE_TWO_FIRMS + "\n[caps]\nsample_draws = 500\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["sample", "--config", str(config), "--out", str(out1), "--seed", "1"])
        main(["sample", "--config", str(config), "--out", str(out2), "--seed", "2"])
        rows1, rows2 = read_rows(out1 / "frequencies.csv"), read_rows(out2 / "frequencies.csv")
        assert sum(int(r["count"]) for r in rows1) == 500
        assert rows1 != rows2

    def test_seed_zero_overrides_config_seed(self, tmp_path):
        draws = "\n[caps]\nsample_draws = 500\n"
        seven = write_config(tmp_path, EXAMPLE_TWO_FIRMS + draws, "seven.ini")
        zero = write_config(
            tmp_path, EXAMPLE_TWO_FIRMS.replace("seeds = 7", "seeds = 0") + draws, "zero.ini"
        )
        out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["sample", "--config", str(seven), "--out", str(out1), "--seed", "0"])
        main(["sample", "--config", str(zero), "--out", str(out2)])
        main(["sample", "--config", str(seven), "--out", str(out3)])
        overridden = (out1 / "frequencies.csv").read_bytes()
        assert overridden == (out2 / "frequencies.csv").read_bytes()
        assert overridden != (out3 / "frequencies.csv").read_bytes()

    @staticmethod
    def sample_peak(tmp_path, *extra):
        """Peak traced memory of a 60,000-draw two-firm ``sample`` run."""
        config = write_config(tmp_path, EXAMPLE_TWO_FIRMS + "\n[caps]\nsample_draws = 60000\n")
        warm = write_config(tmp_path, EXAMPLE_TWO_FIRMS, "warm.ini")  # loads numpy.random
        main(["sample", "--config", str(warm), "--out", str(tmp_path / "warm")])
        tracemalloc.start()
        try:
            out = str(tmp_path / "out")
            assert main(["sample", "--config", str(config), "--out", out, *extra]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_tally_reads_the_stream_without_keeping_it(self, tmp_path):
        # 60,000 kept outcomes take about 7 MB; the sampler's largest batch
        # here (16,384 outcomes) about 3.5 MB
        assert self.sample_peak(tmp_path) < 6_000_000
        rows = read_rows(tmp_path / "out" / "frequencies.csv")
        assert sum(int(r["count"]) for r in rows) == 60_000

    def test_outcome_log_is_written_as_the_stream_is_read(self, tmp_path):
        # keeping the 60,000 outcomes until the log is written peaks at about 9 MB
        assert self.sample_peak(tmp_path, "--log-outcomes") < 6_000_000
        rows = read_rows(tmp_path / "out" / "frequencies.csv")
        assert sum(int(r["count"]) for r in rows) == 60_000
        with (tmp_path / "out" / "outcomes.csv").open() as handle:
            assert sum(1 for _ in handle) == 60_001

    def test_occupancies_past_int64_are_tallied(self, tmp_path):
        # the per float-max config of the next test: a tally of picks holds
        # no occupancy, so without --log-outcomes it samples its one order
        config = write_config(
            tmp_path, all_g1_config((1, 2, 10**155), PER_MAX, FLOAT_MAX, "per")
        )
        out = tmp_path / "out"
        start = time.perf_counter()
        assert main(["sample", "--config", str(config), "--out", str(out)]) == 0
        assert time.perf_counter() - start < 5.0
        (row,) = read_rows(out / "frequencies.csv")
        assert sum(map(int, row["occupancy"].split())) == PER_MAX
        assert row["count"] == "10000" and row["frequency_float"] == "1.0"
        assert row["exact_probability_float"] == "1.0" and row["abs_error"] == "0.0"

    @pytest.mark.parametrize("extra", [["--log-outcomes"]], ids=["log"])
    def test_occupancies_past_int64_are_refused_by_name(self, tmp_path, capsys, extra):
        # one feasible order of N = isqrt(float max) ~ 1.34e154 firms, which
        # enumerate lists; the outcome stream refuses it before it
        # builds an int64 occupancy matrix and before --out is made, with no
        # traceback
        config = write_config(
            tmp_path, all_g1_config((1, 2, 10**155), PER_MAX, FLOAT_MAX, "per")
        )
        out = tmp_path / "out"
        start = time.perf_counter()
        assert main(["sample", "--config", str(config), "--out", str(out), *extra]) == 1
        assert time.perf_counter() - start < 5.0
        captured = capsys.readouterr()
        err = json.loads(captured.out.strip().splitlines()[-1])
        assert err["error"] == "config"
        assert err["message"] == (
            "sample: N = %d firms is past int64 (2**63 - 1), the bound on the "
            "occupancies the sampler places" % PER_MAX
        )
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["enumerate"], ["sample"], ["sample", "--log-outcomes"]],
        ids=["enumerate", "sample", "log"],
    )
    def test_mon_count_past_comb_is_refused_by_name(self, tmp_path, capsys, argv):
        # the one order of the float-max config puts about 6.2e153 of the
        # N ~ 1.34e154 firms on level 0, so C(N, a_0) is past what math.comb
        # forms; the count refuses it before any --out is made, with no
        # traceback
        config = write_config(
            tmp_path, all_g1_config((1, 2, 10**155), PER_MAX, FLOAT_MAX, "mon")
        )
        out = tmp_path / "out"
        start = time.perf_counter()
        assert main([*argv, "--config", str(config), "--out", str(out)]) == 1
        assert time.perf_counter() - start < 5.0
        captured = capsys.readouterr()
        err = json.loads(captured.out.strip().splitlines()[-1])
        assert err["error"] == "config"
        message = "count: N = %d firms is too many to form an order's exact count"
        assert err["message"] == message % PER_MAX
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()

    def test_one_order_at_a_hundred_thousand_firms(self, tmp_path):
        # 10^4 draws of the one order (0, 10^5): placing each draw's 10^5
        # firm labels took about 52 s; the tally places none
        config = write_config(tmp_path, all_g1_config((1, 2), 10**5, 10**5, "mon"))
        out = tmp_path / "out"
        start = time.perf_counter()
        assert main(["sample", "--config", str(config), "--out", str(out)]) == 0
        assert time.perf_counter() - start < 5.0
        (row,) = read_rows(out / "frequencies.csv")
        assert row["occupancy"] == "100000 0" and row["count"] == "10000"

    def test_two_levels_at_ten_thousand_firms_without_a_total(self, tmp_path):
        # 10,001 orders in one zipped run, every one counted: the chain takes
        # about 9 s, the ratio walk about 30 ms
        text = "[grid]\nlevels = 1 2\ndegeneracies = 1 1\n\n[economy]\nN = 10000\nregime = mon\n"
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        start = time.perf_counter()
        assert main(["sample", "--config", str(config), "--out", str(out)]) == 0
        assert time.perf_counter() - start < 5.0
        rows = {row["occupancy"]: row for row in read_rows(out / "frequencies.csv")}
        assert len(rows) == 10_001
        assert sum(int(row["count"]) for row in rows.values()) == 10_000
        even = float(rows["5000 5000"]["exact_probability_float"])
        assert even == math.comb(10**4, 5000) / 2**10**4

    @pytest.mark.parametrize("regime", ["mon", "per"])
    def test_only_the_outcome_log_places(self, monkeypatch, tmp_path, regime):
        # frequencies.csv reads only the picks; --log-outcomes places each draw
        placed = []
        for name in ("_place_firms", "_place_units"):
            real = getattr(enumeration, name)

            def spy(degeneracies, real=real, name=name):
                placed.append(name)
                return real(degeneracies)

            monkeypatch.setattr(enumeration, name, spy)
        config = write_config(tmp_path, CHECK_CONFIG.replace("regime = per", "regime = " + regime))
        plain, logged = tmp_path / "plain", tmp_path / "logged"
        assert main(["sample", "--config", str(config), "--out", str(plain)]) == 0
        assert placed == []
        assert main(["sample", "--config", str(config), "--out", str(logged), "--log-outcomes"]) == 0
        assert placed == ["_place_firms" if regime == "mon" else "_place_units"]
        table = "frequencies.csv"
        assert (plain / table).read_bytes() == (logged / table).read_bytes()

    def test_outcome_log_opt_in(self, tmp_path):
        config = write_config(tmp_path, EXAMPLE_TWO_FIRMS + "\n[caps]\nsample_draws = 20\n")
        out = tmp_path / "out"
        main(["sample", "--config", str(config), "--out", str(out), "--log-outcomes"])
        lines = (out / "outcomes.csv").read_text().strip().splitlines()
        assert lines[0] == "step,assignment"
        assert len(lines) == 21

    @pytest.mark.parametrize(
        "regime, levels, degeneracies, total",
        [("mon", "1 2 3", "2 1 3", 8), ("per", "1 2 4", "3 1 3", 10)],
    )
    def test_outcome_log_rows_match_frequencies(
        self, tmp_path, regime, levels, degeneracies, total
    ):
        # every row is two CSV fields, step and a quoted JSON assignment (a
        # numpy integer would make json.dumps raise), and the orders the
        # assignments spell are the counts in frequencies.csv
        text = (
            f"[grid]\nlevels = {levels}\ndegeneracies = {degeneracies}\n\n"
            f"[economy]\nN = 4\nPi = {total}\nregime = {regime}\nseeds = 11\n\n"
            "[caps]\nsample_draws = 300\n"
        )
        out = tmp_path / "out"
        config = write_config(tmp_path, text)
        assert main(["sample", "--config", str(config), "--out", str(out), "--log-outcomes"]) == 0
        with (out / "outcomes.csv").open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["step", "assignment"] and len(rows) == 301
        assert all(len(row) == 2 for row in rows)
        tally: dict[str, int] = {}
        for step, (index, assignment) in enumerate(rows[1:]):
            assert int(index) == step
            placed = json.loads(assignment)
            if regime == "mon":
                placed = [(position, 1) for position in placed]
            occ = [0, 0, 0]
            for (level, _slot), count in placed:
                occ[level] += count
            key = " ".join(map(str, occ))
            tally[key] = tally.get(key, 0) + 1
        counts = {r["occupancy"]: int(r["count"]) for r in read_rows(out / "frequencies.csv")}
        assert {key: c for key, c in counts.items() if c} == tally

    def test_grid_without_shared_pair_sums_samples_both_orders(self, tmp_path):
        # levels (1, 3, 4): no two distinct level pairs share a revenue sum.
        # Both orders appear at their exact probabilities 5/7 and 2/7, also
        # when the outcome space (7) exceeds the cap, which bounds the orders (2).
        text = """
[grid]
levels = 1 3 4
degeneracies = 1 2 1

[economy]
N = 6
Pi = 14
regime = per
seeds = 5

[caps]
max_outcomes = 2
sample_draws = 20000
"""
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["sample", "--config", str(config), "--out", str(out)]) == 0
        rows = {r["occupancy"]: int(r["count"]) for r in read_rows(out / "frequencies.csv")}
        assert set(rows) == {"2 4 0", "3 1 2"}
        for occupancy, p in (("2 4 0", 5 / 7), ("3 1 2", 2 / 7)):
            sigma = (p * (1 - p) * 20000) ** 0.5
            assert abs(rows[occupancy] - p * 20000) <= 4 * sigma
        capped = write_config(tmp_path, text.replace("max_outcomes = 2", "max_outcomes = 1"), "capped.ini")
        assert main(["sample", "--config", str(capped), "--out", str(out)]) == 4


class TestFit:
    def test_end_to_end_on_synthetic_exponential(self, tmp_path):
        from econorder import synthetic_exponential

        data = tmp_path / "data.csv"
        samples = synthetic_exponential(20_000, 10.0, 0.0, seed=9)
        data.write_text("\n".join(map(repr, samples.values.tolist())) + "\n")
        out = tmp_path / "out"
        code = main(["fit", str(data), "--out", str(out), "--tail-quantile", "0"])
        assert code == 0
        report = json.loads((out / "fit.json").read_text())
        assert report["boltzmann"]["parameters"]["t_eff"] == pytest.approx(10.0, rel=0.05)
        assert report["boltzmann"]["gof_passed"] is True
        rows = read_rows(out / "binned.csv")
        assert len(rows) == 50
        assert sum(int(r["observed_count"]) for r in rows) == 20_000

    def test_degenerate_data_exits_1(self, tmp_path, capsys):
        data = tmp_path / "flat.csv"
        data.write_text("\n".join(["5.0"] * 200) + "\n")
        assert main(["fit", str(data), "--out", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert "zero temperature" in err["message"]

    @pytest.mark.parametrize("rows", [13, 200_003])
    def test_top_tail_quantile_is_accepted(self, tmp_path, rows):
        # 0.2 drops round(0.2 n) rows, a fraction that can exceed 0.2 (3/13);
        # goodness of fit must not re-derive the cut from that fraction
        data = tmp_path / "data.csv"
        rng = np.random.default_rng(0)
        np.savetxt(data, 1.0 + rng.exponential(5.0, size=rows), fmt="%.6f")
        out = tmp_path / "out"
        assert main(["fit", str(data), "--out", str(out), "--tail-quantile", "0.2"]) == 0
        report = json.loads((out / "fit.json").read_text())
        assert report["boltzmann"]["n_used"] == rows - round(0.2 * rows)
        assert ("skipped" in report["bose_einstein"]) == (rows < 100)

    @pytest.mark.parametrize("tail", ["0", "0.03"])
    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_row_is_a_config_error(self, tmp_path, capsys, cell, tail):
        # at the default tail the row sorts into the dropped top, where it
        # would leave the fit while n_samples counted it
        data = tmp_path / "data.csv"
        rng = np.random.default_rng(0)
        rows = ["%.6f" % v for v in 1.0 + rng.exponential(5.0, size=200)]
        rows.insert(100, cell)
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert main(["fit", str(data), "--out", str(out), "--tail-quantile", tail]) == 1
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err == {"error": "config", "message": "data.csv:101: non-finite value rejected"}
        assert not out.exists()  # rejected before any fit or output

    @pytest.mark.parametrize(
        "rows, tail, message",
        [
            (None, "0.5", "tail_quantile must lie in [0, 0.2]"),
            (None, "-0.1", "tail_quantile must lie in [0, 0.2]"),
            (["1.5", "2.5", "3.5"], "0.03", "boltzmann fit requires at least 10 samples after truncation"),
            (["5.0"] * 12, "0.03", "zero temperature: all retained samples are equal"),
        ],
        ids=["tail-above-0.2", "tail-negative", "three-rows", "equal-rows"],
    )
    def test_rejected_fit_makes_no_output_folder(self, tmp_path, capsys, rows, tail, message):
        if rows is None:
            rng = np.random.default_rng(0)
            rows = ["%.6f" % v for v in 1.0 + rng.exponential(5.0, size=200)]
        data = tmp_path / "data.csv"
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert main(["fit", str(data), "--out", str(out), "--tail-quantile", tail]) == 1
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err == {"error": "config", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize("bins", ["0", "-3"])
    def test_nonpositive_bins_is_a_config_error(self, tmp_path, capsys, bins):
        data = tmp_path / "data.csv"
        data.write_text("\n".join(str(v) for v in range(1, 14)) + "\n")
        out = tmp_path / "out"
        assert main(["fit", str(data), "--out", str(out), "--bins", bins]) == 1
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err == {"error": "config", "message": "--bins must be at least 1"}
        assert not out.exists()  # rejected before any fit or output


class TestMacro:
    def test_report_fields(self, tmp_path):
        config = write_config(tmp_path, TWO_LEVEL_SOLVE)
        out = tmp_path / "out"
        assert main(["macro", "--config", str(config), "--out", str(out), "--lambda", "2.0"]) == 0
        report = json.loads((out / "macro.json").read_text())
        assert set(report) == {
            "mu", "theta", "lambda", "alpha", "beta", "T", "lnOmega",
            "identity_residual", "best_sign",
        }
        assert report["lambda"] == 2.0
        assert report["T"] == pytest.approx(2.0 * report["lnOmega"])
        assert report["mu"] == pytest.approx(5.41903, abs=1e-4)

    def test_builds_no_condensation_report(self, monkeypatch, tmp_path):
        def refused(*args, **kwargs):
            raise AssertionError("macro.json holds no condensation report")

        monkeypatch.setattr(cli, "detect_condensation", refused)
        config = write_config(tmp_path, TWO_LEVEL_SOLVE)
        assert main(["macro", "--config", str(config), "--out", str(tmp_path / "out")]) == 0


class TestCheck:
    def test_default_config_all_pass(self, tmp_path):
        config = write_config(tmp_path, CHECK_CONFIG)
        out = tmp_path / "out"
        assert main(["check", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "check.json").read_text())
        assert report["all_passed"] is True
        assert {c["name"] for c in report["checks"]} == {
            "two_firm_example_exactness",
            "counting_oracle",
            "solver_suite",
            "argmax_convergence",
            "sampler_chisquare",
            "macro_identities",
        }

    def test_out_is_made_only_after_the_suites_run(self, monkeypatch, tmp_path):
        def stopped(run):
            raise EconOrderError("suites stopped")

        monkeypatch.setattr(cli, "run_checks", stopped)
        config = write_config(tmp_path, CHECK_CONFIG)
        out = tmp_path / "out"
        assert main(["check", "--config", str(config), "--out", str(out)]) == 1
        assert not out.exists()

    def test_fault_injection_fails_naming_order(self, monkeypatch, tmp_path):
        # the column count of (2, 0) one short on the unconstrained two-firm
        # listing with one slot per level, in both regimes; it is never the
        # top entry there (mon (1, 1) = 2, per (0, 2) = 1 stay first), so
        # the catalog's own check of its top entry does not stop the run
        exact = enumeration._multiplicities

        def faulty(columns, degeneracies, regime):
            counts = exact(columns, degeneracies, regime)
            if degeneracies == (1, 1) and list(map(tuple, columns)) == [(0, 1, 2), (2, 1, 0)]:
                counts[2] -= 1
            return counts

        monkeypatch.setattr(enumeration, "_multiplicities", faulty)
        config = write_config(tmp_path, CHECK_CONFIG)
        out = tmp_path / "out"
        code = main(["check", "--config", str(config), "--out", str(out)])
        assert code == 1
        report = json.loads((out / "check.json").read_text())
        failing = [c for c in report["checks"] if not c["passed"]]
        assert failing[0]["name"] == "two_firm_example_exactness"
        assert failing[0]["detail"]["mismatched_order"] == [2, 0]
        assert "exception" not in {c["name"] for c in failing}

    def test_top_entry_fault_stops_the_catalog_naming_order(self, monkeypatch, tmp_path, capsys):
        # the column count of the top entry (1, 1) one too high
        exact = enumeration._multiplicities

        def faulty(columns, degeneracies, regime):
            counts = exact(columns, degeneracies, regime)
            return [c + (occ == (1, 1)) for c, occ in zip(counts, zip(*columns))]

        monkeypatch.setattr(enumeration, "_multiplicities", faulty)
        grid, economy = RevenueGrid((1, 2), (1, 1)), EconomyConfig(2, None, Regime.MONOPOLISTIC)
        with pytest.raises(EconOrderError, match=r"order \[1, 1\] counts 3 .* and 2 by the closed form"):
            enumeration.catalog(grid, economy)
        config = write_config(tmp_path, EXAMPLE_TWO_FIRMS)
        out = tmp_path / "out"
        assert main(["enumerate", "--config", str(config), "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert "order [1, 1]" in err["message"]
        assert not (out / "orders.csv").exists()

    @pytest.mark.parametrize("regime", ["mon", "per"])
    def test_sampler_check_catches_a_placement_that_ignores_slots(self, monkeypatch, regime):
        # every firm in slot 0 of its level: the orders keep their exact
        # frequencies, so only the micro-outcome cases can see it (unpatched,
        # check_sampler(44) passes in test_default_config_all_pass)
        def slot_zero(degeneracies):
            def place(gen, occ):
                rows = occ.tolist()
                if regime == "mon":
                    return [tuple((k, 0) for k, a in enumerate(row) for _ in range(a)) for row in rows]
                return [tuple(((k, 0), a) for k, a in enumerate(row) if a) for row in rows]

            return place

        placer = "_place_firms" if regime == "mon" else "_place_units"
        monkeypatch.setattr(enumeration, placer, slot_zero)
        result = check_sampler(44)
        assert not result.passed
        assert result.detail[f"micro_{regime}_pvalue"] < 0.01
        assert min(result.detail["case_0_pvalue"], result.detail["case_1_pvalue"]) >= 0.01


class TestConfigValidation:
    def test_unknown_key_rejected_with_path(self, tmp_path, capsys):
        config = write_config(tmp_path, EXAMPLE_TWO_FIRMS + "\nbogus = 3\n")
        assert main(["enumerate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert "economy.bogus" in err["message"]

    def test_decreasing_levels_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, EXAMPLE_TWO_FIRMS.replace("levels = 1 2", "levels = 2 1"))
        assert main(["enumerate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert "grid.levels" in err["message"]

    @pytest.mark.parametrize(
        "argv, text, key",
        [
            (["solve"], TWO_LEVEL_SOLVE + "\n[thresholds]\ngap = nan\n", "thresholds.gap"),
            (["solve"], TWO_LEVEL_SOLVE + "\n[thresholds]\ngap = inf\n", "thresholds.gap"),
            (["macro"], TWO_LEVEL_SOLVE.replace("regime = mon", "regime = mon\nlambda = inf"), "economy.lambda"),
            (["macro", "--lambda", "inf"], TWO_LEVEL_SOLVE, "economy.lambda"),
            (["solve", "--lambda", "nan"], TWO_LEVEL_SOLVE, "economy.lambda"),
        ],
        ids=["gap-nan", "gap-inf", "lambda-inf", "flag-lambda-inf", "flag-lambda-nan"],
    )
    def test_non_finite_values_exit_1_before_output(self, tmp_path, capsys, argv, text, key):
        # a nan gap used to exit 0 with "gap_threshold": NaN in solution.json, and
        # an infinite lambda to fail later over macro.theta
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(argv + ["--config", str(config), "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert key in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, text, flags, key",
        [
            ("check", EXAMPLE_TWO_FIRMS, ["--seed", "-1"], "--seed"),
            ("sample", EXAMPLE_TWO_FIRMS, ["--seed", "-1"], "--seed"),
            ("check", EXAMPLE_TWO_FIRMS.replace("seeds = 7", "seeds = -1"), [], "economy.seeds"),
            ("sample", EXAMPLE_TWO_FIRMS.replace("seeds = 7", "seeds = -1"), [], "economy.seeds"),
        ],
        ids=["check-flag", "sample-flag", "check-config", "sample-config"],
    )
    def test_negative_seed_exits_1_before_output(self, tmp_path, capsys, command, text, flags, key):
        # numpy's seeding refused it with a bare ValueError after --out was made
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out), *flags]) == 1
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err == {"error": "config", "message": key + ": must be non-negative"}
        assert not out.exists()

    def test_lambda_rejected_where_unused(self, tmp_path):
        config = write_config(tmp_path, EXAMPLE_TWO_FIRMS)
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--config", str(config), "--lambda", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["enumerate", "solve", "macro"])
    def test_seed_rejected_where_unused(self, tmp_path, command):
        # only sample and check draw random numbers
        config = write_config(tmp_path, TWO_LEVEL_SOLVE)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(config), "--seed", "1"])
        assert exc.value.code == 2

    def test_missing_file(self, tmp_path, capsys):
        assert main(["enumerate", "--config", str(tmp_path / "nope.ini")]) == 1
