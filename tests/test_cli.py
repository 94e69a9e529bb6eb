"""Command-line interface: outputs, exit codes, and determinism."""

import csv
import json

import pytest

from econorder import enumeration
from econorder.cli import main

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


def count_calls(monkeypatch, name):
    """Record each call of ``econorder.enumeration.<name>``; returns the log."""
    calls = []
    original = getattr(enumeration, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(enumeration, name, counted)
    return calls


@pytest.mark.parametrize("command", ["enumerate", "sample"])
def test_orders_listed_once(tmp_path, monkeypatch, command):
    calls = count_calls(monkeypatch, "enumerate_orders")
    config = write_config(tmp_path, EXAMPLE_TWO_FIRMS)
    assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


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
        counted = count_calls(monkeypatch, "multiplicity")
        text = EXAMPLE_TWO_FIRMS.replace("N = 2", "N = 12") + "\n[caps]\nmax_outcomes = 12\n"
        config = write_config(tmp_path, text)
        assert main(["enumerate", "--config", str(config), "--out", str(tmp_path / "o")]) == 4
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "cap_exceeded"
        assert "order list" in err["message"]
        assert counted == []


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

    def test_outcome_log_opt_in(self, tmp_path):
        config = write_config(tmp_path, EXAMPLE_TWO_FIRMS + "\n[caps]\nsample_draws = 20\n")
        out = tmp_path / "out"
        main(["sample", "--config", str(config), "--out", str(out), "--log-outcomes"])
        lines = (out / "outcomes.csv").read_text().strip().splitlines()
        assert lines[0] == "step,assignment"
        assert len(lines) == 21

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
        data.write_text("\n".join(repr(v) for v in samples.values) + "\n")
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

    def test_fault_injection_fails_naming_order(self, tmp_path):
        config = write_config(tmp_path, CHECK_CONFIG)
        out = tmp_path / "out"
        code = main(
            ["check", "--config", str(config), "--out", str(out),
             "--inject-fault", "multiplicity"]
        )
        assert code == 1
        report = json.loads((out / "check.json").read_text())
        failing = [c for c in report["checks"] if not c["passed"]]
        assert failing
        assert failing[0]["detail"]["mismatched_order"] == [1, 1]


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

    def test_lambda_rejected_where_unused(self, tmp_path):
        config = write_config(tmp_path, EXAMPLE_TWO_FIRMS)
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--config", str(config), "--lambda", "2"])
        assert exc.value.code == 2

    def test_missing_file(self, tmp_path, capsys):
        assert main(["enumerate", "--config", str(tmp_path / "nope.ini")]) == 1
