"""Run-configuration parsing and field-path validation."""

import pytest

from econorder import ConfigError, Regime
from econorder.configio import Caps, load_run_config

FULL = """
[grid]
levels = 10, 20, 30
degeneracies = 2 1 3

[economy]
N = 25
Pi = 400
regime = per
lambda = 2.5
seeds = 11
output_dir = results

[thresholds]
ground_fraction = 0.4
gap = 1e-7

[caps]
max_outcomes = 5000
sample_draws = 777
"""


def write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text.strip() + "\n")
    return path


def test_full_config_round_trip(tmp_path):
    run = load_run_config(write(tmp_path, FULL))
    assert run.grid.levels == (10, 20, 30)
    assert run.grid.degeneracies == (2, 1, 3)
    assert run.economy.n_firms == 25
    assert run.economy.total_revenue == 400
    assert run.economy.regime is Regime.PERFECT
    assert run.lam == 2.5
    assert run.seed == 11
    assert run.output_dir == "results"
    assert run.thresholds.ground_fraction == 0.4
    assert run.thresholds.gap == 1e-7
    assert run.caps.max_outcomes == 5000
    assert run.caps.sample_draws == 777


def test_minimal_config_defaults(tmp_path):
    run = load_run_config(
        write(tmp_path, "[grid]\nlevels = 1 2\n\n[economy]\nN = 2\nregime = mon\n")
    )
    assert run.grid.degeneracies == (1, 1)
    assert run.economy.total_revenue is None
    assert run.seed == 0
    assert run.lam == 1.0
    assert run.caps == Caps()


def test_pi_none_keyword(tmp_path):
    run = load_run_config(
        write(tmp_path, "[grid]\nlevels = 1 2\n\n[economy]\nN = 2\nPi = none\nregime = mon\n")
    )
    assert run.economy.total_revenue is None


def test_regime_override_argument(tmp_path):
    path = write(tmp_path, "[grid]\nlevels = 1 2\n\n[economy]\nN = 2\nregime = mon\n")
    assert load_run_config(path, "per").economy.regime is Regime.PERFECT


def test_missing_regime_without_override(tmp_path):
    path = write(tmp_path, "[grid]\nlevels = 1 2\n\n[economy]\nN = 2\n")
    with pytest.raises(ConfigError, match="economy.regime"):
        load_run_config(path)


@pytest.mark.parametrize(
    "text,path_fragment",
    [
        ("[economy]\nN = 2\nregime = mon\n", "grid"),
        ("[grid]\nlevels = 1 2\n", "economy"),
        ("[grid]\nlevels = 1 2\nweird = 1\n\n[economy]\nN = 2\nregime = mon\n", "grid.weird"),
        ("[grid]\nlevels = 1 2\n\n[economy]\nN = two\nregime = mon\n", "economy.N"),
        ("[grid]\nlevels = 1 2\n\n[economy]\nN = 2\nPi = -3\nregime = mon\n", "economy.Pi"),
        ("[grid]\nlevels = 2 1\n\n[economy]\nN = 2\nregime = mon\n", "grid.levels"),
        ("[grid]\nlevels = 1 2\ndegeneracies = 1\n\n[economy]\nN = 2\nregime = mon\n", "grid.degeneracies"),
        ("[grid]\nlevels = 1 2\n\n[economy]\nN = 2\nregime = mon\nlambda = 0\n", "economy.lambda"),
        ("[grid]\nlevels = 1 2\n\n[economy]\nN = 2\nregime = mon\n\n[mystery]\nx = 1\n", "mystery"),
        ("[grid]\nlevels = 1 2\n\n[economy]\nN = 2\nregime = mon\n\n[caps]\nmax_outcomes = 0\n", "caps.max_outcomes"),
        ("[grid]\nlevels = 1 2\n\n[economy]\nN = 2\nregime = mon\n\n[caps]\nburn_in = 50\n", "caps.burn_in"),
        ("[grid]\nlevels = 1 2\n\n[economy]\nN = 2\nregime = mon\nseeds = 1 2\n", "economy.seeds"),
        ("[grid]\nlevels = 1 2\n\n[economy]\nN = 2\nregime = mon\nseeds = -1\n", "economy.seeds"),
        ("[grid]\nlevels = 1 2\nquantum = 0.5\n\n[economy]\nN = 2\nregime = mon\n", "grid.quantum"),
        ("[grid]\nlevels =\n\n[economy]\nN = 2\nregime = mon\n", "grid.levels: expected at least one integer"),
        ("levels = 1 2\n\n[economy]\nN = 2\nregime = mon\n", "config parse error: File contains no section headers"),
        ("[grid]\ndegeneracies = 1 1\n\n[economy]\nN = 2\nregime = mon\n", "grid.levels: key is required"),
        ("[grid]\nlevels = 1 2\n\n[economy]\nPi = 3\nregime = mon\n", "economy.N: key is required"),
        ("[grid]\nlevels = 1 2\n\n[economy]\nN = 2\nregime = mon\n\n[caps]\nsample_draws = 0\n", "caps.sample_draws: must be positive"),
    ],
)
def test_malformed_fields_carry_paths(tmp_path, text, path_fragment):
    with pytest.raises(ConfigError, match=path_fragment):
        load_run_config(write(tmp_path, text))


@pytest.mark.parametrize(
    "line, key",
    [
        ("[thresholds]\ngap = nan", "thresholds.gap"),
        ("[thresholds]\ngap = inf", "thresholds.gap"),
        ("[thresholds]\ngap = -1e-6", "thresholds.gap"),
        ("[thresholds]\nground_fraction = -inf", "thresholds.ground_fraction"),
        ("[thresholds]\nground_fraction = 0", r"thresholds.ground_fraction: must lie in \(0, 1\]"),
        ("[thresholds]\nground_fraction = 1.5", r"thresholds.ground_fraction: must lie in \(0, 1\]"),
        ("lambda = inf", "economy.lambda"),
        ("lambda = nan", "economy.lambda"),
    ],
)
def test_non_finite_or_negative_numbers_name_their_key(tmp_path, line, key):
    # nan and inf used to load: a nan gap reached solution.json as NaN, not JSON
    text = "[grid]\nlevels = 1 2\n\n[economy]\nN = 2\nregime = mon\n\n" + line + "\n"
    with pytest.raises(ConfigError, match=key):
        load_run_config(write(tmp_path, text))


def test_zero_gap_loads(tmp_path):
    text = "[grid]\nlevels = 1 2\n\n[economy]\nN = 2\nregime = mon\n\n[thresholds]\ngap = 0\n"
    assert load_run_config(write(tmp_path, text)).thresholds.gap == 0.0


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_run_config("/nonexistent/econorder.ini")


def test_a_number_that_does_not_parse_names_its_key(tmp_path):
    text = "[grid]\nlevels = 1 2\n\n[economy]\nN = 2\nregime = mon\n\n[thresholds]\ngap = abc\n"
    with pytest.raises(ConfigError, match="thresholds.gap: expected a finite number, got 'abc'"):
        load_run_config(write(tmp_path, text))
