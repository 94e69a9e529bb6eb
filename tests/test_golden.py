"""CLI artifacts of the demo configs, test configs and test data, held to fixed sha256 digests.

A change that alters any byte of these files, or an exit code, fails here
and must name the difference and update the digest with it.
"""

import hashlib
from pathlib import Path

import pytest

from econorder.cli import main

TESTS = Path(__file__).resolve().parent
# demo configs first, then configs kept only for these pins
CONFIG_DIRS = (TESTS.parent / "demos" / "configs", TESTS / "data")

GOLDEN = {
    ("enumerate", "two_firms.ini"): {
        "orders.csv": "52c35c56d70a00dd40551683f6e21fe6d5fce24b388c0667db2ff4fa4b0f37a5",
        "spontaneous.json": "82214e0b2f730a4bbdf59eb6cdf3b4d32cc6000e4f22f6f663503238a445d54e",
    },
    ("sample", "two_firms.ini", "--seed", "1"): {
        "frequencies.csv": "9096d4824cbbb02f51aad45d6621992612228ce05a625a9ddf753f2b68c853a7",
    },
    # every assignment of the stream, not only its tallies; each JSON
    # assignment is one quoted CSV field
    ("sample", "two_firms.ini", "--seed", "1", "--log-outcomes"): {
        "frequencies.csv": "9096d4824cbbb02f51aad45d6621992612228ce05a625a9ddf753f2b68c853a7",
        "outcomes.csv": "9337d620a8c8294a09962f85c8968cbd0ba70b772749b7ad0c59c21c9edb7aae",
    },
    ("solve", "condensation.ini"): {
        "occupancy.csv": "d0d06c21ec7da05ec09cf4dca01d0b95ee9d41a0c0a37dc7270eff6f0d692588",
        "solution.json": "65d2adecc66e925b0a7d35591b6549431d8f0a09428d01dc3070b94844bc8617",
    },
    # two levels with a revenue total: one order, fixed by the total
    ("enumerate", "two_level_solve.ini"): {
        "orders.csv": "1395a672a188f51443edf11d28ab938b982432a61dfcadf8c56baf2d74a13d75",
        "spontaneous.json": "7c49997fcbcc2309012975489e7c0201d3199b98438cbac7cada156309b48506",
    },
    ("macro", "two_level_solve.ini"): {
        "macro.json": "b60b0f31b68ba199ae58d74e82da3b7e3afe1adcaf239dab4359b00ff7212aee",
    },
    # catalog probabilities through check_sampler, beside the counting oracle
    ("check", "condensation.ini"): {
        "check.json": "de420b612c694d7c2c5d89db70d5a909d8110d808e3c75d96e0e2d9daf0ee21a",
    },
    # a constrained 5-level listing: a 98-bit total, no fraction reduces
    ("enumerate", "five_levels.ini"): {
        "orders.csv": "e323fea161ae1a27bc457ebf9aaf4a602cab0b7156896a7b5a63b5deb07957c9",
        "spontaneous.json": "8bcec58fc29c741e0e8622bf5bde90d7edc75e27d123201595972973ba7f4f1b",
    },
    # the same listing counted per: 861 of 956 fractions reduce
    ("enumerate", "five_levels.ini", "--regime", "per"): {
        "orders.csv": "f983cd28e9cdf879687cf35f598d69a065e124f40338b5eff8ca8effa243e990",
        "spontaneous.json": "4913d34ff4aadfa126d5102964f84af313a98b4a53d6fed2ffd92afbd048263f",
    },
    # exact probability floats of a total above 2**53, and of reduced fractions
    ("sample", "five_levels.ini", "--seed", "1"): {
        "frequencies.csv": "21b0cbc8ae073017ed0e69345de259f5bf65c524ce1c85369f28a926a1e0b5ad",
    },
    ("sample", "five_levels.ini", "--seed", "1", "--regime", "per"): {
        "frequencies.csv": "cabc9881bd40361516133362eae7a7cf8a53d722167a106c7a75153f26d3a716",
    },
    # 2,000 rows of 1 + Exp(5), seed 0, written with %.6f: both fits converge;
    # read by its bare name, since fit.json records the path it was given
    ("fit", "exp_2000.csv"): {
        "binned.csv": "6b55e9e5b4b16182d71d8343bdf3448b2539ce27218d66c2b956bcd29cb50416",
        "fit.json": "db3be252d8a03f1a90701a3046931e8d9d892ac8bedae4740b2e53c58ff5075b",
    },
}


def run_id(run):
    """``command-config``, plus ``-log-outcomes`` or ``-per`` when the run asks for it."""
    return "-".join(run[:2]) + "".join(
        suffix for flag, suffix in (("--log-outcomes", "-log-outcomes"), ("per", "-per"))
        if flag in run
    )


def config_path(name):
    return next(d / name for d in CONFIG_DIRS if (d / name).exists())


@pytest.mark.parametrize("run", GOLDEN, ids=run_id)
def test_demo_artifacts_match_golden_digests(run, tmp_path, monkeypatch):
    command, config, *extra = run
    out = tmp_path / "out"
    if command == "fit":
        monkeypatch.chdir(config_path(config).parent)
        source = [config]
    else:
        source = ["--config", str(config_path(config))]
    code = main([command, *source, "--out", str(out), *extra])
    assert code == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == GOLDEN[run]
