"""The demo configs' CLI artifacts, held to fixed sha256 digests.

A change that alters any byte of these files, or an exit code, fails here
and must name the difference and update the digest with it.
"""

import hashlib
from pathlib import Path

import pytest

from econorder.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"

GOLDEN = {
    ("enumerate", "two_firms.ini"): {
        "orders.csv": "52c35c56d70a00dd40551683f6e21fe6d5fce24b388c0667db2ff4fa4b0f37a5",
        "spontaneous.json": "82214e0b2f730a4bbdf59eb6cdf3b4d32cc6000e4f22f6f663503238a445d54e",
    },
    ("sample", "two_firms.ini", "--seed", "1"): {
        "frequencies.csv": "9096d4824cbbb02f51aad45d6621992612228ce05a625a9ddf753f2b68c853a7",
    },
    # every assignment of the stream, not only its tallies
    ("sample", "two_firms.ini", "--seed", "1", "--log-outcomes"): {
        "frequencies.csv": "9096d4824cbbb02f51aad45d6621992612228ce05a625a9ddf753f2b68c853a7",
        "outcomes.csv": "550a9b2fab210e46417056889941a1389b01874bafac43a6714e9866049daa47",
    },
    ("solve", "condensation.ini"): {
        "occupancy.csv": "d0d06c21ec7da05ec09cf4dca01d0b95ee9d41a0c0a37dc7270eff6f0d692588",
        "solution.json": "65d2adecc66e925b0a7d35591b6549431d8f0a09428d01dc3070b94844bc8617",
    },
    ("macro", "two_level_solve.ini"): {
        "macro.json": "b60b0f31b68ba199ae58d74e82da3b7e3afe1adcaf239dab4359b00ff7212aee",
    },
}


def run_id(run):
    """``command-config``, plus ``-log-outcomes`` when the run logs its outcomes."""
    return "-".join(run[:2]) + ("-log-outcomes" if "--log-outcomes" in run else "")


@pytest.mark.parametrize("run", GOLDEN, ids=run_id)
def test_demo_artifacts_match_golden_digests(run, tmp_path):
    command, config, *extra = run
    out = tmp_path / "out"
    code = main([command, "--config", str(CONFIGS / config), "--out", str(out), *extra])
    assert code == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == GOLDEN[run]
