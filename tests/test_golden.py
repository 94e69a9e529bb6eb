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
    ("solve", "condensation.ini"): {
        "occupancy.csv": "d0d06c21ec7da05ec09cf4dca01d0b95ee9d41a0c0a37dc7270eff6f0d692588",
        "solution.json": "26a2c3c1e0d585a71ec7aadd55b2c22dd760736d535957104186aabf70cbfed8",
    },
    ("macro", "two_level_solve.ini"): {
        "macro.json": "726086b93c0f5746c7a20c1713164a5a022ecc33ec2e48b6c21c101b36274e89",
    },
}


@pytest.mark.parametrize("run", GOLDEN, ids=lambda run: "-".join(run[:2]))
def test_demo_artifacts_match_golden_digests(run, tmp_path):
    command, config, *extra = run
    out = tmp_path / "out"
    code = main([command, "--config", str(CONFIGS / config), "--out", str(out), *extra])
    assert code == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == GOLDEN[run]
