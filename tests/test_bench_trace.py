"""The benchmark's traced counting rows run on the current package.

``bench/suite.py::counting_rows`` times two N=100 catalogs under the
benchmark's own Tracer and divides by the traced number of
``counting.multiplicity`` calls.  A catalog that stopped calling
``multiplicity`` would break every traced benchmark run; this runs those
rows in process (it imports bench/, never edits it) so that tier-1 sees it.
"""

import importlib
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def suite(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("suite", "tracer", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("suite")


def test_counting_rows_are_finite_under_the_tracer(suite):
    rows = suite.counting_rows([])
    assert rows and all(math.isfinite(value) for value in rows.values())
    assert rows["counting.multiplicity_calls"] >= 1
