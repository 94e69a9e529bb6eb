"""The benchmark's traced counting and solver rows and big counts run on the current package.

``bench/suite.py::counting_rows`` times two N=100 catalogs under the
benchmark's own Tracer and divides by the traced number of
``counting.multiplicity`` calls.  A catalog that stopped calling
``multiplicity`` would break every traced benchmark run; this runs those
rows in process (it imports bench/, never edits it) so that tier-1 sees it.
``solver_rows`` likewise divides by the traced ``macro.log_W`` calls made
inside ``entropy_identity_residual``, so an identity that stopped calling
``log_W`` fails here too.  The exact-orders deck's big counts (N = 10^4
and 2 * 10^4, both regimes) also run here through the deck's own ``run``
and ``gate``, so that a count the benchmark would reject as incorrect
fails tier-1 first, and so do the deck's catalogs (five levels, N = 30 to
60, Pi = 3N, both regimes), which enumerate_orders lists by its array
member.
"""

import importlib
import math
import sys
from pathlib import Path

import pytest

from econorder import enumeration

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def suite(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("suite", "tracer", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("suite")


@pytest.fixture
def workloads(suite):
    return importlib.import_module("workloads")


def test_counting_rows_are_finite_under_the_tracer(suite):
    rows = suite.counting_rows([])
    assert rows and all(math.isfinite(value) for value in rows.values())
    assert rows["counting.multiplicity_calls"] >= 1


def test_solver_rows_are_finite_under_the_tracer(suite):
    rows = suite.solver_rows([])
    assert rows and all(math.isfinite(value) for value in rows.values())


def test_exact_orders_big_counts_pass_the_deck_gate(workloads, tmp_path):
    deck = workloads.ExactOrders(seed=0, workdir=tmp_path)
    big = [op for op in deck.ops if op.kind == "multiplicity"]
    sizes = sorted((sum(op.args[0]), op.args[2].value) for op in big)
    assert sizes == sorted((n, regime.value) for n in deck.BIG for regime in workloads.REGIMES)
    for op in big:
        assert deck.gate(op, deck.run(op)), op.args[0]


def test_exact_orders_catalogs_pass_the_deck_gate(workloads, tmp_path):
    deck = workloads.ExactOrders(seed=0, workdir=tmp_path)
    catalogs = [op for op in deck.ops if op.kind == "catalog"]
    sizes = sorted((op.args[1].n_firms, op.args[1].regime.value) for op in catalogs)
    expected = [(n, regime.value) for n in deck.LADDER for regime in workloads.REGIMES]
    assert sizes == sorted(expected * deck.DRAWS)
    for op in catalogs:
        assert enumeration._listing(*op.args) is enumeration._level_columns, op.args
        assert deck.gate(op, deck.run(op)), op.args
