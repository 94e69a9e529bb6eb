"""Domain types: invariants, exact validation, and share arithmetic."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from econorder import (
    ConfigError,
    EconomicOrder,
    EconomyConfig,
    Regime,
    RevenueGrid,
    ShareVector,
    shares_to_revenues,
    validate_order,
)


def test_grid_requires_strictly_increasing_levels():
    with pytest.raises(ConfigError):
        RevenueGrid((2, 2), (1, 1))
    with pytest.raises(ConfigError):
        RevenueGrid((3, 1), (1, 1))


def test_grid_rejects_bad_degeneracies():
    with pytest.raises(ConfigError):
        RevenueGrid((1, 2), (1, 0))
    with pytest.raises(ConfigError):
        RevenueGrid((1, 2), (1,))


def test_grid_defaults_degeneracy_to_one_per_level():
    grid = RevenueGrid((1, 5, 9), ())
    assert grid.degeneracies == (1, 1, 1)


def test_economy_config_validation():
    with pytest.raises(ConfigError):
        EconomyConfig(0, 5, Regime.MONOPOLISTIC)
    with pytest.raises(ConfigError):
        EconomyConfig(3, -1, Regime.MONOPOLISTIC)
    cfg = EconomyConfig(3, None, Regime.PERFECT)
    assert cfg.total_revenue is None


def test_regime_parsing():
    assert Regime.parse("mon") is Regime.MONOPOLISTIC
    assert Regime.parse("per") is Regime.PERFECT
    assert int(Regime.PERFECT) == 1
    with pytest.raises(ConfigError):
        Regime.parse("oligopoly")


def test_validate_order_feasible_split():
    # two firms, one per level, revenue total e1 + e2
    grid = RevenueGrid((1, 2), (1, 1))
    config = EconomyConfig(2, 3, Regime.MONOPOLISTIC)
    report = validate_order(EconomicOrder((1, 1)), grid, config)
    assert report.feasible
    assert report.firm_residual == 0
    assert report.revenue_residual == 0


def test_validate_order_infeasible_with_signed_residual():
    # both firms at the low level misses the total by e1 - e2
    grid = RevenueGrid((1, 2), (1, 1))
    config = EconomyConfig(2, 3, Regime.MONOPOLISTIC)
    report = validate_order(EconomicOrder((2, 0)), grid, config)
    assert not report.feasible
    assert report.revenue_residual == 1 - 2


def test_validate_order_single_level_identity():
    grid = RevenueGrid((4,), (1,))
    config = EconomyConfig(1, 4, Regime.MONOPOLISTIC)
    report = validate_order(EconomicOrder((1,)), grid, config)
    assert report.feasible and report.firm_residual == 0 and report.revenue_residual == 0


def test_validate_order_length_mismatch():
    grid = RevenueGrid((1, 2), (1, 1))
    config = EconomyConfig(2, 3, Regime.MONOPOLISTIC)
    with pytest.raises(ConfigError):
        validate_order(EconomicOrder((1, 1, 0)), grid, config)


def test_money_scale_invariance_of_validation():
    grid = RevenueGrid((1, 2), (1, 1))
    config = EconomyConfig(2, 3, Regime.MONOPOLISTIC)
    for c in (2, 10):
        scaled_grid = grid.scaled(c)
        scaled_config = EconomyConfig(2, 3 * c, Regime.MONOPOLISTIC)
        for occ in ((1, 1), (2, 0), (0, 2)):
            base = validate_order(EconomicOrder(occ), grid, config)
            scaled = validate_order(EconomicOrder(occ), scaled_grid, scaled_config)
            assert base.feasible == scaled.feasible


def test_shares_must_sum_to_one():
    with pytest.raises(ConfigError):
        ShareVector((Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ConfigError):
        ShareVector((Fraction(3, 2), Fraction(-1, 2)))


def test_shares_to_revenues_even_split():
    shares = ShareVector((Fraction(1, 2), Fraction(1, 2)))
    assert shares_to_revenues(shares, 10) == (5, 5)


def test_shares_to_revenues_single_survivor():
    shares = ShareVector((Fraction(1), Fraction(0)))
    assert shares_to_revenues(shares, 7) == (7, 0)


def test_shares_to_revenues_rational_split():
    shares = ShareVector((Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))
    revenues = shares_to_revenues(shares, 8)
    assert revenues == (2, 2, 4)
    assert sum(revenues) == 8


def test_package_import_does_not_load_scipy():
    # scipy is imported by the fits and the checks that use it, not at start-up
    import econorder

    src = str(Path(econorder.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, econorder, econorder.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
