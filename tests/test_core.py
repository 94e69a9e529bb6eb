"""Domain types: invariants, exact validation, and share arithmetic."""

import dataclasses
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from econorder import (
    ConfigError,
    EconomicOrder,
    EconomyConfig,
    Regime,
    RevenueGrid,
    ShareVector,
    catalog,
    log_multiplicity,
    multiplicity,
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


class TestGridVectors:
    def test_float64_and_equal_to_the_tuples(self):
        e, g = RevenueGrid((1, 4, 9), (2, 1, 3)).vectors
        assert e.dtype == g.dtype == np.float64
        assert e.tolist() == [1.0, 4.0, 9.0] and g.tolist() == [2.0, 1.0, 3.0]

    def test_read_only(self):
        grid = RevenueGrid((1, 4, 9), (2, 1, 3))
        for array in grid.vectors:
            with pytest.raises(ValueError):
                array[0] = 7.0
        assert grid.vectors[0].tolist() == [1.0, 4.0, 9.0]

    def test_built_once(self):
        grid = RevenueGrid((1, 4, 9), (2, 1, 3))
        assert grid.vectors is grid.vectors

    def test_no_part_in_equality_hash_repr_or_asdict(self):
        built, fresh = RevenueGrid((1, 4, 9), (2, 1, 3)), RevenueGrid((1, 4, 9), (2, 1, 3))
        built.vectors
        assert "vectors" in built.__dict__ and "vectors" not in fresh.__dict__
        assert built == fresh and hash(built) == hash(fresh)
        assert repr(built) == repr(fresh)
        assert dataclasses.asdict(built) == dataclasses.asdict(fresh)

    def test_pickle_round_trip(self):
        built, fresh = RevenueGrid((1, 4, 9), (2, 1, 3)), RevenueGrid((1, 4, 9), (2, 1, 3))
        built.vectors
        assert pickle.dumps(built) == pickle.dumps(fresh)
        copy = pickle.loads(pickle.dumps(built))
        assert copy == built and "vectors" not in copy.__dict__
        e, g = copy.vectors
        assert e.tolist() == [1.0, 4.0, 9.0] and g.tolist() == [2.0, 1.0, 3.0]
        assert not e.flags.writeable and not g.flags.writeable

    def test_scaled_grid_gets_its_own_vectors(self):
        grid = RevenueGrid((1, 4, 9), (2, 1, 3))
        grid.vectors
        scaled = grid.scaled(3)
        assert "vectors" not in scaled.__dict__
        assert scaled.vectors[0].tolist() == [3.0, 12.0, 27.0]
        assert scaled.vectors[1].tolist() == grid.vectors[1].tolist()
        assert scaled.vectors[1] is not grid.vectors[1]

    @pytest.mark.parametrize("regime", list(Regime))
    def test_catalog_never_builds_them(self, regime):
        grid = RevenueGrid((1, 2, 3, 5), (2, 1, 3, 1))
        cat = catalog(grid, EconomyConfig(8, 20, regime))
        cat.most_probable()
        assert "vectors" not in grid.__dict__


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


def test_economic_order_validation():
    with pytest.raises(ConfigError, match="order: occupancies must be non-negative"):
        EconomicOrder((2, -1, 0))
    order = EconomicOrder(tuple(np.array([3, 0, 2], dtype=np.int64)))
    assert order.occupancy == (3, 0, 2)
    assert all(type(a) is int for a in order.occupancy)
    assert EconomicOrder(()).occupancy == ()
    assert EconomicOrder([1, 2]) == EconomicOrder((1, 2))
    assert hash(EconomicOrder([1, 2])) == hash(EconomicOrder((np.int64(1), 2)))
    assert EconomicOrder((1, 2)) != EconomicOrder((2, 1))
    order = EconomicOrder((2.0, np.uint8(1), True))
    assert order.occupancy == (2, 1, 1)
    assert all(type(a) is int for a in order.occupancy)


# On two levels paying 1 and 2, N = 3 and Pi = 5 are met by (1, 2), the
# order that truncating (1.5, 2) or (1.9, 2) would give.
ORDER_GRID = RevenueGrid((1, 2), (1, 2))
ORDER_CONFIG = EconomyConfig(3, 5, Regime.MONOPOLISTIC)


@pytest.mark.parametrize(
    "occupancy",
    [(1.5, 2), (1.9, 2), (-1, 3), (float("nan"), 1), (float("inf"), 1), ("1", 2), ("x", 2)],
    ids=["1.5", "1.9", "negative", "nan", "inf", "str-digit", "str-letter"],
)
@pytest.mark.parametrize(
    "reader",
    [
        EconomicOrder,
        lambda occ: validate_order(occ, ORDER_GRID, ORDER_CONFIG),
        lambda occ: multiplicity(occ, ORDER_GRID, Regime.MONOPOLISTIC),
        lambda occ: multiplicity(occ, ORDER_GRID, Regime.PERFECT),
        lambda occ: log_multiplicity(occ, ORDER_GRID, Regime.MONOPOLISTIC),
        lambda occ: log_multiplicity(occ, ORDER_GRID, Regime.PERFECT),
    ],
    ids=[
        "EconomicOrder",
        "validate_order",
        "multiplicity-mon",
        "multiplicity-per",
        "log_multiplicity-mon",
        "log_multiplicity-per",
    ],
)
def test_occupancies_must_be_non_negative_integers(reader, occupancy):
    with pytest.raises(ConfigError, match="order: occupancies must be non-negative integers"):
        reader(occupancy)


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
    # scipy is imported by the fits and the checks that use it, and
    # numpy.random by the sampler, the fits and the checks, not at start-up
    # (numpy before 2.0 loads numpy.random itself, which is not ours to guard)
    import econorder

    src = str(Path(econorder.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = (
        "import sys, numpy; numpy_loads_it = 'numpy.random' in sys.modules; "
        "import econorder, econorder.cli; "
        "print('scipy' in sys.modules, 'numpy.random' in sys.modules and not numpy_loads_it)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False False"
