"""Every suite of ``econorder check`` can fail: a fault injected into the
route it checks gives ``passed is False`` and names the failure in its
detail, and a suite that raises gives one failed "exception" result."""

import dataclasses
from itertools import repeat

import pytest

from econorder import EconOrderError, checks, enumeration
from econorder.checks import (
    CheckResult,
    check_argmax_convergence,
    check_counting_oracle,
    check_macro_identities,
    check_sampler,
    check_solver,
    run_checks,
)


def wrap(monkeypatch, owner, name, change):
    """Replace ``owner.name`` by a call of it whose result ``change`` edits."""
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kwargs: change(real(*args, **kwargs), *args))


def test_counting_oracle_names_a_group_one_short(monkeypatch):
    # every group of several micro-outcomes loses its last one
    def short(groups, *args):
        return {order: members[:-1] if len(members) > 1 else members for order, members in groups.items()}

    wrap(monkeypatch, checks, "enumerate_outcomes", short)
    result = check_counting_oracle(3)
    assert result.passed is False
    assert int(result.detail["enumerated"]) == int(result.detail["formula"]) - 1
    assert set(result.detail) == {"order", "formula", "enumerated", "regime"}


def test_solver_suite_names_an_unconverged_solve(monkeypatch):
    wrap(monkeypatch, checks, "solve_multipliers", lambda sol, *args: dataclasses.replace(sol, converged=False))
    result = check_solver(5)
    assert result.passed is False
    assert result.detail["unconverged"] is True and result.detail["regime"] == "mon"


def test_argmax_convergence_fails_on_an_occupancy_far_from_the_argmax(monkeypatch):
    # every firm at the lowest level, whatever the economy's mean
    def grounded(sol, grid, config):
        occ = (float(config.n_firms),) + (0.0,) * (grid.n - 1)
        return dataclasses.replace(sol, occupancy=occ)

    wrap(monkeypatch, checks, "solve_multipliers", grounded)
    result = check_argmax_convergence()
    assert result.passed is False
    assert result.detail["mon"][-1] > 0.1 and result.detail["per"][-1] > 0.1


def test_sampler_fails_on_orders_drawn_off_their_probabilities(monkeypatch):
    # every draw picks the catalog's most probable order
    monkeypatch.setattr(
        enumeration.OrderCatalog, "picks", lambda self, seed: repeat(self.entries.positions[0])
    )
    result = check_sampler(44)
    assert result.passed is False
    assert result.detail["case_0_pvalue"] < 0.01 and result.detail["case_1_pvalue"] < 0.01


def test_macro_names_a_failed_round_trip(monkeypatch):
    wrap(monkeypatch, checks, "multipliers_from_macro", lambda ab, *args: (ab[0] * (1 + 1e-9), ab[1]))
    result = check_macro_identities(3)
    assert result.passed is False
    assert len(result.detail["roundtrip_failure"]) == 3


@pytest.mark.parametrize("bound", ["gradient", "residual"])
def test_macro_fails_past_its_residual_bounds(monkeypatch, bound):
    # an analytic gradient off by 1e-3 misses the constraint recovery (1e-8)
    # and the finite differences (1e-6); an identity residual as large as the
    # entropy misses the perfect-competition bound (1% of the entropy)
    def faulty(report, *args):
        if bound == "gradient":
            return dataclasses.replace(report, grad_alpha=report.grad_alpha * (1 + 1e-3))
        return dataclasses.replace(report, residual=report.entropy)

    wrap(monkeypatch, checks, "entropy_identity_residual", faulty)
    result = check_macro_identities(3)
    assert result.passed is False
    if bound == "gradient":
        for regime in ("mon", "per"):
            assert result.detail[regime]["recovery_err"] > 1e-8
            assert result.detail[regime]["fd_err"] > 1e-6
    else:
        assert result.detail["per"]["residual_over_entropy"] == 1.0


def test_a_suite_that_raises_gives_one_failed_exception_result(monkeypatch):
    # the other suites pass at once; the argmax suite raises a domain error
    passing = CheckResult("stub", True)
    for name in ("check_two_firm_example", "check_counting_oracle", "check_solver",
                 "check_sampler", "check_macro_identities"):
        monkeypatch.setattr(checks, name, lambda *args: passing)

    def raising():
        raise EconOrderError("argmax suite stopped")

    monkeypatch.setattr(checks, "check_argmax_convergence", raising)
    results = run_checks(7)
    assert results == [passing] * 3 + [
        CheckResult("exception", False, {"message": "argmax suite stopped"})
    ] + [passing] * 2
