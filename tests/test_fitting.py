"""Sample loading, the two candidate-law fits, and goodness of fit."""

import math

import numpy as np
import pytest
from scipy import stats

from econorder import (
    ConfigError,
    EconOrderError,
    FitResult,
    SampleSet,
    fit_boltzmann,
    fit_bose_einstein,
    goodness_of_fit,
    ks_critical_value,
    load_samples,
    synthetic_bose_einstein,
    synthetic_exponential,
)
from econorder.fitting import _bose_einstein_cdf

BE_LEVELS = list(range(1, 51))


class TestLoadSamples:
    def test_one_column(self, tmp_path):
        path = tmp_path / "vals.csv"
        path.write_text("5\n7\n")
        values = load_samples(path).values
        assert values.dtype == np.float64
        assert values.tolist() == [5.0, 7.0]

    def test_two_column_count_expansion(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("10,3\n20,1\n")
        assert load_samples(path).values.tolist() == [10.0, 10.0, 10.0, 20.0]

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("rows", ["5\n{}\n7\n", "5,1\n{},2\n"])
    def test_non_finite_value_names_its_line(self, tmp_path, cell, rows):
        path = tmp_path / "vals.csv"
        path.write_text(rows.format(cell))
        with pytest.raises(ConfigError, match="vals.csv:2: non-finite value rejected"):
            load_samples(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ConfigError, match="no samples"):
            load_samples(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("5\nnot-a-number\n")
        with pytest.raises(ConfigError, match="bad.csv:2"):
            load_samples(path)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("5\n7,2\n", "rows.csv:2: expected one column, got 2"),
            ("5,1\n7\n", "rows.csv:2: expected value,count columns"),
            ("5,1\n7,x\n", "rows.csv:2: cannot parse count 'x'"),
        ],
        ids=["two-after-one", "one-after-two", "count"],
    )
    def test_mixed_or_unparsable_rows_name_their_line(self, tmp_path, rows, message):
        path = tmp_path / "rows.csv"
        path.write_text(rows)
        with pytest.raises(ConfigError, match=message):
            load_samples(path)

    @pytest.mark.parametrize(
        "rows, values",
        [("\n5\n\n ,\n7\n", [5.0, 7.0]), ("5,2\n\n7,1\n", [5.0, 5.0, 7.0])],
        ids=["one-column", "value-count"],
    )
    def test_blank_rows_are_skipped(self, tmp_path, rows, values):
        path = tmp_path / "blank.csv"
        path.write_text(rows)
        assert load_samples(path).values.tolist() == values

    def test_negative_value_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("5\n-2\n")
        with pytest.raises(ConfigError, match="negative"):
            load_samples(path)

    def test_zero_count_rejected(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("10,0\n")
        with pytest.raises(ConfigError, match="count"):
            load_samples(path)


class TestSampleSet:
    def test_values_are_a_read_only_copy(self):
        source = np.array([1.0, 2.5, 4.0])
        samples = SampleSet(source)
        source[0] = 99.0
        assert samples.values.tolist() == [1.0, 2.5, 4.0]
        with pytest.raises(ValueError):
            samples.values[0] = 0.0

    def test_integers_become_float64(self):
        assert SampleSet([1, 2, 3]).values.dtype == np.float64

    @pytest.mark.parametrize(
        "values, message",
        [
            ((), "no samples"),
            ((1.0, -0.5), "negative"),
            ([[1.0, 2.0]], "one-dimensional"),
            ((1.0, math.nan), "non-finite"),
            ((1.0, math.inf), "non-finite"),
            ((-math.inf,), "non-finite"),
        ],
    )
    def test_rejects(self, values, message):
        with pytest.raises(ConfigError, match=message):
            SampleSet(values)


class TestBoltzmannFit:
    def test_synthetic_recovery_within_two_percent(self):
        samples = synthetic_exponential(100_000, 10.0, 0.0, seed=2718)
        fit = fit_boltzmann(samples, tail_quantile=0.0)
        assert fit.parameters["t_eff"] == pytest.approx(10.0, rel=0.02)
        assert fit.parameters["mu"] == pytest.approx(0.0, abs=0.01)

    def test_degenerate_samples_error(self):
        with pytest.raises(EconOrderError):
            fit_boltzmann(SampleSet((4.0, 4.0)), tail_quantile=0.0)
        with pytest.raises(EconOrderError, match="zero temperature"):
            fit_boltzmann(SampleSet((4.0,) * 25), tail_quantile=0.0)

    def test_shift_invariance(self):
        samples = synthetic_exponential(5000, 3.0, 0.0, seed=5)
        fit0 = fit_boltzmann(samples, tail_quantile=0.0)
        shifted = SampleSet(samples.values + 11.5)
        fit1 = fit_boltzmann(shifted, tail_quantile=0.0)
        assert fit1.parameters["mu"] == pytest.approx(fit0.parameters["mu"] + 11.5)
        assert fit1.parameters["t_eff"] == pytest.approx(fit0.parameters["t_eff"], rel=1e-12)

    def test_truncation_changes_plain_mean_estimate_predictably(self):
        # cutting the top 3% of an exponential body lowers the mean-excess
        # estimate by 1 - (1 - (Q+1)q)/(1-q) with Q = -ln q: about 10.8%
        samples = synthetic_exponential(100_000, 10.0, 0.0, seed=3)
        t_full = fit_boltzmann(samples, tail_quantile=0.0).parameters["t_eff"]
        t_cut = fit_boltzmann(samples, tail_quantile=0.03).parameters["t_eff"]
        assert 0.08 < (t_full - t_cut) / t_full < 0.13

    def test_estimator_consistency(self):
        mean_errors = []
        for n in (1000, 10_000, 100_000):
            errors = []
            for seed in range(20):
                samples = synthetic_exponential(n, 10.0, 0.0, seed=100 + seed)
                fit = fit_boltzmann(samples, tail_quantile=0.0)
                errors.append(abs(fit.parameters["t_eff"] - 10.0) / 10.0)
            mean_errors.append(float(np.mean(errors)))
        assert mean_errors[0] > mean_errors[1] > mean_errors[2]

    def test_tail_quantile_bounds(self):
        samples = synthetic_exponential(1000, 1.0, 0.0, seed=0)
        with pytest.raises(ConfigError):
            fit_boltzmann(samples, tail_quantile=0.5)


class TestBoseEinsteinFit:
    def test_synthetic_recovery_within_five_percent(self):
        samples = synthetic_bose_einstein(50_000, BE_LEVELS, 0.9, 10.0, seed=42)
        fit = fit_bose_einstein(samples, tail_quantile=0.0)
        assert fit.converged
        assert fit.parameters["mu"] == pytest.approx(0.9, rel=0.05)

    def test_recovery_robust_across_seeds(self):
        errors = []
        for seed in range(10):
            samples = synthetic_bose_einstein(50_000, BE_LEVELS, 0.9, 10.0, seed=seed)
            fit = fit_bose_einstein(samples, tail_quantile=0.0)
            errors.append(abs(fit.parameters["mu"] - 0.9) / 0.9)
        assert max(errors) < 0.05

    def test_pure_exponential_pushes_mu_below_support(self):
        samples = synthetic_exponential(20_000, 10.0, 0.0, seed=12)
        be = fit_bose_einstein(samples, tail_quantile=0.0)
        exp = fit_boltzmann(samples, tail_quantile=0.0)
        assert be.parameters["mu"] < samples.values.min() - 10.0
        # with mu pushed far down the BE law degenerates to an exponential,
        # so the two KS statistics are comparable
        assert abs(be.ks_statistic - exp.ks_statistic) < 0.01

    def test_sample_count_precondition(self):
        with pytest.raises(ConfigError):
            fit_bose_einstein(SampleSet(np.arange(99.0)))

    def test_equal_samples_give_no_fit(self):
        # 200 equal values: no spread to fit a law to, so the fit reports
        # non-convergence with no KS statistic, never a fabricated fit
        fit = fit_bose_einstein(SampleSet(np.full(200, 3.0)))
        assert fit.converged is False and math.isnan(fit.ks_statistic)
        assert fit.support == (3.0, 3.0)

    def test_bin_count_precondition(self):
        samples = synthetic_exponential(500, 1.0, 0.0, seed=0)
        with pytest.raises(ConfigError):
            fit_bose_einstein(samples, bins=4)


class TestGoodnessOfFit:
    def test_self_fit_passes_almost_always(self):
        passes = 0
        for seed in range(100):
            samples = synthetic_exponential(2000, 5.0, 1.0, seed=seed)
            fit = fit_boltzmann(samples, tail_quantile=0.0)
            if goodness_of_fit(fit).passed:
                passes += 1
        assert passes >= 95

    def test_uniform_data_fails_against_exponential(self):
        rng = np.random.default_rng(0)
        samples = SampleSet(rng.uniform(0, 10, 10_000))
        fit = fit_boltzmann(samples, tail_quantile=0.0)
        report = goodness_of_fit(fit)
        assert not report.passed

    @pytest.mark.parametrize("model", ["boltzmann", "bose_einstein"])
    def test_statistic_is_the_fits_own_and_matches_exact_kstest(self, model):
        # the fits ask scipy for the asymptotic mode; the distance must equal
        # the default (exact at this n) mode's, on the same retained body
        samples = synthetic_exponential(3000, 5.0, 1.0, seed=11)
        if model == "boltzmann":
            fit = fit_boltzmann(samples)
            cdf = stats.expon(loc=fit.parameters["mu"], scale=fit.parameters["t_eff"]).cdf
        else:
            fit = fit_bose_einstein(samples)
            assert fit.converged
            cdf = _bose_einstein_cdf(
                fit.parameters["mu"], fit.parameters["lambda_theta"], *fit.support
            )
        kept = np.sort(samples.values)[: fit.n_used]
        assert fit.n_used == 3000 - round(0.03 * 3000)
        assert fit.ks_statistic == stats.kstest(kept, cdf).statistic
        report = goodness_of_fit(fit)
        assert report.critical_value == ks_critical_value(fit.n_used)
        assert report.passed == (fit.ks_statistic < report.critical_value)

    def test_critical_value_needs_a_sample(self):
        with pytest.raises(ConfigError, match="KS critical value requires n >= 1"):
            ks_critical_value(0)

    def test_unconverged_fit_never_passes(self):
        fit = FitResult("bose_einstein", {}, math.nan, None, 500, (0.0, 1.0), False)
        assert not goodness_of_fit(fit).passed

    def test_small_n_uses_exact_critical_table(self):
        exact = ks_critical_value(10)
        assert exact == pytest.approx(float(stats.kstwo.ppf(0.99, 10)), rel=1e-12)
        asymptotic = math.sqrt(-0.5 * math.log(0.005)) / math.sqrt(10)
        assert exact != pytest.approx(asymptotic, rel=1e-3)
        assert ks_critical_value(100) == pytest.approx(
            math.sqrt(-0.5 * math.log(0.005)) / 10.0, rel=1e-12
        )


class TestDiscrimination:
    def test_near_condensation_data_prefers_bose_einstein(self):
        wins = 0
        seeds = range(8)
        for seed in seeds:
            samples = synthetic_bose_einstein(
                20_000, BE_LEVELS, 0.5, 4.0, seed=7000 + seed, mode="continuous"
            )
            be = fit_bose_einstein(samples, tail_quantile=0.0)
            exp = fit_boltzmann(samples, tail_quantile=0.0)
            if be.converged and be.ks_statistic < exp.ks_statistic:
                wins += 1
        assert wins >= 0.9 * len(list(seeds))


class TestSyntheticGenerators:
    def test_bin_weights_mode_matches_occupancy_shape(self):
        samples = synthetic_bose_einstein(200_000, BE_LEVELS, 0.9, 10.0, seed=1)
        values = np.asarray(samples.values)
        # mass in the ground cell tracks the occupancy weight of level 1
        weights = 1.0 / np.expm1((np.array(BE_LEVELS, float) - 0.9) / 10.0)
        expected = weights[0] / weights.sum()
        observed = float(np.mean(values < 1.5))
        assert observed == pytest.approx(expected, abs=0.01)

    def test_continuous_mode_ks_against_own_law(self):
        samples = synthetic_bose_einstein(
            20_000, BE_LEVELS, 0.5, 4.0, seed=3, mode="continuous"
        )
        cdf = _bose_einstein_cdf(0.5, 4.0, 1.0, 50.0)
        ks = float(stats.kstest(np.asarray(samples.values), cdf).statistic)
        assert ks < 0.02

    def test_levels_must_exceed_mu(self):
        with pytest.raises(ConfigError):
            synthetic_bose_einstein(100, [1, 2, 3], 1.5, 2.0, seed=0)

    def test_unknown_mode_is_refused(self):
        with pytest.raises(ConfigError, match="synthetic BE mode must be bin_weights or continuous"):
            synthetic_bose_einstein(100, [1, 2, 3], 0.5, 2.0, seed=0, mode="histogram")
