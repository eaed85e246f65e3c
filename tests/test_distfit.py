import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmon.distfit import (
    ConvergenceError,
    fit_exponential_tail,
    fit_powerlaw_mle,
    fit_weibull_mle,
    emit_pdf_points,
    ks_statistic,
    powerlaw_cdf,
    weibull_cdf,
    weibull_pdf,
)

from _oracles import (
    decimal_weibull_pdf,
    exponential_samples,
    powerlaw_int_samples,
    reference_ks_statistic,
    weibull_samples,
)

# Asymptotic MLE standard deviations for the two-parameter Weibull:
# Var(k) = 0.6079 k^2 / n, Var(lam) = 1.1087 lam^2 / (k^2 n).
def weibull_mle_se(k, lam, n):
    return math.sqrt(0.6079) * k / math.sqrt(n), math.sqrt(1.1087) * lam / (k * math.sqrt(n))


class TestWeibullPdf:
    def test_negative_argument_is_zero(self):
        assert weibull_pdf(-1.0, 1.9, 3.8) == 0.0
        assert weibull_pdf(-1e-9, 0.5, 1.0) == 0.0

    def test_at_scale_point(self):
        for k in (0.5, 1.0, 1.9, 3.0):
            lam = 2.7
            assert weibull_pdf(lam, k, lam) == pytest.approx((k / lam) * math.exp(-1.0))

    def test_matches_high_precision_oracle(self):
        v = weibull_pdf(2.0, 1.9, 3.8)
        oracle = float(decimal_weibull_pdf(2.0, 1.9, 3.8))
        assert v == pytest.approx(oracle, rel=1e-14)

    @pytest.mark.parametrize("x, k, lam", [
        (2.0, 1000.0, 1.0),         # z^(k-1) and z^k overflow: density 0
        (1.0, 1.0, 1e-320),         # k/lam and z overflow: inf * 0
        (50.0, 2.0, 5e-324),
        (1e-300, 0.001, 1e300),     # z underflows to 0 under a negative power
        (1e-320, 0.001, 1e300),     # the density itself is beyond the float range
        (0.5, 1000.0, 0.6),         # z^k underflows: direct formula, kept as is
    ])
    def test_extreme_parameters_match_high_precision_oracle(self, x, k, lam):
        oracle = float(decimal_weibull_pdf(x, k, lam, prec=60))
        assert weibull_pdf(x, k, lam) == pytest.approx(oracle, rel=1e-9)

    def test_cdf_beyond_float_range_is_one(self):
        assert weibull_cdf(2.0, 1e300, 1.0) == 1.0
        assert weibull_cdf(1.0, 2.0, 5e-324) == 1.0

    def test_origin_cases(self):
        assert weibull_pdf(0.0, 1.9, 3.8) == 0.0
        assert weibull_pdf(0.0, 1.0, 3.8) == pytest.approx(1.0 / 3.8)
        assert weibull_pdf(0.0, 0.5, 3.8) == math.inf

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            weibull_pdf(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            weibull_pdf(1.0, 1.0, -2.0)

    @pytest.mark.parametrize("k", [0.5, 1.0, 1.9, 3.0])
    def test_integrates_to_one(self, k):
        lam = 3.8
        # Upper limit where the survival mass exp(-(x/lam)^k) drops below
        # 1e-6; for k=0.5 that is ~190*lam, far past 20*lam.
        upper = lam * max(20.0, (-math.log(1e-6)) ** (1.0 / k))
        # Log-spaced mesh near 0 handles the k < 1 singularity; the
        # missing head mass below the first point is ~(eps/lam)^k.
        head = np.geomspace(1e-12 * lam, 0.5 * lam, 4000)
        tail = np.linspace(0.5 * lam, upper, 80000)
        xs = np.concatenate([head, tail[1:]])
        ys = np.array([weibull_pdf(float(x), k, lam) for x in xs])
        integral = float(np.trapezoid(ys, xs))
        assert integral == pytest.approx(1.0, abs=1e-3)


class TestWeibullCdf:
    def test_bounds_and_formula(self):
        assert weibull_cdf(0.0, 1.9, 3.8) == 0.0
        assert weibull_cdf(-5.0, 1.9, 3.8) == 0.0
        assert weibull_cdf(3.8, 1.9, 3.8) == pytest.approx(1.0 - math.exp(-1.0))
        assert weibull_cdf(1e9, 1.9, 3.8) == pytest.approx(1.0)


class TestFitWeibullMle:
    def test_recovers_generating_parameters(self):
        x = weibull_samples(1.9, 3.8, 10_000, seed=0)
        fit = fit_weibull_mle(x)
        assert 1.85 <= fit.k <= 1.95
        assert 3.7 <= fit.lam <= 3.9
        assert fit.n_samples == 10_000
        assert 0.0 <= fit.ks_statistic <= 1.0

    def test_zero_variance_sample_fails_to_converge(self):
        with pytest.raises(ConvergenceError) as exc:
            fit_weibull_mle([4.2] * 50)
        assert exc.value.last_k == math.inf

    def test_exponential_is_weibull_shape_one(self):
        x = exponential_samples(1.0, 10_000, seed=11)
        fit = fit_weibull_mle(x)
        assert 0.97 <= fit.k <= 1.03
        assert 0.97 <= fit.lam <= 1.03

    def test_stationarity_residual_below_tol(self):
        x = weibull_samples(1.3, 7.0, 5_000, seed=42)
        fit = fit_weibull_mle(x)
        # independent residual evaluation
        k = fit.k
        xk = x**k
        residual = float((xk * np.log(x)).sum() / xk.sum() - 1.0 / k - np.log(x).mean())
        assert abs(residual) < 1e-9

    def test_scale_equivariance(self):
        x = weibull_samples(2.4, 1.0, 2_000, seed=5)
        base = fit_weibull_mle(x)
        scaled = fit_weibull_mle(x * 250.0)
        assert scaled.k == pytest.approx(base.k, rel=1e-6)
        assert scaled.lam == pytest.approx(base.lam * 250.0, rel=1e-6)

    def test_recovery_within_three_standard_errors(self):
        k_true, lam_true, n = 1.9, 3.8, 10_000
        se_k, se_lam = weibull_mle_se(k_true, lam_true, n)
        for seed in range(777, 797):
            fit = fit_weibull_mle(weibull_samples(k_true, lam_true, n, seed))
            assert abs(fit.k - k_true) <= 3 * se_k
            assert abs(fit.lam - lam_true) <= 3 * se_lam

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_weibull_mle([1.0, 2.0, 3.0])  # too few
        with pytest.raises(ValueError):
            fit_weibull_mle([1.0] * 9 + [0.0])
        with pytest.raises(ValueError):
            fit_weibull_mle([1.0] * 9 + [-3.0])

    def test_log_likelihood_value(self):
        x = weibull_samples(1.9, 3.8, 100, seed=3)
        fit = fit_weibull_mle(x)
        expected = sum(math.log(weibull_pdf(float(v), fit.k, fit.lam)) for v in x)
        assert fit.log_likelihood == pytest.approx(expected, rel=1e-12)


class TestFitPowerlawMle:
    def test_all_samples_at_xmin(self):
        fit = fit_powerlaw_mle([1] * 50, xmin=1)
        assert fit.alpha == pytest.approx(1.0 + 1.0 / math.log(2.0))
        assert fit.n_tail == 50

    def test_geometric_series_closed_form(self):
        samples = [2**j for j in range(14)]
        fit = fit_powerlaw_mle(samples, xmin=1)
        expected = 1.0 + 14.0 / sum(math.log(2**j / 0.5) for j in range(14))
        assert fit.alpha == pytest.approx(expected, rel=1e-12)

    def test_recovers_generating_exponent(self):
        # The continuous-approximation estimator is consistent once xmin
        # is a few units up; at xmin=1 integer discreteness biases it low.
        fit = fit_powerlaw_mle(powerlaw_int_samples(2.5, 5, 10_000, seed=6), xmin=5)
        assert 2.4 <= fit.alpha <= 2.6

    def test_recovery_within_three_standard_errors(self):
        alpha_true, xmin, n = 2.5, 5, 10_000
        se = (alpha_true - 1.0) / math.sqrt(n)
        for seed in range(20):
            fit = fit_powerlaw_mle(powerlaw_int_samples(alpha_true, xmin, n, seed), xmin=xmin)
            assert abs(fit.alpha - alpha_true) <= 3 * se

    def test_permutation_invariant(self):
        samples = powerlaw_int_samples(2.2, 1, 500, seed=9)
        fit_a = fit_powerlaw_mle(samples)
        rng = random.Random(1)
        shuffled = samples[:]
        rng.shuffle(shuffled)
        fit_b = fit_powerlaw_mle(shuffled)
        assert fit_a == fit_b

    def test_log_likelihood_value(self):
        fit = fit_powerlaw_mle([1] * 20, xmin=1)
        n, a = 20, fit.alpha
        expected = n * math.log(a - 1.0) - n * math.log(0.5) - a * n * math.log(2.0)
        assert fit.log_likelihood == pytest.approx(expected, rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_powerlaw_mle([5, 6], xmin=10)  # fewer than 2 tail samples
        with pytest.raises(ValueError):
            fit_powerlaw_mle([1, 2, 2.5])  # non-integer
        with pytest.raises(ValueError):
            fit_powerlaw_mle([1, 2, 0])
        with pytest.raises(ValueError):
            fit_powerlaw_mle([1, 2, 3], xmin=0)


class TestExponentialTail:
    def test_rate_recovery(self):
        x = [int(v) + 1 for v in exponential_samples(0.2, 5_000, seed=8)]
        rate, _ = fit_exponential_tail(x, xmin=1)
        # crude check: mean of integerised Exp(0.2)+1 is ~ 5.5 => rate ~ 0.2
        assert 0.15 <= rate <= 0.26

    def test_powerlaw_beats_exponential_on_heavy_tail(self):
        samples = powerlaw_int_samples(2.0, 1, 5_000, seed=10)
        pl = fit_powerlaw_mle(samples, xmin=1)
        _, ll_exp = fit_exponential_tail(samples, xmin=1)
        assert pl.log_likelihood > ll_exp

    def test_exponential_beats_powerlaw_on_light_tail(self):
        samples = [int(v) + 1 for v in exponential_samples(1.0, 5_000, seed=12)]
        pl = fit_powerlaw_mle(samples, xmin=1)
        _, ll_exp = fit_exponential_tail(samples, xmin=1)
        assert ll_exp > pl.log_likelihood


class TestKsStatistic:
    def test_exact_quantiles_give_small_statistic(self):
        n = 200
        cdf = lambda v: weibull_cdf(v, 1.9, 3.8)
        samples = [3.8 * (-math.log(1.0 - i / (n + 1))) ** (1 / 1.9) for i in range(1, n + 1)]
        assert ks_statistic(samples, cdf) <= 1.0 / (n + 1) + 1e-12

    def test_single_sample_at_median(self):
        cdf = lambda v: weibull_cdf(v, 1.9, 3.8)
        median = 3.8 * math.log(2.0) ** (1 / 1.9)
        assert ks_statistic([median], cdf) == pytest.approx(0.5)

    def test_critical_value_sweep(self):
        n = 10_000
        passes = 0
        for seed in range(100):
            x = weibull_samples(1.9, 3.8, n, seed + 1000)
            d = ks_statistic(x, lambda v: weibull_cdf(v, 1.9, 3.8))
            if d < 1.63 / math.sqrt(n):
                passes += 1
        assert passes >= 97

    @given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=50))
    @settings(max_examples=100)
    def test_bounded_in_unit_interval(self, samples):
        d = ks_statistic(samples, lambda v: weibull_cdf(v, 1.9, 3.8))
        assert 0.0 <= d <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic([], lambda v: 0.5)

    # Lifetime-like samples: a few small integers, each repeated many times.
    @given(st.lists(st.one_of(st.integers(0, 12), st.sampled_from([0.5, 2.25, 1e9])),
                    min_size=1, max_size=300),
           st.sampled_from([(1.9, 3.8), (0.7, 1800.0), (5.0, 1.0)]))
    @settings(max_examples=200, deadline=None)
    def test_ties_agree_exactly_with_per_sample_reference(self, samples, params):
        calls = []

        def cdf(v):
            calls.append(v)
            return weibull_cdf(v, *params)

        d = ks_statistic(samples, cdf)
        assert sorted(calls) == sorted(set(map(float, samples)))
        assert d == reference_ks_statistic(samples, lambda v: weibull_cdf(v, *params))


class TestPowerlawCdf:
    def test_support_and_monotonicity(self):
        assert powerlaw_cdf(0.5, 2.5, 1) == 0.0
        vals = [powerlaw_cdf(x, 2.5, 1) for x in (1, 2, 5, 50, 5000)]
        assert vals == sorted(vals)
        assert vals[-1] > 0.999


class TestEmitPdfPoints:
    def test_two_point_endpoints(self):
        from netmon.distfit import WeibullFit

        fit = WeibullFit(k=1.9, lam=3.8, log_likelihood=0.0, n_samples=10, ks_statistic=0.0)
        points = emit_pdf_points(fit, x_max=3.8, n_points=2)
        assert points[0] == (0.0, 0.0)
        assert points[1][0] == pytest.approx(3.8)
        assert points[1][1] == pytest.approx((1.9 / 3.8) * math.exp(-1.0))

    def test_peak_near_mode(self):
        from netmon.distfit import WeibullFit

        k, lam = 1.9, 180.0
        fit = WeibullFit(k=k, lam=lam, log_likelihood=0.0, n_samples=10, ks_statistic=0.0)
        points = emit_pdf_points(fit, x_max=720.0, n_points=100)
        grid_step = 720.0 / 99
        peak_x = max(points, key=lambda p: p[1])[0]
        mode = lam * ((k - 1.0) / k) ** (1.0 / k)
        assert abs(peak_x - mode) <= grid_step

    def test_curve_mass_is_one(self):
        from netmon.distfit import WeibullFit

        for k, lam in [(1.9, 3.8), (1.9, 180.0), (3.0, 2.0)]:
            fit = WeibullFit(k=k, lam=lam, log_likelihood=0.0, n_samples=10, ks_statistic=0.0)
            points = emit_pdf_points(fit, x_max=10.0 * lam, n_points=100)
            xs = [p[0] for p in points]
            ys = [p[1] for p in points]
            integral = float(np.trapezoid(ys, xs))
            assert 0.99 <= integral <= 1.001

    def test_rejects_bad_input(self):
        from netmon.distfit import WeibullFit

        fit = WeibullFit(k=1.9, lam=3.8, log_likelihood=0.0, n_samples=10, ks_statistic=0.0)
        with pytest.raises(ValueError):
            emit_pdf_points(fit, x_max=1.0, n_points=1)
        with pytest.raises(ValueError):
            emit_pdf_points(fit, x_max=0.0, n_points=5)
