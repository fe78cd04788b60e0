"""Tests for spectral-moment estimation."""

import math

import numpy as np
import pytest
from scipy.special import ndtri

from peaksig import (
    ESTIMATORS,
    Grid,
    MAD_SCALE,
    NoiseSpec,
    SampledSeries,
    convolve,
    count_upcrossings,
    default_acf_lag_window,
    difference,
    estimate_moments_acf,
    estimate_moments_crossing,
    estimate_moments_mad,
    estimate_moments_var,
    mad_variance,
    make_gaussian_kernel,
    synthesize_noise,
)

# Gaussian-autocorrelation targets at xi = 1.5, sigma = 1: continuous
# moments and the difference-quotient (grid) versions the estimators see.
TRUE_SIGMA2 = 0.18806319451591877
TRUE_LAMBDA2 = 0.04179182100353751
TRUE_LAMBDA4 = 0.02786121400235834
GRID_LAMBDA2 = 0.03955370803473218  # 2 (c(0) - c(1)) for the truncated kernel
GRID_LAMBDA4 = 0.023253307325280942  # 6 c0 - 8 c1 + 2 c2


def smoothed_noise(n, seed, gamma=1.5):
    raw = synthesize_noise(NoiseSpec(sigma=1.0, nu=0.0), Grid(n), seed=seed)
    kernel = make_gaussian_kernel(gamma)
    return SampledSeries(convolve(raw.values, kernel), boundary=kernel.half_width)


class TestDifference:
    def test_example(self):
        s = SampledSeries([1.0, 4.0, 9.0], spacing=1.0, origin=0.0)
        d = difference(s)
        assert d.values.tolist() == [3.0, 5.0]
        assert d.origin == 0.5
        assert d.spacing == 1.0

    def test_spacing_scales_quotient(self):
        s = SampledSeries([1.0, 4.0, 9.0], spacing=0.5, origin=2.0)
        d = difference(s)
        assert d.values.tolist() == [6.0, 10.0]
        assert d.origin == 2.25

    def test_too_short(self):
        with pytest.raises(ValueError):
            difference(SampledSeries([1.0]))


class TestMadVariance:
    def test_example(self):
        s = SampledSeries([1.0, 2.0, 3.0, 4.0, 5.0])
        assert mad_variance(s) == pytest.approx(2.1981, abs=1e-3)
        assert mad_variance(s) == pytest.approx(MAD_SCALE**2, rel=1e-12)

    def test_constant_is_zero(self):
        assert mad_variance(SampledSeries([7.0, 7.0, 7.0])) == 0.0

    def test_consistent_for_gaussian(self):
        rng = np.random.default_rng(5)
        s = SampledSeries(rng.normal(0.0, 1.7, size=1_000_000))
        assert mad_variance(s) == pytest.approx(1.7**2, rel=0.01)

    def test_scale_constant(self):
        assert MAD_SCALE == pytest.approx(1.0 / ndtri(0.75), rel=1e-15)
        assert MAD_SCALE == pytest.approx(1.4826, abs=1e-4)


class TestCountUpcrossings:
    def test_example(self):
        assert count_upcrossings(np.array([0.0, 1.0, 0.0, 1.0, 0.0]), 0.5) == 2

    def test_touching_counts_once(self):
        # x[i] < level <= x[i+1]: landing exactly on the level counts.
        assert count_upcrossings(np.array([0.0, 0.5, 0.0]), 0.5) == 1

    def test_monotone_down_has_none(self):
        assert count_upcrossings(np.array([3.0, 2.0, 1.0]), 1.5) == 0


class TestEquivariance:
    """All four estimators commute with scaling; all are translation
    invariant (exactly for differences, through the median for levels)."""

    @staticmethod
    def estimates(series):
        return {
            "mad": estimate_moments_mad(series),
            "var": estimate_moments_var(series),
            "acf": estimate_moments_acf(series, lag_window=5),
            "crossing": estimate_moments_crossing(series),
        }

    def test_scale_equivariance(self):
        base = smoothed_noise(20_000, seed=11)
        scaled = SampledSeries(4.0 * base.values, base.spacing, base.origin)
        for name, est in self.estimates(base).items():
            est2 = self.estimates(scaled)[name]
            assert est2.moments.sigma2 == pytest.approx(
                16.0 * est.moments.sigma2, rel=1e-9
            ), name
            assert est2.moments.lambda2 == pytest.approx(
                16.0 * est.moments.lambda2, rel=1e-9
            ), name
            assert est2.moments.lambda4 == pytest.approx(
                16.0 * est.moments.lambda4, rel=1e-9
            ), name

    def test_translation_invariance(self):
        base = smoothed_noise(20_000, seed=12)
        shifted = SampledSeries(base.values + 7.25, base.spacing, base.origin)
        for name, est in self.estimates(base).items():
            est2 = self.estimates(shifted)[name]
            assert est2.moments.sigma2 == pytest.approx(
                est.moments.sigma2, rel=1e-7
            ), name
            assert est2.moments.lambda2 == pytest.approx(
                est.moments.lambda2, rel=1e-7
            ), name
            assert est2.moments.lambda4 == pytest.approx(
                est.moments.lambda4, rel=1e-7
            ), name


class TestMadAndVarOnNoise:
    def test_mad_recovers_grid_moments(self):
        s = smoothed_noise(1_000_000, seed=21)
        m = estimate_moments_mad(s).moments
        assert m.sigma2 == pytest.approx(TRUE_SIGMA2, rel=0.02)
        assert m.lambda2 == pytest.approx(GRID_LAMBDA2, rel=0.02)
        assert m.lambda4 == pytest.approx(GRID_LAMBDA4, rel=0.02)

    def test_var_agrees_on_pure_noise(self):
        s = smoothed_noise(1_000_000, seed=22)
        mad = estimate_moments_mad(s).moments
        var = estimate_moments_var(s).moments
        assert var.sigma2 == pytest.approx(mad.sigma2, rel=0.02)
        assert var.lambda2 == pytest.approx(mad.lambda2, rel=0.02)
        assert var.lambda4 == pytest.approx(mad.lambda4, rel=0.02)

    def test_var_needs_four_samples(self):
        # Three samples leave one second difference, whose ddof=1 variance
        # is 0/0; the estimator refuses them as crossing does.
        with pytest.raises(ValueError, match="need at least 4 samples"):
            estimate_moments_var(SampledSeries([1.0, 2.0, 0.5]))
        assert not estimate_moments_var(SampledSeries([1.0, 2.0, 0.5, 3.0])).degenerate

    def test_grid_moments_sit_below_continuous(self):
        # Difference quotients lose curvature relative to the continuum.
        assert GRID_LAMBDA2 < TRUE_LAMBDA2
        assert GRID_LAMBDA4 < TRUE_LAMBDA4


class TestCrossing:
    def test_recovers_lambda2_on_noise(self):
        s = smoothed_noise(1_000_000, seed=23)
        est = estimate_moments_crossing(s)
        assert not est.degenerate
        assert est.moments.lambda2 == pytest.approx(GRID_LAMBDA2, rel=0.05)

    def test_diagnostics(self):
        s = smoothed_noise(5_000, seed=24)
        est = estimate_moments_crossing(s)
        n0, n_up, n_dn = est.diagnostics["counts"]
        assert n0 > 0 and n_up > 0 and n_dn > 0
        assert est.diagnostics["levels"][0] == 0.0
        assert est.diagnostics["levels"][1] == pytest.approx(
            2.0 * math.sqrt(est.moments.sigma2) / 3.0
        )

    def test_monotone_series_degenerate(self):
        est = estimate_moments_crossing(SampledSeries([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert est.degenerate

    def test_constant_series_degenerate(self):
        est = estimate_moments_crossing(SampledSeries([2.0, 2.0, 2.0, 2.0]))
        assert est.degenerate
        assert est.moments.sigma2 == 0.0

    def test_too_short(self):
        with pytest.raises(ValueError):
            estimate_moments_crossing(SampledSeries([1.0, 2.0, 1.0]))


class TestAcf:
    def test_fit_to_analytic_autocovariance(self):
        # Feeding the exact autocovariance of the xi = 1.5 model at lags
        # 0..5 pins the polynomial fit's systematic errors: sigma2 comes
        # back a few percent low, the curvature terms much lower. These
        # are properties of the quartic fit window, not sampling noise.
        from peaksig.moments_est import acf_polynomial_fit

        xi = 1.5
        lags = np.arange(6)
        acvf = np.exp(-(lags**2) / (4.0 * xi**2)) / (2.0 * math.sqrt(math.pi) * xi)
        sigma2, lambda2, lambda4 = acf_polynomial_fit(acvf, spacing=1.0)
        assert sigma2 / TRUE_SIGMA2 - 1.0 == pytest.approx(-0.0256, abs=0.002)
        assert lambda2 / TRUE_LAMBDA2 - 1.0 == pytest.approx(-0.2607, abs=0.005)
        assert lambda4 / TRUE_LAMBDA4 - 1.0 == pytest.approx(-0.7011, abs=0.005)
        # sigma2 is still within 15 percent; the derivative moments are
        # biased low and downstream p-values inherit that.
        assert abs(sigma2 / TRUE_SIGMA2 - 1.0) < 0.15

    def test_on_sampled_noise(self):
        s = smoothed_noise(1_000_000, seed=25)
        est = estimate_moments_acf(s, lag_window=5)
        assert not est.degenerate
        assert est.moments.sigma2 == pytest.approx(TRUE_SIGMA2 * (1 - 0.0256), rel=0.02)

    def test_lag_window_too_small(self):
        with pytest.raises(ValueError):
            estimate_moments_acf(smoothed_noise(100, seed=1), lag_window=2)

    def test_series_too_short_for_window(self):
        with pytest.raises(ValueError):
            estimate_moments_acf(SampledSeries([1.0, 2.0, 1.0, 2.0]), lag_window=5)

    def test_default_lag_window(self):
        assert default_acf_lag_window(1.5, 1.0) == 5
        assert default_acf_lag_window(3.0, 1.0) == 9
        assert default_acf_lag_window(0.1, 1.0) == 5  # floor of 5

    def test_diagnostics(self):
        s = smoothed_noise(10_000, seed=26)
        est = estimate_moments_acf(s, lag_window=5)
        assert est.diagnostics["lag_window"] == 5
        assert est.diagnostics["acvf_lag0"] == pytest.approx(
            np.mean((s.values - s.values.mean()) ** 2), rel=1e-9
        )


class TestDegenerateFlagging:
    def test_constant_series_flagged_not_raised(self):
        s = SampledSeries([3.0] * 50)
        for name, fn in ESTIMATORS.items():
            est = fn(s, 5) if name == "acf" else fn(s)
            assert est.degenerate, name
            assert est.method == name

    def test_clean_noise_not_flagged(self):
        s = smoothed_noise(50_000, seed=27)
        for name, fn in ESTIMATORS.items():
            est = fn(s, 5) if name == "acf" else fn(s)
            assert not est.degenerate, name
            est.moments.validate()
