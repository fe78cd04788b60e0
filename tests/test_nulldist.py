"""Tests for the peak-height null distribution."""

import math

import numpy as np
import pytest

from peaksig import (
    InvalidMomentsError,
    Candidates,
    NoiseSpec,
    SpectralMoments,
    assign_pvalues,
    expected_num_maxima,
    gaussian_model_moments,
    peak_height_right_cdf,
    peak_height_right_cdf_inverse,
)

# F(0) = 1/2 + 1/(2 sqrt 3) for the Gaussian-autocorrelation model,
# where lambda2^2 / (sigma2 lambda4) = 1/3 for every bandwidth.
F_AT_ZERO = 0.5 + 0.5 / math.sqrt(3.0)


def model_moments(sigma=1.0, nu=0.0, gamma=1.0):
    return gaussian_model_moments(NoiseSpec(sigma=sigma, nu=nu), gamma)


class TestGaussianModelMoments:
    def test_closed_form_at_xi_1_5(self):
        # sigma = 1, xi = 1.5: independently integrated values.
        m = model_moments(sigma=1.0, nu=0.0, gamma=1.5)
        assert m.sigma2 == pytest.approx(0.18806319451591877, rel=1e-12)
        assert m.lambda2 == pytest.approx(0.04179182100353751, rel=1e-12)
        assert m.lambda4 == pytest.approx(0.02786121400235834, rel=1e-12)

    def test_closed_form_at_xi_3(self):
        m = model_moments(sigma=1.0, nu=0.0, gamma=3.0)
        assert m.sigma2 == pytest.approx(0.09403159725795938, rel=1e-12)
        assert m.lambda2 == pytest.approx(0.005223977625442188, rel=1e-12)
        assert m.lambda4 == pytest.approx(0.0008706629375736979, rel=1e-12)

    def test_nu_combines_in_quadrature(self):
        a = model_moments(nu=4.0, gamma=3.0)
        b = model_moments(nu=0.0, gamma=5.0)
        assert a == b

    def test_scale_is_quadratic_in_sigma(self):
        one = model_moments(sigma=1.0, gamma=2.0)
        two = model_moments(sigma=2.0, gamma=2.0)
        assert two.sigma2 == pytest.approx(4.0 * one.sigma2, rel=1e-15)
        assert two.lambda2 == pytest.approx(4.0 * one.lambda2, rel=1e-15)
        assert two.lambda4 == pytest.approx(4.0 * one.lambda4, rel=1e-15)

    def test_moment_ratio_is_one_third(self):
        # lambda2^2 = sigma2 lambda4 / 3 identically in this model.
        for gamma in (0.7, 1.5, 3.0, 10.0):
            m = model_moments(gamma=gamma)
            assert m.lambda2**2 / (m.sigma2 * m.lambda4) == pytest.approx(
                1.0 / 3.0, rel=1e-12
            )
            assert m.delta > 0

    def test_params_validation(self):
        with pytest.raises(ValueError):
            gaussian_model_moments(NoiseSpec(sigma=0.0), 3.0)
        with pytest.raises(ValueError):
            gaussian_model_moments(NoiseSpec(nu=-1.0), 3.0)
        for gamma in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="gamma must be positive"):
                gaussian_model_moments(NoiseSpec(), gamma)


class TestSpectralMoments:
    def test_validate_passes_through(self):
        m = SpectralMoments(1.0, 0.5, 1.0)
        assert m.validate() is m

    @pytest.mark.parametrize(
        "triple",
        [
            (0.0, 0.5, 1.0),
            (1.0, -0.5, 1.0),
            (1.0, 0.5, 0.0),
            (np.nan, 0.5, 1.0),
            (1.0, 1.0, 1.0),  # delta = 0
            (1.0, 2.0, 1.0),  # delta < 0
        ],
    )
    def test_validate_rejects(self, triple):
        with pytest.raises(InvalidMomentsError):
            SpectralMoments(*triple).validate()

    def test_invalid_moments_is_value_error(self):
        assert issubclass(InvalidMomentsError, ValueError)


class TestRightCdf:
    def test_value_at_zero(self):
        m = model_moments(gamma=3.0)
        assert peak_height_right_cdf(m, 0.0) == pytest.approx(F_AT_ZERO, abs=1e-12)

    def test_heavier_than_gaussian_at_zero(self):
        assert F_AT_ZERO > 0.5

    def test_monotone_decreasing(self):
        m = model_moments(gamma=1.5)
        sigma = math.sqrt(m.sigma2)
        u = np.linspace(-6.0 * sigma, 8.0 * sigma, 10_000)
        f = peak_height_right_cdf(m, u)
        # Allow one ulp of rounding noise where f saturates at 1.
        assert np.all(np.diff(f) <= 1e-15)
        assert np.all((f >= 0.0) & (f <= 1.0))

    def test_limits(self):
        m = model_moments(gamma=2.0)
        sigma = math.sqrt(m.sigma2)
        assert peak_height_right_cdf(m, -10.0 * sigma) >= 1.0 - 1e-6
        assert peak_height_right_cdf(m, 10.0 * sigma) <= 1e-12

    def test_scalar_and_vector_forms(self):
        m = model_moments(gamma=1.0)
        u = np.array([-1.0, 0.0, 1.0])
        vec = peak_height_right_cdf(m, u)
        assert isinstance(peak_height_right_cdf(m, 0.0), float)
        assert vec.shape == (3,)
        assert vec[1] == pytest.approx(peak_height_right_cdf(m, 0.0), abs=1e-15)

    def test_scale_invariance(self):
        # u in units of sigma is all that matters within this family.
        a = model_moments(sigma=1.0, gamma=2.0)
        b = model_moments(sigma=3.0, gamma=2.0)
        u = 1.3 * math.sqrt(a.sigma2)
        assert peak_height_right_cdf(a, u) == pytest.approx(
            peak_height_right_cdf(b, 3.0 * u), rel=1e-12
        )

    def test_validates_moments(self):
        with pytest.raises(InvalidMomentsError):
            peak_height_right_cdf(SpectralMoments(1.0, 2.0, 1.0), 0.0)


class TestInverse:
    @pytest.mark.parametrize("p", [1e-6, 0.01, 0.5, 0.99])
    def test_roundtrip(self, p):
        m = model_moments(gamma=3.0)
        u = peak_height_right_cdf_inverse(m, p)
        assert peak_height_right_cdf(m, u) == pytest.approx(p, abs=1e-12)

    def test_median_of_distribution(self):
        m = model_moments(gamma=1.5)
        u = peak_height_right_cdf_inverse(m, F_AT_ZERO)
        assert abs(u) < 1e-9

    def test_deep_tail(self):
        # Far beyond double-precision cdf resolution; the log form keeps
        # the bracketing sound.
        m = model_moments(gamma=3.0)
        u = peak_height_right_cdf_inverse(m, 1e-30)
        assert u > 6.0 * math.sqrt(m.sigma2)
        assert math.isfinite(u)

    def test_far_tail_quantile(self):
        # F(3) ~ 9.5e-22 at gamma 3, far below the 1e-12 absolute stop:
        # the log-space stop must still pin the height.
        m = model_moments(gamma=3.0)
        p = peak_height_right_cdf(m, 3.0)
        assert p < 1e-20
        assert peak_height_right_cdf_inverse(m, p) == pytest.approx(3.0, abs=1e-6)

    def test_monotone_in_p(self):
        m = model_moments(gamma=2.0)
        us = [peak_height_right_cdf_inverse(m, p) for p in (0.9, 0.5, 0.1, 1e-4)]
        assert us == sorted(us)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, np.nan])
    def test_rejects_bad_p(self, p):
        with pytest.raises(ValueError):
            peak_height_right_cdf_inverse(model_moments(), p)


class TestExpectedNumMaxima:
    def test_rate_at_gamma_3(self):
        # L / (2 pi) sqrt(lambda4 / lambda2): pinned for xi = 3.
        m = model_moments(gamma=3.0)
        assert expected_num_maxima(m, 2000.0) == pytest.approx(
            129.94946687227934, rel=1e-12
        )

    def test_linear_in_length(self):
        m = model_moments(gamma=1.5)
        one = expected_num_maxima(m, 1000.0)
        assert expected_num_maxima(m, 2000.0) == pytest.approx(2.0 * one, rel=1e-12)

    def test_threshold_scales_count(self):
        m = model_moments(gamma=3.0)
        base = expected_num_maxima(m, 2000.0)
        at_zero = expected_num_maxima(m, 2000.0, u=0.0)
        assert at_zero == pytest.approx(base * F_AT_ZERO, rel=1e-12)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            expected_num_maxima(model_moments(), 0.0)

    def test_validates_moments(self):
        with pytest.raises(InvalidMomentsError):
            expected_num_maxima(SpectralMoments(-1.0, 1.0, 1.0), 100.0)


def table(index, height, **columns) -> Candidates:
    return Candidates(index=index, time=np.asarray(index, float), height=height, **columns)


class TestAssignPvalues:
    def test_attaches_in_order(self):
        m = model_moments(gamma=1.5)
        out = assign_pvalues(table([4, 9], [0.0, 1.0]), m)
        assert out.index.tolist() == [4, 9] and out.height.tolist() == [0.0, 1.0]
        assert out.p_value[0] == pytest.approx(F_AT_ZERO, abs=1e-12)
        assert out.rejected is None
        # Higher peaks get smaller p-values.
        assert out.p_value[1] < out.p_value[0]

    def test_originals_untouched(self):
        m = model_moments()
        maxima = table([1, 3], [0.5, 2.0], rejected=[True, False])
        height = maxima.height.copy()
        out = assign_pvalues(maxima, m)
        assert maxima.p_value is None
        assert out.height is maxima.height and np.array_equal(maxima.height, height)
        assert out.rejected is maxima.rejected

    def test_empty(self):
        out = assign_pvalues(table([], []), model_moments())
        assert len(out) == 0 and out.p_value.dtype == float and out.p_value.size == 0

    def test_columns_in_one_call(self):
        m = model_moments(gamma=1.5)
        heights = [0.0, 1.0, -0.5, 3.25]
        out = assign_pvalues(table([4, 9, 12, 20], heights), m)
        assert out.p_value.tolist() == [peak_height_right_cdf(m, u) for u in heights]
        assert out.p_value[0] == pytest.approx(F_AT_ZERO, abs=1e-12)
        assert out.rejected is None

    def test_floor_keeps_p_positive(self):
        m = model_moments(gamma=1.0)
        out = assign_pvalues(table([0], [100.0]), m)
        assert peak_height_right_cdf(m, 100.0) == 0.0
        assert out.p_value.tolist() == [np.finfo(float).tiny]
