"""Tests for spectral-moment estimation."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from peaksig import (
    ESTIMATORS,
    Grid,
    InvalidMomentsError,
    MAD_SCALE,
    NoiseSpec,
    SampledSeries,
    convolve,
    count_upcrossings,
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


class TestMadVariance:
    def test_example(self):
        v = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert mad_variance(v) == pytest.approx(2.1981, abs=1e-3)
        assert mad_variance(v) == pytest.approx(MAD_SCALE**2, rel=1e-12)

    def test_constant_is_zero(self):
        assert mad_variance(np.array([7.0, 7.0, 7.0])) == 0.0

    def test_consistent_for_gaussian(self):
        rng = np.random.default_rng(5)
        v = rng.normal(0.0, 1.7, size=1_000_000)
        assert mad_variance(v) == pytest.approx(1.7**2, rel=0.01)

    def test_halved_where_twice_the_largest_overflows(self):
        # The mean of the two middle values, and the deviations, would
        # overflow: they are taken on the halved values, exactly.
        v = np.array([1.7e308, 1.7e308, 1.7e308, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert mad_variance(v) == 0.0
            assert mad_variance(np.array([1.6e308, 1.6e308, 1.7e308, 1.7e308])) == math.inf

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
    """Every estimator commutes with scaling; each is translation
    invariant (exactly for differences, through the median for levels)."""

    @staticmethod
    def estimates(values):
        return {name: fn(values, 1.0)[0] for name, fn in ESTIMATORS.items()}

    def test_scale_equivariance(self):
        base = smoothed_noise(20_000, seed=11).values
        for name, m in self.estimates(base).items():
            m2 = self.estimates(4.0 * base)[name]
            assert m2.sigma2 == pytest.approx(16.0 * m.sigma2, rel=1e-9), name
            assert m2.lambda2 == pytest.approx(16.0 * m.lambda2, rel=1e-9), name
            assert m2.lambda4 == pytest.approx(16.0 * m.lambda4, rel=1e-9), name

    def test_translation_invariance(self):
        base = smoothed_noise(20_000, seed=12).values
        for name, m in self.estimates(base).items():
            m2 = self.estimates(base + 7.25)[name]
            assert m2.sigma2 == pytest.approx(m.sigma2, rel=1e-7), name
            assert m2.lambda2 == pytest.approx(m.lambda2, rel=1e-7), name
            assert m2.lambda4 == pytest.approx(m.lambda4, rel=1e-7), name


class TestMadAndVarOnNoise:
    def test_mad_recovers_grid_moments(self):
        s = smoothed_noise(1_000_000, seed=21)
        m, _ = estimate_moments_mad(s.values, s.spacing)
        assert m.sigma2 == pytest.approx(TRUE_SIGMA2, rel=0.02)
        assert m.lambda2 == pytest.approx(GRID_LAMBDA2, rel=0.02)
        assert m.lambda4 == pytest.approx(GRID_LAMBDA4, rel=0.02)

    def test_var_agrees_on_pure_noise(self):
        s = smoothed_noise(1_000_000, seed=22)
        mad, _ = estimate_moments_mad(s.values, s.spacing)
        var, _ = estimate_moments_var(s.values, s.spacing)
        assert var.sigma2 == pytest.approx(mad.sigma2, rel=0.02)
        assert var.lambda2 == pytest.approx(mad.lambda2, rel=0.02)
        assert var.lambda4 == pytest.approx(mad.lambda4, rel=0.02)

    def test_var_needs_four_samples(self):
        # Three samples leave one second difference, whose ddof=1 variance
        # is 0/0; the estimator refuses them as crossing does.
        with pytest.raises(ValueError, match="need at least 4 samples"):
            estimate_moments_var(np.array([1.0, 2.0, 0.5]), 1.0)
        estimate_moments_var(np.array([1.0, 2.0, 0.5, 3.0]), 1.0)[0].validate()

    def test_grid_moments_sit_below_continuous(self):
        # Difference quotients lose curvature relative to the continuum.
        assert GRID_LAMBDA2 < TRUE_LAMBDA2
        assert GRID_LAMBDA4 < TRUE_LAMBDA4


class TestCrossing:
    def test_recovers_lambda2_on_noise(self):
        s = smoothed_noise(1_000_000, seed=23)
        m, _ = estimate_moments_crossing(s.values, s.spacing)
        assert m.validate().lambda2 == pytest.approx(GRID_LAMBDA2, rel=0.05)

    def test_diagnostics(self):
        s = smoothed_noise(5_000, seed=24)
        m, diagnostics = estimate_moments_crossing(s.values, s.spacing)
        n0, n_up, n_dn = diagnostics["counts"]
        assert n0 > 0 and n_up > 0 and n_dn > 0
        assert diagnostics["levels"][0] == 0.0
        assert diagnostics["levels"][1] == pytest.approx(2.0 * math.sqrt(m.sigma2) / 3.0)

    def test_monotone_series_degenerate(self):
        m, _ = estimate_moments_crossing(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 1.0)
        with pytest.raises(InvalidMomentsError):
            m.validate()

    def test_constant_series_degenerate(self):
        m, _ = estimate_moments_crossing(np.array([2.0, 2.0, 2.0, 2.0]), 1.0)
        assert m.sigma2 == 0.0
        with pytest.raises(InvalidMomentsError, match="sigma2 must be a positive normal float"):
            m.validate()

    def test_differences_near_the_float_range(self):
        # Differences of 0.95e308, -0.95e308 and 0.94e308: -0.95e308 less
        # the median overflows, so medians and levels are taken on halves.
        x = np.array([-0.475e308, 0.475e308, -0.475e308, 0.465e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            m, diagnostics = estimate_moments_crossing(x, 1.0)
        quarter, quarter_diagnostics = estimate_moments_crossing(x / 4.0, 1.0)
        assert diagnostics["counts_diff"] == quarter_diagnostics["counts_diff"]
        assert dataclasses.astuple(m) == tuple(16.0 * v for v in dataclasses.astuple(quarter))

    def test_too_short(self):
        with pytest.raises(ValueError):
            estimate_moments_crossing(np.array([1.0, 2.0, 1.0]), 1.0)


class TestDegenerateFlagging:
    """Estimators return the triple unchecked; ``validate()`` refuses it."""

    def test_constant_series_flagged_not_raised(self):
        for fn in ESTIMATORS.values():
            m, _ = fn(np.full(50, 3.0), 1.0)
            with pytest.raises(InvalidMomentsError):
                m.validate()

    @pytest.mark.parametrize("name", list(ESTIMATORS))
    @pytest.mark.parametrize("scale, spacing", [(1e200, 1.0), (1.0, 1e-200), (1e10, 1e-300)])
    def test_past_the_float_range_flagged_without_warning(self, name, scale, spacing):
        # Squares of 1e200, or quotients by 1e-200 or 1e-300, leave the float range.
        v = np.random.default_rng(3).normal(size=200) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            m, _ = ESTIMATORS[name](v, spacing)
        with pytest.raises(InvalidMomentsError):
            m.validate()

    def test_clean_noise_not_flagged(self):
        # detect passes a view of its smoothed series: no estimator writes to it.
        values = smoothed_noise(50_000, seed=27).values
        before = values.copy()
        for name, fn in ESTIMATORS.items():
            fn(values[100:-100], 1.0)[0].validate()
            assert values.tobytes() == before.tobytes(), name


# ---------------------------------------------------------------------------
# Bit-exact reference: each difference-plan estimate is the plain numpy
# formula of its docstring, on np.diff quotients.


def reference_mad_variance(v):
    scale = MAD_SCALE * np.median(np.abs(v - np.median(v)))
    return scale * scale


def reference_upcrossings(v, level):
    return np.count_nonzero((v[:-1] < level) & (v[1:] >= level))


def reference_rate(v, sigma2, duration):
    level = 2.0 * math.sqrt(sigma2) / 3.0
    v = v - np.median(v)
    counts = [reference_upcrossings(v, u) for u in (0.0, level, -level)]
    weighted = counts[0] + math.exp((2.0 / 3.0) ** 2 / 2.0) * (counts[1] + counts[2])
    return (2.0 * math.pi / duration) * weighted / 3.0


def reference_moments(method, x, spacing):
    dx = np.diff(x) / spacing
    ddx = np.diff(dx) / spacing
    if method == "mad":
        return tuple(map(reference_mad_variance, (x, dx, ddx)))
    if method == "var":
        return tuple(np.var(v, ddof=1) for v in (x, dx, ddx))
    sigma2, lambda2_sigma2 = reference_mad_variance(x), reference_mad_variance(dx)
    if sigma2 == 0.0 or lambda2_sigma2 == 0.0:
        return sigma2, 0.0, 0.0
    rate = reference_rate(x, sigma2, (x.size - 1) * spacing)
    rate_dx = reference_rate(dx, lambda2_sigma2, (dx.size - 1) * spacing)
    return sigma2, sigma2 * (rate * rate), lambda2_sigma2 * (rate_dx * rate_dx)


@st.composite
def series_values(draw):
    """Random, rounded (plateaus and ties) or constant values, 4 to 200 long."""
    n = draw(st.integers(4, 200))
    kind = draw(st.sampled_from(["random", "rounded", "constant"]))
    if kind == "constant":
        return np.full(n, draw(st.floats(-1e3, 1e3)))
    values = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    return np.round(values / 300.0) if kind == "rounded" else values


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["mad", "var", "crossing"]),
    series_values(),
    st.sampled_from([1.0, 0.5, 1e-3, 3.7, 250.0]) | st.floats(1e-3, 1e3),
)
def test_difference_plans_equal_numpy_reference_bits(method, values, spacing):
    m, _ = ESTIMATORS[method](values, spacing)
    got = np.array([m.sigma2, m.lambda2, m.lambda4])
    want = np.array(reference_moments(method, values, spacing), dtype=float)
    assert got.tobytes() == want.tobytes(), (got, want)
