import numpy as np
import pytest

from peaksig import (
    DetectorConfig,
    Grid,
    NoiseSpec,
    SampledSeries,
    SignalSpec,
    SpectralMoments,
    asymptotic_bh_threshold,
    bh,
    bonferroni,
    bonferroni_approx_threshold,
    expected_num_maxima,
    gaussian_model_moments,
    make_gaussian_kernel,
    optimal_gamma,
    peak_height_right_cdf_inverse,
    standard_design,
)

MOMENTS = SpectralMoments(1.0, 1.0, 3.0)

# Every scale setting, by the name its error gives, and a call that sets it to v.
SCALES = [
    ("kernel bandwidth", lambda v: make_gaussian_kernel(v)),
    ("kernel truncation", lambda v: make_gaussian_kernel(3.0, v)),
    ("kernel spacing", lambda v: make_gaussian_kernel(3.0, 4.0, v)),
    ("peak scale", lambda v: SignalSpec(peak_scale=v)),
    ("peak truncation", lambda v: SignalSpec(peak_truncation=v)),
    ("peak amplitudes", lambda v: SignalSpec(peaks=((v, 0.0),))),
    ("noise sigma", lambda v: NoiseSpec(sigma=v)),
    ("gamma", lambda v: DetectorConfig(gamma=v)),
    ("kernel truncation", lambda v: DetectorConfig(gamma=3.0, kernel_truncation=v)),
    ("gamma", lambda v: gaussian_model_moments(NoiseSpec(), v)),
    ("length", lambda v: expected_num_maxima(MOMENTS, v)),
    ("length", lambda v: bonferroni_approx_threshold(MOMENTS, v, 0.05)),
    ("signal density", lambda v: asymptotic_bh_threshold(MOMENTS, v, 0.05)),
    ("gammas", lambda v: standard_design(gammas=(3.0, v))),
    ("peak_spacing", lambda v: standard_design(peak_spacing=v)),
    ("peak_scale", lambda v: standard_design(peak_scale=v)),
    ("peak_truncation", lambda v: standard_design(peak_truncation=v)),
    ("spacing", lambda v: standard_design(spacing=v)),
    ("peak scale", lambda v: optimal_gamma(v, 0.0)),
    ("series spacing", lambda v: SampledSeries([1.0, 2.0], spacing=v)),
    ("grid spacing", lambda v: Grid(5, v)),
]


@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("what, build", SCALES, ids=[f"{i}-{w.replace(' ', '_')}" for i, (w, _) in enumerate(SCALES)])
def test_scale_must_be_positive_and_finite(what, build, value):
    with pytest.raises(ValueError, match=f"^{what} must be positive and finite$"):
        build(value)


# Every setting that must lie in (0, 1), by the name its error gives, and a
# call that sets it to v.
FRACTIONS = [
    ("alpha", lambda v: DetectorConfig(gamma=3.0, alpha=v)),
    ("alpha", lambda v: standard_design(alpha=v)),
    ("alpha", lambda v: bonferroni([0.5], v)),
    ("alpha", lambda v: bh([0.5], v)),
    ("alpha", lambda v: bonferroni_approx_threshold(MOMENTS, 10.0, v)),
    ("p", lambda v: peak_height_right_cdf_inverse(MOMENTS, v)),
]


@pytest.mark.parametrize("value", [0.0, 1.0, -0.5, 1.5, np.nan, np.inf])
@pytest.mark.parametrize("what, build", FRACTIONS, ids=[f"{i}-{w}" for i, (w, _) in enumerate(FRACTIONS)])
def test_fraction_must_lie_strictly_between_0_and_1(what, build, value):
    with pytest.raises(ValueError, match=f"^{what} must lie strictly between 0 and 1$"):
        build(value)


class TestGrid:
    def test_times(self):
        g = Grid(5, 0.5, 10.0)
        np.testing.assert_allclose(g.times(), [10.0, 10.5, 11.0, 11.5, 12.0])

    @pytest.mark.parametrize(
        "length,spacing,origin",
        [
            (0, 1.0, 0.0), (-3, 1.0, 0.0), (2.5, 1.0, 0.0), (np.inf, 1.0, 0.0),
            (np.nan, 1.0, 0.0), (5, 0.0, 0.0), (5, -1.0, 0.0), (5, 1.0, np.inf),
            (500, 1e306, 1e308), pytest.param(10**400, 1.0, 0.0, id="1e400-1.0-0.0"),
        ],
    )
    def test_rejects_bad_parameters(self, length, spacing, origin):
        with pytest.raises(ValueError):
            Grid(length, spacing, origin)


class TestSampledSeries:
    def test_basic_fields(self):
        s = SampledSeries(np.arange(4.0), spacing=0.5, origin=1.0)
        assert len(s) == 4
        grid = Grid(len(s), s.spacing, s.origin)
        np.testing.assert_allclose(grid.times(), [1.0, 1.5, 2.0, 2.5])
        assert grid == Grid(4, 0.5, 1.0)

    def test_values_copied_and_float(self):
        raw = np.array([1, 2, 3])
        s = SampledSeries(raw, 1.0)
        raw[0] = 99
        assert s.values[0] == 1.0
        assert s.values.dtype == np.float64

    def test_rejects_nonfinite_and_wrong_shape(self):
        with pytest.raises(ValueError):
            SampledSeries(np.array([1.0, np.nan]), 1.0)
        with pytest.raises(ValueError):
            SampledSeries(np.zeros((2, 2)), 1.0)
        with pytest.raises(ValueError):
            SampledSeries(np.array([]), 1.0)
        with pytest.raises(ValueError, match="series times overflow"):
            SampledSeries(np.zeros(500), 1e306, 1e308)
