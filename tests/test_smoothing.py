import math
import warnings

import numpy as np
import pytest
from scipy.stats import norm

from peaksig import (
    Grid,
    Kernel,
    SampledSeries,
    SignalSpec,
    convolve,
    make_gaussian_kernel,
    synthesize_signal,
)
from peaksig.detector import DetectorConfig, _smooth
from peaksig.smoothing import kernel_fits


class TestMakeGaussianKernel:
    def test_support_and_normalization(self):
        k = make_gaussian_kernel(1.5, 4.0, 1.0)
        assert k.half_width == 6
        assert k.weights.size == 13
        assert abs(k.weights.sum() * 1.0 - 1.0) < 1e-12

    def test_center_weight_near_untruncated_density(self):
        # Center of the gamma=3 kernel: phi(0)/3, then a sub-0.1% bump
        # from renormalizing the truncated tail mass back in.
        k = make_gaussian_kernel(3.0, 4.0, 1.0)
        target = norm.pdf(0.0, scale=3.0)
        center = k.weights[k.half_width]
        assert abs(center / target - 1.0) < 1e-3
        assert center > target

    def test_symmetric_nonnegative(self):
        k = make_gaussian_kernel(2.2, 4.0, 0.7)
        np.testing.assert_array_equal(k.weights, k.weights[::-1])
        assert np.all(k.weights >= 0)

    def test_spacing_scales_support(self):
        k = make_gaussian_kernel(1.5, 4.0, 0.5)
        assert k.half_width == 12
        assert abs(k.weights.sum() * 0.5 - 1.0) < 1e-12

    def test_aliasing_flag_at_and_below_spacing(self):
        assert make_gaussian_kernel(1.0, 4.0, 1.0).aliased
        assert make_gaussian_kernel(0.5, 4.0, 1.0).aliased
        assert not make_gaussian_kernel(1.01, 4.0, 1.0).aliased

    @pytest.mark.parametrize("gamma,trunc,spacing", [(0.0, 4.0, 1.0), (-1.0, 4.0, 1.0), (1.0, 0.0, 1.0), (1.0, 4.0, 0.0)])
    def test_rejects_bad_parameters(self, gamma, trunc, spacing):
        with pytest.raises(ValueError):
            make_gaussian_kernel(gamma, trunc, spacing)

    def test_kernel_validates_shape_and_mass(self):
        with pytest.raises(ValueError):
            Kernel(weights=np.ones(4) / 4.0, spacing=1.0, half_width=2)
        with pytest.raises(ValueError):
            Kernel(weights=np.ones(5), spacing=1.0, half_width=2)
        with pytest.raises(ValueError, match="integrate to 1"):
            Kernel(weights=np.array([np.nan]), spacing=1.0, half_width=0)

    def test_underflowing_bandwidth_refused(self):
        # Below about 2.2e-309 the peak density 1 / (gamma sqrt(2 pi)) is
        # inf and every weight NaN: refused before any weight is computed.
        message = "kernel bandwidth 1e-320 is too small: its peak density overflows"
        with pytest.raises(ValueError, match=message):
            kernel_fits(100, 1e-320, 4.0, 1.0)
        with pytest.raises(ValueError, match=message):
            make_gaussian_kernel(1e-320)
        assert make_gaussian_kernel(2.22e-309).weights.tolist() == [1.0]

    def test_unnormalizable_weights_refused_by_name(self):
        # One tap of density 4e299 on a spacing of 1e10 holds a mass past
        # the float range, so the weights cannot be divided by it.
        message = "kernel bandwidth 1e-300 and spacing 10000000000.0 give kernel weights"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=message):
                make_gaussian_kernel(1e-300, 4.0, 1e10)


class TestConvolve:
    def test_impulse_reproduces_weights(self):
        k = make_gaussian_kernel(2.0, 4.0, 1.0)
        n = 4 * k.half_width + 1
        impulse = np.zeros(n)
        impulse[n // 2] = 1.0
        out = convolve(impulse, k)
        got = out[n // 2 - k.half_width : n // 2 + k.half_width + 1]
        np.testing.assert_allclose(got, k.weights, rtol=1e-12)

    def test_constant_preserved_everywhere(self):
        k = make_gaussian_kernel(3.0, 4.0, 1.0)
        out = convolve(np.full(100, 7.25), k)
        np.testing.assert_allclose(out, 7.25, rtol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        k = make_gaussian_kernel(2.0, 4.0, 1.0)
        x, y = rng.normal(size=200), rng.normal(size=200)
        both = convolve(2.0 * x + 3.0 * y, k)
        parts = 2.0 * convolve(x, k) + 3.0 * convolve(y, k)
        np.testing.assert_allclose(both, parts, atol=1e-12)

    def test_shift_equivariance_interior(self):
        rng = np.random.default_rng(4)
        k = make_gaussian_kernel(1.5, 4.0, 1.0)
        x = rng.normal(size=300)
        shifted = np.roll(x, 5)
        a = convolve(x, k)
        b = convolve(shifted, k)
        interior = slice(k.half_width + 5, 300 - k.half_width - 5)
        np.testing.assert_allclose(np.roll(a, 5)[interior], b[interior], atol=1e-12)

    def test_boundary_annotation_and_length(self):
        k = make_gaussian_kernel(2.0, 4.0, 1.0)
        assert convolve(np.zeros(50), k).shape == (50,)
        assert convolve(np.zeros((3, 50)), k).shape == (3, 50)
        # detect's smoother marks the renormalized zone on the series.
        out, kernel = _smooth(SampledSeries(np.zeros(50), 0.5, origin=3.0), DetectorConfig(1.0))
        assert (kernel.half_width, kernel.spacing) == (8, 0.5)
        assert out.boundary == kernel.half_width
        assert len(out) == 50
        assert (out.spacing, out.origin) == (0.5, 3.0)

    def test_series_shorter_than_kernel_rejected(self):
        k = make_gaussian_kernel(3.0, 4.0, 1.0)
        with pytest.raises(ValueError):
            convolve(np.zeros(10), k)

    @pytest.mark.parametrize("gamma, direct_rows", [(3.0, 5), (30.0, 0)])
    def test_one_edge_mass_convolution_per_call(self, monkeypatch, gamma, direct_rows):
        # Narrow kernels convolve each row directly; the FFT path none.
        calls = []
        real = np.convolve
        monkeypatch.setattr(np, "convolve", lambda *a, **k: calls.append(1) or real(*a, **k))
        convolve(np.zeros((5, 1000)), make_gaussian_kernel(gamma))
        assert len(calls) == direct_rows + 1

    def test_smoothed_peak_center_height(self):
        # Peak of scale 3 smoothed at bandwidth 4: combined scale 5,
        # center height phi(0)/5 up to the support-truncation deficit.
        grid = Grid(201, 1.0, -100.0)
        series = synthesize_signal(SignalSpec(((1.0, 0.0),), 3.0, 2.0), grid)
        out = convolve(series.values, make_gaussian_kernel(4.0, 4.0, 1.0))
        center = out[100]
        analytic = norm.pdf(0.0, scale=5.0)
        assert abs(center / analytic - 1.0) < 0.02

    def test_composition_matches_single_combined_kernel(self):
        # Two passes (bandwidths 2 and 1.5) vs one pass at the combined
        # bandwidth. Support truncation must be wide (8 bandwidths) for
        # the 1e-8 comparison; at the default 4 the truncated tail mass
        # alone contributes ~4e-5.
        rng = np.random.default_rng(5)
        x = rng.normal(size=4000)
        kg = make_gaussian_kernel(2.0, 8.0, 1.0)
        kn = make_gaussian_kernel(1.5, 8.0, 1.0)
        kx = make_gaussian_kernel(math.hypot(2.0, 1.5), 8.0, 1.0)
        twice = convolve(convolve(x, kg), kn)
        once = convolve(x, kx)
        b = kg.half_width + kn.half_width
        scale = np.max(np.abs(once[b:-b]))
        assert np.max(np.abs(twice[b:-b] - once[b:-b])) / scale < 1e-8

    def test_smoothed_white_noise_variance(self):
        rng = np.random.default_rng(11)
        k = make_gaussian_kernel(1.5, 4.0, 1.0)
        out = convolve(rng.normal(size=1_000_000), k)
        v = out[k.half_width : -k.half_width].var()
        assert abs(v / 0.18806 - 1.0) < 0.02
