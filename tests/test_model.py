"""Tests for synthetic signal and noise generation."""

import math

import numpy as np
import pytest

from peaksig import (
    Grid,
    NoiseSpec,
    SignalSpec,
    synthesize_noise,
    synthesize_signal,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


class TestSignalSpec:
    def test_support_half_width(self):
        spec = SignalSpec(peaks=((10.0, 50.0),), peak_scale=3.0, peak_truncation=2.0)
        assert spec.support_half_width == 6.0

    def test_peaks_coerced_to_float_tuples(self):
        spec = SignalSpec(peaks=[(10, 50)])
        assert spec.peaks == ((10.0, 50.0),)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_scale(self, bad):
        with pytest.raises(ValueError):
            SignalSpec(peaks=(), peak_scale=bad)

    @pytest.mark.parametrize("bad", [0.0, -2.0, np.nan])
    def test_rejects_bad_amplitude(self, bad):
        with pytest.raises(ValueError):
            SignalSpec(peaks=((bad, 50.0),))

    def test_rejects_nonfinite_center(self):
        with pytest.raises(ValueError):
            SignalSpec(peaks=((1.0, np.inf),))

    def test_rejects_bad_truncation(self):
        with pytest.raises(ValueError):
            SignalSpec(peaks=(), peak_truncation=0.0)


class TestNoiseSpec:
    def test_defaults(self):
        spec = NoiseSpec()
        assert spec.sigma == 1.0 and spec.nu == 0.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_rejects_bad_sigma(self, bad):
        with pytest.raises(ValueError):
            NoiseSpec(sigma=bad)

    def test_rejects_negative_nu(self):
        with pytest.raises(ValueError):
            NoiseSpec(nu=-0.5)


class TestSynthesizeSignal:
    def test_center_height(self):
        # A peak of amplitude a and scale b peaks at a / (b sqrt(2 pi)).
        grid = Grid(101, spacing=1.0, origin=0.0)
        spec = SignalSpec(peaks=((10.0, 50.0),), peak_scale=3.0)
        mu = synthesize_signal(spec, grid)
        assert mu.values[50] == pytest.approx(10.0 / (3.0 * SQRT_2PI), rel=1e-12)
        assert np.argmax(mu.values) == 50

    def test_truncated_support(self):
        grid = Grid(101, spacing=1.0, origin=0.0)
        spec = SignalSpec(peaks=((10.0, 50.0),), peak_scale=3.0, peak_truncation=2.0)
        mu = synthesize_signal(spec, grid)
        inside = (np.arange(101) >= 44) & (np.arange(101) <= 56)
        assert np.all(mu.values[inside] > 0)
        assert np.all(mu.values[~inside] == 0.0)

    def test_symmetry_about_center(self):
        grid = Grid(101, spacing=1.0, origin=0.0)
        mu = synthesize_signal(SignalSpec(peaks=((5.0, 50.0),), peak_scale=4.0), grid)
        assert np.array_equal(mu.values, mu.values[::-1])

    def test_linear_in_amplitude(self):
        # Doubling every amplitude doubles every sample bit for bit.
        grid = Grid(400, spacing=0.5, origin=0.0)
        peaks = ((3.0, 40.0), (7.0, 52.5), (2.0, 120.0))
        one = synthesize_signal(SignalSpec(peaks=peaks, peak_scale=3.0), grid)
        doubled = tuple((2.0 * a, tau) for a, tau in peaks)
        two = synthesize_signal(SignalSpec(peaks=doubled, peak_scale=3.0), grid)
        assert np.array_equal(two.values, 2.0 * one.values)

    def test_additive_over_peaks(self):
        grid = Grid(200, spacing=1.0, origin=0.0)
        first = SignalSpec(peaks=((4.0, 80.0),), peak_scale=5.0)
        second = SignalSpec(peaks=((6.0, 90.0),), peak_scale=5.0)
        both = SignalSpec(peaks=((4.0, 80.0), (6.0, 90.0)), peak_scale=5.0)
        a = synthesize_signal(first, grid).values
        b = synthesize_signal(second, grid).values
        assert np.array_equal(synthesize_signal(both, grid).values, a + b)

    def test_peak_outside_grid_contributes_nothing(self):
        grid = Grid(50, spacing=1.0, origin=0.0)
        mu = synthesize_signal(SignalSpec(peaks=((5.0, 500.0),), peak_scale=3.0), grid)
        assert np.all(mu.values == 0.0)

    def test_empty_spec_gives_zeros(self):
        mu = synthesize_signal(SignalSpec(peaks=()), Grid(10))
        assert np.all(mu.values == 0.0)

    def test_off_grid_center(self):
        # Center between samples: the two flanking samples tie.
        grid = Grid(100, spacing=1.0, origin=0.0)
        mu = synthesize_signal(SignalSpec(peaks=((8.0, 49.5),), peak_scale=3.0), grid)
        assert mu.values[49] == pytest.approx(mu.values[50], rel=1e-12)

    def test_grid_metadata_preserved(self):
        mu = synthesize_signal(SignalSpec(peaks=()), Grid(10, 0.25, origin=3.0))
        assert mu.spacing == 0.25 and mu.origin == 3.0 and len(mu) == 10


class TestSynthesizeNoise:
    def test_seed_determinism(self):
        grid = Grid(500)
        spec = NoiseSpec(sigma=1.0, nu=1.5)
        a = synthesize_noise(spec, grid, seed=9)
        b = synthesize_noise(spec, grid, seed=9)
        c = synthesize_noise(spec, grid, seed=10)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_white_noise_variance(self):
        # Per-sample variance sigma^2 / spacing.
        grid = Grid(1_000_000, spacing=0.5)
        z = synthesize_noise(NoiseSpec(sigma=2.0, nu=0.0), grid, seed=3)
        assert z.values.var() == pytest.approx(4.0 / 0.5, rel=0.01)
        assert abs(z.values.mean()) < 0.02

    def test_white_noise_uncorrelated(self):
        grid = Grid(1_000_000)
        z = synthesize_noise(NoiseSpec(sigma=1.0, nu=0.0), grid, seed=4).values
        lag1 = np.mean(z[:-1] * z[1:])
        assert abs(lag1) < 0.01

    def test_smoothed_noise_autocovariance(self):
        # For nu > 0 the autocovariance is
        #   c(s) = sigma^2 / (2 sqrt(pi) nu) * exp(-s^2 / (4 nu^2)).
        sigma, nu = 1.5, 2.0
        grid = Grid(1_000_000)
        z = synthesize_noise(NoiseSpec(sigma=sigma, nu=nu), grid, seed=31).values
        for lag in range(6):
            want = (
                sigma**2 / (2.0 * math.sqrt(math.pi) * nu)
                * math.exp(-(lag**2) / (4.0 * nu**2))
            )
            got = np.mean(z[: len(z) - lag] * z[lag:])
            assert got == pytest.approx(want, rel=0.03), f"lag {lag}"

    def test_smoothed_noise_stationary_at_edges(self):
        # The extended-grid construction leaves no edge taper: pooled
        # variance of the first samples matches the interior.
        sigma, nu = 1.0, 2.0
        reps = [
            synthesize_noise(NoiseSpec(sigma=sigma, nu=nu), Grid(40), seed=s).values
            for s in range(4000)
        ]
        block = np.array(reps)
        head = block[:, 0].var()
        mid = block[:, 20].var()
        want = sigma**2 / (2.0 * math.sqrt(math.pi) * nu)
        assert head == pytest.approx(want, rel=0.08)
        assert mid == pytest.approx(want, rel=0.08)

    def test_zero_mean(self):
        z = synthesize_noise(NoiseSpec(sigma=1.0, nu=1.0), Grid(200_000), seed=8)
        assert abs(z.values.mean()) < 0.02
