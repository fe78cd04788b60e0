"""Tests for the end-to-end detection pipeline."""

import dataclasses
import warnings

import numpy as np
import pytest

from peaksig import (
    DetectorConfig,
    ESTIMATORS,
    Grid,
    InvalidMomentsError,
    NoiseSpec,
    SampledSeries,
    SignalSpec,
    SpectralMoments,
    detect,
    find_local_maxima,
    gaussian_model_moments,
    synthesize_noise,
    synthesize_signal,
)
from peaksig.detector import _center


def noise_series(n, seed, sigma=1.0, nu=0.0):
    return synthesize_noise(NoiseSpec(sigma=sigma, nu=nu), Grid(n), seed=seed)


KNOWN = DetectorConfig(gamma=3.0, alpha=0.05, method="bh", moments_source=NoiseSpec())


class TestConfigValidation:
    def test_defaults(self):
        c = DetectorConfig(gamma=3.0)
        assert c.method == "bh" and c.moments_source == "mad" and c.subtract_mean

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma": 0.0},
            {"gamma": 3.0, "alpha": 0.0},
            {"gamma": 3.0, "alpha": 1.0},
            {"gamma": 3.0, "method": "holm"},
            {"gamma": 3.0, "moments_source": "median"},
            {"gamma": 3.0, "moments_source": 42},
            {"gamma": 3.0, "moments_source": NoiseSpec(sigma=1e200)},  # moments overflow
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            DetectorConfig(**kwargs)


class TestDetectBasics:
    def test_flat_series_has_no_candidates(self):
        series = SampledSeries(np.zeros(500))
        result = detect(series, KNOWN)
        assert len(result.candidates) == 0
        assert result.decision.num_tests == 0
        assert result.decision.rejected_indices == ()

    def test_result_needs_complete_candidates(self):
        result = detect(noise_series(500, seed=1), KNOWN)
        partial = find_local_maxima(noise_series(500, seed=1))
        with pytest.raises(ValueError, match="p-value and rejection"):
            dataclasses.replace(result, candidates=partial)

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            detect(SampledSeries(np.zeros(10)), KNOWN)

    def test_boundary_reported_and_respected(self):
        series = noise_series(500, seed=1)
        result = detect(series, KNOWN)
        # Kernel half-width: floor(4 * 3 / 1) = 12 samples per side.
        assert result.boundary_excluded == 12
        index = result.candidates.index
        assert np.all((index >= 12) & (index <= len(series) - 13))

    def test_maxima_carry_pvalues_and_flags(self):
        result = detect(noise_series(2000, seed=2), KNOWN)
        c = result.candidates
        assert result.decision.num_tests == len(c)
        assert np.all((c.p_value > 0.0) & (c.p_value <= 1.0))
        assert c.rejected.dtype == bool
        rejected = np.flatnonzero(c.rejected).tolist()
        assert tuple(rejected) == result.decision.rejected_indices

    def test_rejection_set_is_height_consistent(self):
        # Every rejected maximum outranks every accepted one.
        result = detect(noise_series(5000, seed=3), KNOWN)
        c = result.candidates
        rej = c.p_value[c.rejected]
        acc = c.p_value[~c.rejected]
        if rej.size and acc.size:
            assert rej.max() <= acc.min()

    def test_aliasing_warning(self):
        config = DetectorConfig(gamma=1.0, moments_source=NoiseSpec())
        result = detect(noise_series(200, seed=4), config)
        assert any("aliases" in w for w in result.warnings)
        clean = detect(noise_series(200, seed=4), KNOWN)
        assert clean.warnings == ()


class TestInvariances:
    def test_constant_shift_invariance(self):
        # Mean subtraction makes the decision ignore vertical offsets.
        series = noise_series(2000, seed=5)
        shifted = SampledSeries(series.values + 50.0, series.spacing, series.origin)
        a = detect(series, KNOWN)
        b = detect(shifted, KNOWN)
        assert a.candidates.index.tolist() == b.candidates.index.tolist()
        assert a.decision.rejected_indices == b.decision.rejected_indices
        assert b.candidates.p_value == pytest.approx(a.candidates.p_value, rel=1e-9)

    def test_scale_equivariance_with_matching_moments(self):
        series = noise_series(2000, seed=6)
        scaled = SampledSeries(4.0 * series.values, series.spacing, series.origin)
        base_m = gaussian_model_moments(NoiseSpec(sigma=1.0), 3.0)
        a = detect(
            series, DetectorConfig(gamma=3.0, method="bh", moments_source=base_m)
        )
        b = detect(
            scaled,
            DetectorConfig(
                gamma=3.0,
                method="bh",
                moments_source=SpectralMoments(
                    16.0 * base_m.sigma2, 16.0 * base_m.lambda2, 16.0 * base_m.lambda4
                ),
            ),
        )
        assert a.candidates.index.tolist() == b.candidates.index.tolist()
        assert a.decision.rejected_indices == b.decision.rejected_indices
        assert b.candidates.p_value == pytest.approx(a.candidates.p_value, rel=1e-9)

    def test_centering_near_the_float_range(self):
        # 2000 values near 1.35e308 sum past the float range: the mean is
        # taken on values scaled by a power of two, which moves no bit.
        values = 1.5 + 0.01 * noise_series(2000, seed=8).values
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            big = _center(values * 2.0**1023)
        assert big.tobytes() == (_center(values) * 2.0**1023).tobytes()
        assert _center(values).tobytes() == (values - values.mean()).tobytes()

    def test_centering_past_the_float_range_refused(self):
        series = SampledSeries([-1.7e308, 1.7e308, 1.7e308] * 20)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="too far apart to be centered"):
                detect(series, KNOWN)

    def test_bonferroni_rejections_within_bh(self):
        rng = np.random.default_rng(7)
        for seed in rng.integers(0, 10_000, size=5):
            series = noise_series(3000, seed=int(seed))
            bon = detect(series, DetectorConfig(gamma=3.0, method="bonferroni",
                                                moments_source=NoiseSpec()))
            step = detect(series, DetectorConfig(gamma=3.0, method="bh",
                                                 moments_source=NoiseSpec()))
            assert set(bon.decision.rejected_indices) <= set(
                step.decision.rejected_indices
            )


class TestMomentSources:
    def test_explicit_moments_passed_through(self):
        m = SpectralMoments(0.094, 0.0052, 0.00087)
        result = detect(noise_series(1000, seed=8),
                        DetectorConfig(gamma=3.0, moments_source=m))
        assert result.moments_used is m

    def test_noise_spec_gives_closed_form(self):
        result = detect(noise_series(1000, seed=9), KNOWN)
        want = gaussian_model_moments(NoiseSpec(sigma=1.0), 3.0)
        assert result.moments_used == want

    @pytest.mark.parametrize("name", list(ESTIMATORS))
    def test_estimator_sources(self, name):
        series = noise_series(20_000, seed=10)
        result = detect(series, DetectorConfig(gamma=3.0, moments_source=name))
        want = gaussian_model_moments(NoiseSpec(sigma=1.0), 3.0)
        # Estimates land near the closed-form moments on clean noise.
        assert result.moments_used.sigma2 == pytest.approx(want.sigma2, rel=0.3)
        assert result.moments_used.validate()

    def test_degenerate_estimation_raises(self):
        constant = SampledSeries(np.full(200, 3.25))
        with pytest.raises(InvalidMomentsError, match="sigma2 must be a positive normal float"):
            detect(constant, DetectorConfig(gamma=3.0, moments_source="mad"))

    def test_invalid_explicit_moments_raise(self):
        bad = SpectralMoments(1.0, 2.0, 1.0)  # delta < 0
        with pytest.raises(InvalidMomentsError):
            detect(noise_series(500, seed=11),
                   DetectorConfig(gamma=3.0, moments_source=bad))


class TestOperatingBehavior:
    def test_pure_noise_usually_rejects_nothing(self):
        # Family-wise control: the no-rejection fraction under the null
        # stays near 1 - alpha.
        zero = 0
        reps = 400
        for i in range(reps):
            result = detect(noise_series(2000, seed=77_000 + i), KNOWN)
            if not result.decision.rejected_indices:
                zero += 1
        assert zero / reps >= 0.93

    def test_strong_peaks_are_found(self):
        # Twenty well-separated peaks at amplitude 15: essentially all
        # detected, with no false positives, on a typical draw.
        spacing_between = 100.0
        peaks = tuple(
            (15.0, spacing_between * (j + 0.5)) for j in range(20)
        )
        signal = SignalSpec(peaks=peaks, peak_scale=3.0)
        values = synthesize_signal(signal, Grid(2000)).values
        data = SampledSeries(values + noise_series(2000, seed=6).values)
        result = detect(data, KNOWN)
        rejected_times = result.candidates.time[result.candidates.rejected]
        assert len(rejected_times) >= 19
        centers = np.array([tau for _, tau in peaks])
        for t in rejected_times:
            assert np.min(np.abs(centers - t)) <= 6.0

    def test_subtract_mean_off_shifts_heights(self):
        series = SampledSeries(noise_series(2000, seed=12).values + 5.0)
        on = detect(series, KNOWN)
        off_cfg = DetectorConfig(gamma=3.0, method="bh",
                                 moments_source=NoiseSpec(), subtract_mean=False)
        off = detect(series, off_cfg)
        # Same candidate locations, but raw heights keep the sample mean
        # (smoothing passes constants through unchanged).
        assert on.candidates.index.tolist() == off.candidates.index.tolist()
        offset = series.values.mean()
        assert off.candidates.height[0] == pytest.approx(
            on.candidates.height[0] + offset, abs=1e-9
        )
