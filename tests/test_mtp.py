"""Tests for the multiple testing procedures and height thresholds."""

import math

import numpy as np
import pytest

from peaksig import (
    NoiseSpec,
    SpectralMoments,
    asymptotic_bh_threshold,
    bh,
    bonferroni,
    bonferroni_approx_threshold,
    bonferroni_deterministic_threshold,
    gaussian_model_moments,
    peak_height_right_cdf,
)
from peaksig.mtp import reject_rows


def bh_bruteforce(p_values, alpha):
    """Step-up definition, written out: largest k with p_(k) <= k alpha / m."""
    p = np.asarray(p_values, dtype=float)
    m = p.size
    if m == 0:
        return set()
    order = np.argsort(p, kind="stable")
    k = 0
    for i in range(1, m + 1):
        if p[order[i - 1]] <= i * alpha / m:
            k = i
    return set(int(j) for j in order[:k])


class TestBonferroni:
    def test_example(self):
        d = bonferroni([0.001, 0.02, 0.04], alpha=0.05)
        assert d.method == "bonferroni"
        assert d.num_tests == 3
        assert d.p_threshold == pytest.approx(0.05 / 3)
        assert d.rejected_indices == (0,)

    def test_empty(self):
        d = bonferroni([], alpha=0.05)
        assert d.num_tests == 0
        assert d.p_threshold == math.inf
        assert d.rejected_indices == ()

    def test_nothing_rejected(self):
        assert bonferroni([0.5, 0.9], alpha=0.05).rejected_indices == ()

    def test_strict_inequality(self):
        # p exactly at alpha / m is not rejected.
        d = bonferroni([0.025, 0.01], alpha=0.05)
        assert d.rejected_indices == (1,)

    def test_adding_a_test_can_remove_a_rejection(self):
        # The threshold shrinks with m, so a new p = 1.0 candidate can
        # flip a borderline rejection off.
        assert bonferroni([0.04], alpha=0.05).rejected_indices == (0,)
        assert bonferroni([0.04, 1.0], alpha=0.05).rejected_indices == ()

    def test_adding_p_one_never_adds_rejections(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            p = rng.uniform(1e-4, 1.0, size=rng.integers(1, 12)).tolist()
            before = set(bonferroni(p, 0.05).rejected_indices)
            after = set(bonferroni(p + [1.0], 0.05).rejected_indices)
            assert after <= before

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, np.nan])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            bonferroni([0.01], alpha)

    @pytest.mark.parametrize("p", [[0.0, 0.5], [0.5, 1.2], [np.nan], [-0.1]])
    def test_rejects_bad_pvalues(self, p):
        with pytest.raises(ValueError):
            bonferroni(p, 0.05)


class TestBh:
    def test_example_all_rejected(self):
        # p_(3) = 0.04 <= 3 * 0.05 / 3 = 0.05, so the step-up takes all.
        d = bh([0.001, 0.02, 0.04], alpha=0.05)
        assert d.method == "bh"
        assert set(d.rejected_indices) == {0, 1, 2}
        assert d.p_threshold == pytest.approx(0.05)

    def test_none_rejected(self):
        d = bh([0.04, 0.9], alpha=0.05)
        assert d.rejected_indices == ()
        assert d.p_threshold == 0.0

    def test_empty(self):
        d = bh([], alpha=0.05)
        assert d.num_tests == 0
        assert d.p_threshold == math.inf
        assert d.rejected_indices == ()

    def test_weak_inequality(self):
        # p exactly at i alpha / m is rejected (<=, unlike Bonferroni).
        d = bh([0.05], alpha=0.05)
        assert d.rejected_indices == (0,)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(77)
        for _ in range(500):
            n = int(rng.integers(0, 11))
            p = np.round(rng.uniform(1e-4, 1.0, size=n), 3)
            p = np.clip(p, 1e-4, 1.0)
            alpha = float(rng.choice([0.01, 0.05, 0.2]))
            got = set(bh(p, alpha).rejected_indices)
            assert got == bh_bruteforce(p, alpha)

    def test_contains_bonferroni(self):
        rng = np.random.default_rng(78)
        for _ in range(200):
            p = rng.uniform(1e-6, 1.0, size=rng.integers(1, 20))
            bon = set(bonferroni(p, 0.05).rejected_indices)
            step = set(bh(p, 0.05).rejected_indices)
            assert bon <= step

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(79)
        p = rng.uniform(1e-4, 1.0, size=15)
        perm = rng.permutation(15)
        base = set(bh(p, 0.1).rejected_indices)
        shuffled = set(bh(p[perm], 0.1).rejected_indices)
        assert {int(perm[i]) for i in shuffled} == base

    def test_adding_p_one_never_grows_rejections(self):
        rng = np.random.default_rng(80)
        for _ in range(100):
            p = rng.uniform(1e-4, 1.0, size=rng.integers(1, 12)).tolist()
            before = set(bh(p, 0.05).rejected_indices)
            after = set(bh(p + [1.0], 0.05).rejected_indices)
            assert after <= before

    def test_ties_at_boundary_rejected_together(self):
        d = bh([0.03, 0.03, 0.9], alpha=0.05)
        assert set(d.rejected_indices) == {0, 1}


class TestRejectRows:
    def test_unknown_method_refused(self):
        # Any name but "bonferroni" once took the BH branch.
        with pytest.raises(ValueError, match="^unknown method 'holm'$"):
            reject_rows("holm", np.array([0.01, 0.5]), [2], 0.05)


class TestDeterministicThreshold:
    # Design used throughout: white noise, sigma = 1, gamma = 3, L = 2000.
    MOMENTS = gaussian_model_moments(NoiseSpec(sigma=1.0, nu=0.0), 3.0)

    def test_pinned_value(self):
        u = bonferroni_deterministic_threshold(self.MOMENTS, 2000.0, 0.05)
        assert u == pytest.approx(1.172798949507017, abs=1e-6)

    def test_roundtrip(self):
        u = bonferroni_deterministic_threshold(self.MOMENTS, 2000.0, 0.05)
        expected = 129.94946687227934
        assert peak_height_right_cdf(self.MOMENTS, u) == pytest.approx(
            0.05 / expected, rel=1e-9
        )

    def test_grows_with_length(self):
        u1 = bonferroni_deterministic_threshold(self.MOMENTS, 2000.0, 0.05)
        u2 = bonferroni_deterministic_threshold(self.MOMENTS, 4000.0, 0.05)
        assert u2 > u1

    def test_short_segment_raises(self):
        # Expected count below alpha leaves no finite threshold.
        with pytest.raises(ValueError):
            bonferroni_deterministic_threshold(self.MOMENTS, 1e-3, 0.05)

    def test_finite_where_the_moment_quotient_overflows(self):
        # E[#maxima] = 1e200 / (2 pi) on unit length, though lambda4 / lambda2
        # is past the float range.
        u = bonferroni_deterministic_threshold(SpectralMoments(1.0, 1e-200, 1e200), 1.0, 0.05)
        assert math.isfinite(u) and u > 0.0

    def test_alpha_near_one(self):
        u = bonferroni_deterministic_threshold(self.MOMENTS, 2000.0, 0.999)
        assert math.isfinite(u)
        assert u < bonferroni_deterministic_threshold(self.MOMENTS, 2000.0, 0.05)


class TestApproxThreshold:
    MOMENTS = gaussian_model_moments(NoiseSpec(sigma=1.0, nu=0.0), 3.0)

    def test_pinned_value(self):
        u = bonferroni_approx_threshold(self.MOMENTS, 2000.0, 0.05)
        assert u == pytest.approx(1.2442797876048104, rel=1e-12)

    def test_overshoots_exact_by_several_percent(self):
        exact = bonferroni_deterministic_threshold(self.MOMENTS, 2000.0, 0.05)
        approx = bonferroni_approx_threshold(self.MOMENTS, 2000.0, 0.05)
        assert 1.05 < approx / exact < 1.07

    def test_grows_with_length(self):
        u1 = bonferroni_approx_threshold(self.MOMENTS, 2000.0, 0.05)
        u2 = bonferroni_approx_threshold(self.MOMENTS, 20000.0, 0.05)
        assert u2 > u1

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bonferroni_approx_threshold(self.MOMENTS, 1e-6, 0.05)

    def test_huge_length_stays_finite(self):
        # (L / alpha) sqrt(lambda2 / (2 pi sigma2)) overflows at L = 1e308;
        # its logarithm does not.
        approx = bonferroni_approx_threshold(self.MOMENTS, 1e308, 0.05)
        assert approx == pytest.approx(11.546, rel=0.01)
        exact = bonferroni_deterministic_threshold(self.MOMENTS, 1e308, 0.05)
        assert exact == pytest.approx(11.546, abs=1e-3)


class TestAsymptoticBhThreshold:
    MOMENTS = gaussian_model_moments(NoiseSpec(sigma=1.0, nu=0.0), 3.0)

    def test_pinned_value(self):
        u = asymptotic_bh_threshold(self.MOMENTS, 0.01, 0.05)
        assert u == pytest.approx(0.9115630030608263, abs=1e-6)

    def test_roundtrip(self):
        u = asymptotic_bh_threshold(self.MOMENTS, 0.01, 0.05)
        null_rate = math.sqrt(self.MOMENTS.lambda4 / self.MOMENTS.lambda2) / (
            2.0 * math.pi
        )
        target = 0.05 * 0.01 / (0.01 + null_rate * 0.95)
        assert peak_height_right_cdf(self.MOMENTS, u) == pytest.approx(
            target, rel=1e-9
        )

    def test_below_bonferroni_threshold(self):
        # BH is less conservative, so its limiting threshold sits lower.
        u_bh = asymptotic_bh_threshold(self.MOMENTS, 0.01, 0.05)
        u_bon = bonferroni_deterministic_threshold(self.MOMENTS, 2000.0, 0.05)
        assert u_bh < u_bon

    def test_sparser_signal_raises_threshold(self):
        dense = asymptotic_bh_threshold(self.MOMENTS, 0.05, 0.05)
        sparse = asymptotic_bh_threshold(self.MOMENTS, 0.001, 0.05)
        assert sparse > dense

    def test_rejects_bad_density(self):
        with pytest.raises(ValueError):
            asymptotic_bh_threshold(self.MOMENTS, 0.0, 0.05)


class TestHeightThresholdField:
    MOMENTS = gaussian_model_moments(NoiseSpec(sigma=1.0, nu=0.0), 3.0)

    def test_none_without_moments(self):
        assert bonferroni([0.01], 0.05).height_threshold is None
        assert bh([0.01], 0.05).height_threshold is None

    def test_maps_p_threshold(self):
        d = bonferroni([0.001, 0.2], 0.05, moments=self.MOMENTS)
        u = d.height_threshold
        assert peak_height_right_cdf(self.MOMENTS, u) == pytest.approx(
            d.p_threshold, abs=1e-12
        )

    def test_infinite_when_nothing_rejectable(self):
        assert bonferroni([], 0.05, moments=self.MOMENTS).height_threshold == math.inf
        assert bh([0.9], 0.05, moments=self.MOMENTS).height_threshold == math.inf
