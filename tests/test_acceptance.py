"""End-to-end acceptance checks.

One test per advertised guarantee, at the stated tolerance, so
``pytest -v tests/test_acceptance.py`` reads as a pass/fail scorecard.
The Monte Carlo checks share the session fixtures in ``conftest.py``;
every run is seeded, so these are deterministic.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from peaksig import (
    DEFAULT_BANDWIDTH_GRID,
    NoiseSpec,
    bh,
    gaussian_model_moments,
    matched_filter_objective,
    optimal_gamma,
    peak_height_right_cdf,
)

RATE_LIMIT = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / 2000.0)  # 0.0646


def mean_se(values):
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(len(values)))


def test_criterion_01_height_cdf_anchor():
    """F(0) = 1/2 + 1/(2 sqrt 3) to 1e-12 at every bandwidth."""
    want = 0.5 + 0.5 / math.sqrt(3.0)
    for xi in (0.5, 1.5, 3.0):
        m = gaussian_model_moments(NoiseSpec(sigma=1.0, nu=0.0), xi)
        assert peak_height_right_cdf(m, 0.0) == pytest.approx(want, abs=1e-12)


def test_criterion_02_quadrature_moments():
    """Closed-form spectral moments match direct quadrature of the
    kernel and its derivatives to 1e-8 relative."""
    for xi in (0.5, 1.0, 1.5, 3.0):
        def w(t):
            return math.exp(-(t * t) / (2.0 * xi * xi)) / (
                xi * math.sqrt(2.0 * math.pi)
            )

        def w1(t):
            return -t / xi**2 * w(t)

        def w2(t):
            return (t * t / xi**4 - 1.0 / xi**2) * w(t)

        m = gaussian_model_moments(NoiseSpec(sigma=1.0, nu=0.0), xi)
        for fn, want in ((w, m.sigma2), (w1, m.lambda2), (w2, m.lambda4)):
            got, _ = quad(lambda t: fn(t) ** 2, -np.inf, np.inf)
            assert got == pytest.approx(want, rel=1e-8), xi


def test_criterion_03_expected_maxima_count(null_maxima_pool):
    """Observed maxima of smoothed white noise (20 seeds x 1e5 samples,
    gamma = 3) land within 3% of the Rice-formula count."""
    total, _ = null_maxima_pool
    expected = 20 * 100_000 * math.sqrt(1.5) / (2.0 * math.pi * 3.0)
    assert abs(total / expected - 1.0) <= 0.03


def test_criterion_04_null_pvalue_uniformity(null_maxima_pool):
    """Pooled null p-values are uniform: KS distance <= 0.02."""
    total, pooled = null_maxima_pool
    assert total >= 5000
    distance = kstest(pooled, "uniform").statistic
    assert distance <= 0.02


def test_criterion_05_error_control(error_control_run):
    """At the stock design (a=10, gamma=3, alpha=0.05, 2000 reps):
    Bonferroni FWER and BH FDR within 3 SE of 0.05; and Bonferroni's
    FWER at gamma=6.5 exceeds its value at gamma=3 (oversmoothing
    breaks the candidate-count accounting in the anticonservative
    direction)."""
    fwer_3 = error_control_run.cell(3.0, "bonferroni").fwer
    fdr_3 = error_control_run.cell(3.0, "bh").fdr
    fwer_65 = error_control_run.cell(6.5, "bonferroni").fwer
    assert fwer_3 <= RATE_LIMIT
    assert fdr_3 <= RATE_LIMIT
    assert fwer_65 > fwer_3


def test_criterion_06_power_ordering_and_snr(grid_run_a10, run_a15_g3):
    """BH is at least as powerful as Bonferroni at every bandwidth, and
    amplitude 15 strictly beats amplitude 10 at gamma=3 (3-SE margin,
    both methods)."""
    for gamma in DEFAULT_BANDWIDTH_GRID:
        assert (
            grid_run_a10.cell(gamma, "bh").power
            >= grid_run_a10.cell(gamma, "bonferroni").power
        ), gamma
    for method in ("bonferroni", "bh"):
        lo = grid_run_a10.cell(3.0, method)
        hi = run_a15_g3.cell(3.0, method)
        margin = 3.0 * math.hypot(lo.power_se, hi.power_se)
        assert hi.power - lo.power > margin, method


def test_criterion_07_optimal_bandwidth(grid_run_a10):
    """Empirical power peaks within 0.75 of bandwidth 3 for both
    methods on the 1.0..3.5 sweep; the analytic matched-filter argmax
    agrees with sqrt(b^2 - 2 nu^2) to 0.01 by grid search."""
    sweep = [g for g in DEFAULT_BANDWIDTH_GRID if g <= 3.5]
    for method in ("bonferroni", "bh"):
        powers = [grid_run_a10.cell(g, method).power for g in sweep]
        best = sweep[int(np.argmax(powers))]
        assert abs(best - 3.0) <= 0.75, method
    grid = np.arange(0.01, 8.0, 0.01)
    for nu in (0.0, 1.0):
        vals = [matched_filter_objective(3.0, nu, g) for g in grid]
        best = float(grid[int(np.argmax(vals))])
        assert abs(best - optimal_gamma(3.0, nu)) <= 0.01, nu
    assert optimal_gamma(3.0, 2.0) == pytest.approx(1.0, abs=1e-12)
    vals = [matched_filter_objective(3.0, 2.0, g) for g in grid]
    assert abs(float(grid[int(np.argmax(vals))]) - 1.0) <= 0.01


def test_criterion_08_moment_estimation(estimator_study):
    """MAD moments on pure smoothed noise (200 reps x 1e4 samples):
    sigma2 within 0.188 +- 0.010 and lambda2 within 0.040 +- 0.004;
    adding a sparse peak train inflates the sample-variance sigma2
    above the MAD sigma2 by more than 3 SE."""
    s2, _ = mean_se(estimator_study["mad_s2"])
    l2, _ = mean_se(estimator_study["mad_l2"])
    assert abs(s2 - 0.188) <= 0.010
    assert abs(l2 - 0.040) <= 0.004
    diff = estimator_study["var_sig_s2"] - estimator_study["mad_sig_s2"]
    d, d_se = mean_se(diff)
    assert d > 3.0 * d_se


def test_criterion_09_bh_bruteforce_equivalence():
    """Step-up output equals the brute-force maximal-k definition on
    1e4 random p-vectors of length 0..10, as exact sets."""
    rng = np.random.default_rng(909)
    for _ in range(10_000):
        n = int(rng.integers(0, 11))
        p = rng.uniform(1e-6, 1.0, size=n)
        alpha = float(rng.choice([0.01, 0.05, 0.1, 0.25]))
        got = set(bh(p, alpha).rejected_indices)
        order = np.argsort(p, kind="stable")
        k = 0
        for i in range(1, n + 1):
            if p[order[i - 1]] <= i * alpha / n:
                k = i
        want = set(int(j) for j in order[:k])
        assert got == want


def test_criterion_10_overlap_robustness(overlap_run):
    """With peak spacing 9 (about half the support width overlapping,
    gamma = 3.2), both procedures keep their error rates within 3 SE
    of 0.05."""
    assert overlap_run.cell(3.2, "bonferroni").fwer <= RATE_LIMIT
    assert overlap_run.cell(3.2, "bh").fdr <= RATE_LIMIT
