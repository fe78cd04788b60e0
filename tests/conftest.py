"""Session-scoped Monte Carlo fixtures shared by the statistical tests.

The heavy simulation runs are seeded and deterministic, so one run per
session serves every test that needs it.
"""

import math

import numpy as np
import pytest

import peaksig
from peaksig import (
    DEFAULT_BANDWIDTH_GRID,
    Grid,
    NoiseSpec,
    SignalSpec,
    make_gaussian_kernel,
    run_simulation,
    standard_design,
    synthesize_noise,
    synthesize_signal,
)
from peaksig.nulldist import gaussian_model_moments
from peaksig.maxima import local_max_indices


@pytest.fixture(scope="session")
def grid_run_a10():
    """1000 replications of the stock 20-peak design, amplitude 10,
    over the full bandwidth grid."""
    config = standard_design(
        amplitude=10.0,
        gammas=DEFAULT_BANDWIDTH_GRID,
        replications=1000,
        base_seed=206,
    )
    return run_simulation(config)


@pytest.fixture(scope="session")
def run_a15_g3():
    """1000 replications at amplitude 15, bandwidth 3."""
    config = standard_design(
        amplitude=15.0, gammas=(3.0,), replications=1000, base_seed=207
    )
    return run_simulation(config)


@pytest.fixture(scope="session")
def error_control_run():
    """2000 replications at amplitude 10, bandwidths 3 and 6.5."""
    config = standard_design(
        amplitude=10.0, gammas=(3.0, 6.5), replications=2000, base_seed=205
    )
    return run_simulation(config)


@pytest.fixture(scope="session")
def overlap_run():
    """500 replications with peak spacing 9 (overlapping supports)."""
    config = standard_design(
        amplitude=10.0,
        peak_spacing=9.0,
        gammas=(3.2,),
        replications=500,
        base_seed=210,
    )
    return run_simulation(config)


@pytest.fixture(scope="session")
def null_maxima_pool():
    """Local maxima of smoothed pure noise: 20 seeds x 1e5 interior
    samples at gamma=3. Returns (total count, pooled p-values)."""
    kernel = make_gaussian_kernel(3.0, 4.0, 1.0)
    margin = kernel.half_width
    grid = Grid(100_000 + 2 * margin, 1.0, 0.0)
    moments = gaussian_model_moments(NoiseSpec(1.0, 0.0), 3.0)
    total = 0
    pools = []
    for seed in range(20):
        noise = synthesize_noise(NoiseSpec(1.0, 0.0), grid, seed=1000 + seed)
        smooth = np.convolve(noise.values, kernel.weights, "same")[margin:-margin]
        idx = local_max_indices(smooth)
        total += idx.size
        pools.append(peaksig.peak_height_right_cdf(moments, smooth[idx]))
    return total, np.concatenate(pools)


@pytest.fixture(scope="session")
def estimator_study():
    """200 replications x 1e4 samples of smoothed noise at gamma=1.5,
    with and without a sparse 17-peak signal; per-replication moment
    estimates for the robust and sample-variance methods."""
    kernel = make_gaussian_kernel(1.5, 4.0, 1.0)
    margin = kernel.half_width
    n_samples = 10_000
    grid = Grid(n_samples + 2 * margin, 1.0, -float(margin))
    # 17 evenly spread peaks whose pre-smoothing height is 2
    amplitude = 2.0 * 1.5 * math.sqrt(2.0 * math.pi)
    peaks = tuple(
        (amplitude, (j + 0.5) * n_samples / 17) for j in range(17)
    )
    signal_values = synthesize_signal(SignalSpec(peaks, 1.5, 2.0), grid).values
    out = {
        key: []
        for key in (
            "mad_s2",
            "mad_l2",
            "mad_l4",
            "var_s2",
            "var_l2",
            "var_l4",
            "mad_sig_s2",
            "var_sig_s2",
        )
    }
    for rep in range(200):
        noise = synthesize_noise(NoiseSpec(1.0, 0.0), grid, seed=3000 + rep)
        smooth_noise = np.convolve(noise.values, kernel.weights, "same")[
            margin:-margin
        ]
        est_mad, _ = peaksig.estimate_moments_mad(smooth_noise, 1.0)
        est_var, _ = peaksig.estimate_moments_var(smooth_noise, 1.0)
        smooth_both = np.convolve(
            signal_values + noise.values, kernel.weights, "same"
        )[margin:-margin]
        smooth_both = smooth_both - smooth_both.mean()
        sig_mad, _ = peaksig.estimate_moments_mad(smooth_both, 1.0)
        sig_var, _ = peaksig.estimate_moments_var(smooth_both, 1.0)
        out["mad_s2"].append(est_mad.sigma2)
        out["mad_l2"].append(est_mad.lambda2)
        out["mad_l4"].append(est_mad.lambda4)
        out["var_s2"].append(est_var.sigma2)
        out["var_l2"].append(est_var.lambda2)
        out["var_l4"].append(est_var.lambda4)
        out["mad_sig_s2"].append(sig_mad.sigma2)
        out["var_sig_s2"].append(sig_var.sigma2)
    return {key: np.array(vals) for key, vals in out.items()}


def mean_se(values: np.ndarray) -> tuple[float, float]:
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))
