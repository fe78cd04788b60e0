"""Peak detection in noisy 1-D signals via multiple testing of the
heights of post-smoothing local maxima.

The pipeline: smooth the series with a Gaussian kernel, list the local
maxima, convert each height to a p-value under the exact distribution
of a smoothed-noise maximum, then apply familywise (Bonferroni) or
false-discovery-rate (Benjamini-Hochberg) control. :func:`detect` runs
the whole chain; :mod:`peaksig.evaluation` replays it over simulated
data to estimate error rates and power.
"""

from .series import Grid, SampledSeries
from .smoothing import DEFAULT_KERNEL_TRUNCATION, Kernel, convolve, make_gaussian_kernel
from .model import (
    NoiseSpec,
    SignalSpec,
    synthesize_noise,
    synthesize_signal,
)
from .maxima import Candidates, find_local_maxima, local_max_indices
from .nulldist import (
    InvalidMomentsError,
    SpectralMoments,
    assign_pvalues,
    expected_num_maxima,
    gaussian_model_moments,
    peak_height_right_cdf,
    peak_height_right_cdf_inverse,
)
from .mtp import (
    MtpDecision,
    asymptotic_bh_threshold,
    bh,
    bonferroni,
    bonferroni_approx_threshold,
    bonferroni_deterministic_threshold,
)
from .moments_est import (
    ESTIMATORS,
    MAD_SCALE,
    MomentEstimate,
    count_upcrossings,
    default_acf_lag_window,
    estimate_moments_acf,
    estimate_moments_crossing,
    estimate_moments_mad,
    estimate_moments_var,
    mad_variance,
)
from .detector import DetectionResult, DetectorConfig, detect
from .evaluation import (
    DEFAULT_BANDWIDTH_GRID,
    RunCounts,
    SimCell,
    SimConfig,
    SimReport,
    classify,
    matched_filter_objective,
    optimal_gamma,
    replication_seed,
    run_simulation,
    standard_design,
    truth_regions,
)
from .io import (
    SeriesFormatError,
    detection_report_dict,
    file_sha256,
    load_series,
    sim_report_dict,
    write_detection_report,
    write_sim_report,
)

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "SampledSeries",
    "Kernel",
    "DEFAULT_KERNEL_TRUNCATION",
    "convolve",
    "make_gaussian_kernel",
    "NoiseSpec",
    "SignalSpec",
    "synthesize_noise",
    "synthesize_signal",
    "Candidates",
    "find_local_maxima",
    "local_max_indices",
    "InvalidMomentsError",
    "SpectralMoments",
    "assign_pvalues",
    "expected_num_maxima",
    "gaussian_model_moments",
    "peak_height_right_cdf",
    "peak_height_right_cdf_inverse",
    "MtpDecision",
    "asymptotic_bh_threshold",
    "bh",
    "bonferroni",
    "bonferroni_approx_threshold",
    "bonferroni_deterministic_threshold",
    "ESTIMATORS",
    "MAD_SCALE",
    "MomentEstimate",
    "count_upcrossings",
    "default_acf_lag_window",
    "estimate_moments_acf",
    "estimate_moments_crossing",
    "estimate_moments_mad",
    "estimate_moments_var",
    "mad_variance",
    "DetectionResult",
    "DetectorConfig",
    "detect",
    "DEFAULT_BANDWIDTH_GRID",
    "RunCounts",
    "SimCell",
    "SimConfig",
    "SimReport",
    "classify",
    "matched_filter_objective",
    "optimal_gamma",
    "replication_seed",
    "run_simulation",
    "standard_design",
    "truth_regions",
    "SeriesFormatError",
    "detection_report_dict",
    "file_sha256",
    "load_series",
    "sim_report_dict",
    "write_detection_report",
    "write_sim_report",
    "__version__",
]
