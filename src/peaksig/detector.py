"""End-to-end detection: smooth, list maxima, test their heights.

The pipeline is fixed: subtract the series mean (optional), convolve
with a Gaussian kernel, list local maxima outside the boundary zone,
convert heights to p-values under the null height distribution, and
apply one multiple testing procedure. Spectral moments are resolved
once, before any decision, from one of three sources: the known noise
model, an estimator run on the smoothed data, or explicit values. The
candidates travel as one column table (:class:`Candidates`) from the
maxima search to the result.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import mtp
from .maxima import Candidates, find_local_maxima
from .model import NoiseSpec
from .moments_est import (
    ESTIMATORS,
    MomentEstimate,
    default_acf_lag_window,
    estimate_moments_acf,
)
from .mtp import _METHODS
from .nulldist import (
    InvalidMomentsError,
    SpectralMoments,
    assign_pvalues,
    gaussian_model_moments,
)
from .series import SampledSeries
from .smoothing import DEFAULT_KERNEL_TRUNCATION, convolve, kernel_fits, make_gaussian_kernel

__all__ = ["DetectorConfig", "DetectionResult", "detect", "estimate_smoothed_moments"]


@dataclass(frozen=True)
class DetectorConfig:
    """Detection settings.

    ``moments_source`` selects where the null moments come from:

    - a ``NoiseSpec``: closed-form moments of that noise smoothed at
      ``gamma`` (use when the noise model is known);
    - an estimator name (``"mad"``, ``"var"``, ``"acf"``,
      ``"crossing"``): estimated from the smoothed series;
    - an explicit ``SpectralMoments``.
    """

    gamma: float
    alpha: float = 0.05
    method: str = "bh"
    moments_source: SpectralMoments | NoiseSpec | str = "mad"
    kernel_truncation: float = DEFAULT_KERNEL_TRUNCATION
    subtract_mean: bool = True

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError("gamma must be positive")
        if not (np.isfinite(self.alpha) and 0 < self.alpha < 1):
            raise ValueError("alpha must lie strictly between 0 and 1")
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        src = self.moments_source
        if isinstance(src, str) and src not in ESTIMATORS:
            raise ValueError(f"unknown moment estimator {src!r}")
        elif not isinstance(src, (str, SpectralMoments, NoiseSpec)):
            raise ValueError(
                "moments_source must be a SpectralMoments, NoiseSpec, "
                "or estimator name"
            )


@dataclass(frozen=True, eq=False)
class DetectionResult:
    """Outcome of :func:`detect`.

    ``candidates`` holds every candidate maximum as columns, in
    ascending index order, with the p-value and rejection columns
    filled.
    """

    candidates: Candidates
    decision: mtp.MtpDecision
    moments_used: SpectralMoments
    boundary_excluded: int
    config: DetectorConfig
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if self.candidates.p_value is None or self.candidates.rejected is None:
            raise ValueError("detection candidates need p-value and rejection columns")


def _smooth(series, gamma, truncation=DEFAULT_KERNEL_TRUNCATION):
    """``series`` smoothed by the Gaussian kernel of bandwidth ``gamma``,
    its ``boundary`` the kernel's half-width, and the kernel. A series too
    short for the kernel is refused before any weight is computed."""
    if not kernel_fits(len(series), gamma, truncation, series.spacing):
        raise ValueError("series too short for the requested kernel")
    kernel = make_gaussian_kernel(gamma, truncation, series.spacing)
    values = convolve(series.values, kernel)
    smoothed = SampledSeries(values, series.spacing, series.origin, kernel.half_width)
    return smoothed, kernel


def estimate_smoothed_moments(
    smoothed: SampledSeries,
    estimator: str,
    gamma: float | None = None,
    lag_window: int | None = None,
) -> MomentEstimate:
    """Estimate the null moments of a smoothed series with a named estimator.

    Only the interior, outside the ``smoothed.boundary`` zone, is used.
    The ``acf`` estimator fits ``lag_window`` lags, by default
    ``default_acf_lag_window(gamma, spacing)`` for smoothing bandwidth
    ``gamma``. A degenerate estimate is returned, not raised.
    """
    b = smoothed.boundary
    interior = smoothed.crop(b, len(smoothed) - b) if b > 0 else smoothed
    if estimator != "acf":
        return ESTIMATORS[estimator](interior)
    if lag_window is None:
        if gamma is None:
            raise ValueError("the acf estimator needs a lag window or a bandwidth")
        lag_window = default_acf_lag_window(gamma, smoothed.spacing)
    return estimate_moments_acf(interior, lag_window)


def _resolve_moments(
    config: DetectorConfig, smoothed: SampledSeries
) -> SpectralMoments:
    src = config.moments_source
    if isinstance(src, SpectralMoments):
        return src
    if isinstance(src, NoiseSpec):
        return gaussian_model_moments(src, config.gamma)
    estimate = estimate_smoothed_moments(smoothed, src, config.gamma)
    if estimate.degenerate:
        raise InvalidMomentsError(
            f"moment estimation ({src}) degenerate: {estimate.diagnostics}"
        )
    return estimate.moments


def detect(series: SampledSeries, config: DetectorConfig) -> DetectionResult:
    """Run the detection pipeline on a raw series."""
    if config.subtract_mean:
        series = replace(series, values=series.values - series.values.mean())
    smoothed, kernel = _smooth(series, config.gamma, config.kernel_truncation)
    warnings: tuple[str, ...] = ()
    if kernel.aliased:
        warnings = (
            "smoothing bandwidth is at or below the grid spacing; "
            "the sampled kernel aliases and height p-values lose accuracy",
        )
    candidates = find_local_maxima(smoothed)
    moments = _resolve_moments(config, smoothed)
    candidates = assign_pvalues(candidates, moments)
    decision = _METHODS[config.method](
        candidates.p_value, config.alpha, moments=moments
    )
    rejected = np.zeros(len(candidates), dtype=bool)
    rejected[list(decision.rejected_indices)] = True
    return DetectionResult(
        candidates=replace(candidates, rejected=rejected),
        decision=decision,
        moments_used=moments,
        boundary_excluded=smoothed.boundary,
        config=config,
        warnings=warnings,
    )
