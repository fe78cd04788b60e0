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

import math
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
from .series import SampledSeries, _open_unit, _positive
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
        _positive(self.gamma, "gamma")
        _positive(self.kernel_truncation, "kernel truncation")
        _open_unit(self.alpha, "alpha")
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
        elif not isinstance(src, str):  # refused before any input is read
            _resolve_moments(src, self.gamma)


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


def _center(values: np.ndarray) -> np.ndarray:
    """``values`` minus their mean. Where the sum, at most ``n max|x|`` up to
    rounding, could overflow, the mean is taken on ``values`` scaled by
    ``2^-k`` with ``2^k > n`` and scaled back: exact, so it is the plain mean
    wherever that is finite. A value that the subtraction would push past the
    float range is refused."""
    hi, lo = float(values.max()), float(values.min())
    if 2.0 * values.size * max(hi, -lo) < math.inf:
        mean = float(values.mean())
    else:
        scale = 2.0 ** values.size.bit_length()
        mean = float((values / scale).mean()) * scale
    if not (math.isfinite(hi - mean) and math.isfinite(lo - mean)):
        raise ValueError("series values lie too far apart to be centered within the float range")
    return values - mean


def _smooth(series, config: DetectorConfig):
    """``series``, centered if ``config.subtract_mean``, smoothed at ``config.gamma``,
    its ``boundary`` the kernel's half-width, and the kernel. A series too short
    for the kernel is refused before any weight is computed; finite values
    smoothed past the float range, by name."""
    values = _center(series.values) if config.subtract_mean else series.values
    if not kernel_fits(len(series), config.gamma, config.kernel_truncation, series.spacing):
        raise ValueError("series too short for the requested kernel")
    kernel = make_gaussian_kernel(config.gamma, config.kernel_truncation, series.spacing)
    values = convolve(values, kernel)
    if not np.isfinite(values).all():
        raise ValueError(
            f"smoothing at bandwidth {config.gamma!r} and spacing {series.spacing!r} "
            "takes the series past the float range"
        )
    smoothed = SampledSeries(values, series.spacing, series.origin, kernel.half_width)
    return smoothed, kernel


def estimate_smoothed_moments(
    smoothed: SampledSeries, estimator: str, gamma: float | None = None
) -> MomentEstimate:
    """Estimate the null moments of a smoothed series with a named estimator.

    Only the interior, outside the ``smoothed.boundary`` zone, is used.
    The ``acf`` estimator needs the smoothing bandwidth ``gamma``, and fits
    ``default_acf_lag_window(gamma, spacing)`` lags. A degenerate estimate
    is returned, not raised.
    """
    b = smoothed.boundary
    interior = smoothed.crop(b, len(smoothed) - b) if b > 0 else smoothed
    if estimator != "acf":
        return ESTIMATORS[estimator](interior)
    if gamma is None:
        raise ValueError("the acf estimator needs a bandwidth")
    return estimate_moments_acf(interior, default_acf_lag_window(gamma, smoothed.spacing))


def _resolve_moments(source, gamma, smoothed=None) -> SpectralMoments:
    """The validated null moments a ``moments_source`` gives at bandwidth ``gamma``;
    an estimator name reads them off ``smoothed`` (degenerate: ``InvalidMomentsError``)."""
    if isinstance(source, SpectralMoments):
        return source.validate()
    if isinstance(source, NoiseSpec):
        return gaussian_model_moments(source, gamma)
    est = estimate_smoothed_moments(smoothed, source, gamma)
    if est.degenerate:
        raise InvalidMomentsError(f"moment estimation ({source}) degenerate: {est.diagnostics}")
    return est.moments


def detect(series: SampledSeries, config: DetectorConfig) -> DetectionResult:
    """Run the detection pipeline on a raw series."""
    smoothed, kernel = _smooth(series, config)
    warnings: tuple[str, ...] = ()
    if kernel.aliased:
        warnings = (
            "smoothing bandwidth is at or below the grid spacing; "
            "the sampled kernel aliases and height p-values lose accuracy",
        )
    candidates = find_local_maxima(smoothed)
    moments = _resolve_moments(config.moments_source, config.gamma, smoothed)
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
