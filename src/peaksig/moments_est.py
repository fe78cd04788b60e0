"""Spectral-moment estimation from an observed smoothed series.

Derivatives are approximated by scaled finite differences, so on a
grid these estimators target the difference-quotient variances, which
sit slightly below the continuous-time moments (the gap closes as the
bandwidth grows relative to the spacing).

Four methods:

``mad``
    Robust: squared scaled median absolute deviation of the series,
    its first difference, and its second difference.
``var``
    Same plan with sample variances; simple but sensitive to signal
    contamination.
``acf``
    Quartic polynomial fit to the empirical autocovariance near lag 0;
    ``sigma2 = beta0``, ``lambda2 = -2 beta2``, ``lambda4 = 24 beta4``.
``crossing``
    Level-crossing counts inverted through the Rice formula, averaged
    over levels 0 and +-(2/3) sigma-hat.

Estimates are flagged ``degenerate`` rather than raised when the data
cannot support them (constant input, no crossings, infeasible moment
combinations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .nulldist import InvalidMomentsError, SpectralMoments
from .series import SampledSeries

__all__ = [
    "MAD_SCALE",
    "MomentEstimate",
    "mad_variance",
    "count_upcrossings",
    "estimate_moments_mad",
    "estimate_moments_var",
    "estimate_moments_acf",
    "estimate_moments_crossing",
    "default_acf_lag_window",
    "ESTIMATORS",
]

# Gaussian consistency constant: MAD * 1.4826... estimates the standard
# deviation of a normal sample. Bitwise ``1 / Phi^{-1}(0.75)``.
MAD_SCALE = 1.482602218505602


@dataclass(frozen=True, eq=False)
class MomentEstimate:
    """Estimated spectral moments plus bookkeeping.

    ``degenerate`` is set when the estimate violates the feasibility
    requirements (positive moments, positive Delta); such estimates are
    reported, not raised, so callers can inspect the diagnostics.
    """

    moments: SpectralMoments
    method: str
    degenerate: bool
    diagnostics: dict = field(default_factory=dict)


def _halved(v: np.ndarray):
    """``(v, 1.0)``, or ``(v / 2, 2.0)`` where ``2 max|v|`` overflows, so that a
    median's mean of two values and the deviations from it cannot. Halving is
    exact: a spread of the result times the factor is the spread of ``v``."""
    if 2.0 * float(max(v.max(), -v.min())) < math.inf:
        return v, 1.0
    return v / 2.0, 2.0


def mad_variance(values: np.ndarray) -> float:
    """Squared scaled median absolute deviation of ``values``."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("values are empty")
    v, factor = _halved(v)
    scale = factor * MAD_SCALE * float(np.median(np.abs(v - np.median(v))))
    # A product, not a power: libm's pow can round 2^k x and x differently,
    # and a float product overflows to inf without a warning.
    return scale * scale


def count_upcrossings(values: np.ndarray, level: float) -> int:
    """Number of upcrossings of ``level``: pairs with x[i] < level <= x[i+1]."""
    v = np.asarray(values, dtype=float)
    return int(np.count_nonzero((v[:-1] < level) & (v[1:] >= level)))


def _finalize(method: str, sigma2, lambda2, lambda4, diagnostics) -> MomentEstimate:
    moments = SpectralMoments(float(sigma2), float(lambda2), float(lambda4))
    try:
        moments.validate()
    except InvalidMomentsError:
        return MomentEstimate(moments, method, True, diagnostics)
    return MomentEstimate(moments, method, False, diagnostics)


def _sample_variance(v: np.ndarray) -> float:
    """``np.var(v, ddof=1)`` on ``v`` scaled by ``2^-e`` into [-1, 1], scaled back by
    ``4^e``: exact, so power-of-two units move no bit; inf where it overflows."""
    e = math.frexp(float(np.max(np.abs(v))))[1]
    try:
        return math.ldexp(float(np.var(np.ldexp(v, -e), ddof=1)), 2 * e)
    except OverflowError:
        return math.inf


def _quotient(v: np.ndarray, spacing: float):
    """First difference quotient of ``v``; None, not computed, where a
    difference or a quotient, at most ``2 max|v| / spacing``, could overflow."""
    if not 2.0 * float(np.max(np.abs(v))) / float(spacing) < math.inf:
        return None
    return np.diff(v) / spacing


def _difference_plan(method: str, variance, least: int, series: SampledSeries):
    """``variance`` of the series and of its first two difference quotients,
    as the three moments; ``least`` is the shortest series accepted. A
    quotient past the float range makes its moment, and the estimate, degenerate."""
    if len(series) < least:
        raise ValueError(f"need at least {least} samples")
    x = series.values
    dx = _quotient(x, series.spacing)
    ddx = None if dx is None else _quotient(dx, series.spacing)
    moments = [math.inf if v is None else variance(v) for v in (x, dx, ddx)]
    return _finalize(method, *moments, {"n": len(x)})


def estimate_moments_mad(series: SampledSeries) -> MomentEstimate:
    """MAD-based moments from the series and its first two differences."""
    return _difference_plan("mad", mad_variance, 3, series)


def estimate_moments_var(series: SampledSeries) -> MomentEstimate:
    """Sample-variance moments from the series and its differences."""
    return _difference_plan("var", _sample_variance, 4, series)


def default_acf_lag_window(gamma: float, spacing: float) -> int:
    """Default autocovariance fit window for a known smoothing bandwidth."""
    return max(5, int(math.ceil(3.0 * gamma / spacing)))


def acf_polynomial_fit(
    acvf: np.ndarray, spacing: float
) -> tuple[float, float, float]:
    """Least-squares fit of ``c(s) = b0 + b2 s^2 + b4 s^4`` to an
    autocovariance sampled at lags 0, 1, ..., len(acvf) - 1.

    Returns ``(sigma2, lambda2, lambda4) = (b0, -2 b2, 24 b4)``, the
    moment identities from the Taylor expansion of a smooth
    autocovariance at 0.
    """
    acvf = np.asarray(acvf, dtype=float)
    if acvf.size < 4:
        raise ValueError("need at least 4 autocovariance lags (lag_window >= 3)")
    s = spacing * np.arange(acvf.size)
    design = np.column_stack((np.ones_like(s), s**2, s**4))
    beta, *_ = np.linalg.lstsq(design, acvf, rcond=None)
    return float(beta[0]), float(-2.0 * beta[1]), float(24.0 * beta[2])


def estimate_moments_acf(series: SampledSeries, lag_window: int) -> MomentEstimate:
    """Polynomial autocovariance fit over lags ``0..lag_window``."""
    if lag_window < 3:
        raise ValueError("lag_window must be >= 3")
    n = len(series)
    if n <= lag_window + 1:
        raise ValueError("series too short for the requested lag window")
    x = series.values - series.values.mean()
    acvf = np.empty(lag_window + 1)
    for k in range(lag_window + 1):
        acvf[k] = np.dot(x[: n - k], x[k:]) / n
    sigma2, lambda2, lambda4 = acf_polynomial_fit(acvf, series.spacing)
    return _finalize(
        "acf",
        sigma2,
        lambda2,
        lambda4,
        {"n": n, "lag_window": lag_window, "acvf_lag0": float(acvf[0])},
    )


def _crossing_rate(values: np.ndarray, sigma: float, duration: float):
    """Rice-averaged estimate of sqrt(var x' / var x).

    Counts upcrossings of levels 0 and +-(2/3) sigma; the nonzero
    levels are reweighted by exp(u^2/2) with u = 2/3 so all three terms
    estimate the zero-level rate, then the average is inverted through
    the Rice formula ``E[N_v]/T = sqrt(lambda2/sigma2)/(2 pi) *
    exp(-v^2/(2 sigma2))``.
    """
    level = 2.0 * sigma / 3.0
    weight = math.exp((2.0 / 3.0) ** 2 / 2.0)
    n0 = count_upcrossings(values, 0.0)
    n_up = count_upcrossings(values, level)
    n_dn = count_upcrossings(values, -level)
    rate = (2.0 * math.pi / duration) * (n0 + weight * (n_up + n_dn)) / 3.0
    return rate, (n0, n_up, n_dn)


def estimate_moments_crossing(series: SampledSeries) -> MomentEstimate:
    """Level-crossing moments.

    ``sigma2`` comes from the MAD; ``lambda2 = sigma2 * rate^2`` where
    ``rate`` estimates ``sqrt(lambda2/sigma2)`` from crossing counts;
    ``lambda4`` repeats the construction on the difference quotients.
    """
    if len(series) < 4:
        raise ValueError("need at least 4 samples")
    x = series.values
    dx = _quotient(x, series.spacing)
    if dx is None:
        return _finalize("crossing", mad_variance(x), math.inf, math.inf, {"n": x.size})
    passes = (x, dx)
    variances = [mad_variance(v) for v in passes]
    if 0.0 in variances:
        return _finalize("crossing", variances[0], 0.0, 0.0, {"n": x.size, "counts": (0, 0, 0)})
    moments, counts = [], []
    for v, variance in zip(passes, variances):
        # Crossing levels are offsets from the center, so remove the median
        # first; this is what keeps the estimate translation-invariant.
        duration = (v.size - 1) * series.spacing
        v, factor = _halved(v)
        rate, c = _crossing_rate(v - np.median(v), math.sqrt(variance) / factor, duration)
        moments.append(variance * (rate * rate))  # a product, as in mad_variance
        counts.append(c)
    sigma2 = variances[0]
    return _finalize(
        "crossing",
        sigma2,
        *moments,
        {
            "n": x.size,
            "counts": counts[0],
            "counts_diff": counts[1],
            "levels": (0.0, 2.0 * math.sqrt(sigma2) / 3.0),
        },
    )


ESTIMATORS = {
    "mad": estimate_moments_mad,
    "var": estimate_moments_var,
    "acf": estimate_moments_acf,
    "crossing": estimate_moments_crossing,
}
