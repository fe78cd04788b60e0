"""Spectral-moment estimation from an observed smoothed series.

Derivatives are approximated by scaled finite differences, so on a
grid these estimators target the difference-quotient variances, which
sit slightly below the continuous-time moments (the gap closes as the
bandwidth grows relative to the spacing).

Three methods:

``mad``
    Robust: squared scaled median absolute deviation of the series,
    its first difference, and its second difference.
``var``
    Same plan with sample variances; simple but sensitive to signal
    contamination.
``crossing``
    Level-crossing counts inverted through the Rice formula, averaged
    over levels 0 and +-(2/3) sigma-hat.

Each estimator takes the values of a series and its spacing and returns
``(moments, diagnostics)``: the triple as estimated, unchecked, and what it
counted. ``moments.validate()`` judges whether the data supported it
(constant input, no crossings, infeasible or out-of-range moments).
"""

from __future__ import annotations

import math

import numpy as np

from .nulldist import SpectralMoments

__all__ = [
    "MAD_SCALE",
    "mad_variance",
    "count_upcrossings",
    "estimate_moments_mad",
    "estimate_moments_var",
    "estimate_moments_crossing",
    "ESTIMATORS",
]

# Gaussian consistency constant: MAD * 1.4826... estimates the standard
# deviation of a normal sample. Bitwise ``1 / Phi^{-1}(0.75)``.
MAD_SCALE = 1.482602218505602


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


def _difference_plan(variance, least: int, values: np.ndarray, spacing: float):
    """``variance`` of ``values`` and of their first two difference quotients,
    as the three moments; ``least`` is the shortest series accepted. A
    quotient past the float range makes its moment inf, which ``validate`` refuses."""
    if len(values) < least:
        raise ValueError(f"need at least {least} samples")
    dx = _quotient(values, spacing)
    ddx = None if dx is None else _quotient(dx, spacing)
    moments = [math.inf if v is None else variance(v) for v in (values, dx, ddx)]
    return SpectralMoments(*moments), {"n": len(values)}


def estimate_moments_mad(values: np.ndarray, spacing: float):
    """MAD-based moments from the series and its first two differences."""
    return _difference_plan(mad_variance, 3, values, spacing)


def estimate_moments_var(values: np.ndarray, spacing: float):
    """Sample-variance moments from the series and its differences."""
    return _difference_plan(_sample_variance, 4, values, spacing)


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


def estimate_moments_crossing(values: np.ndarray, spacing: float):
    """Level-crossing moments.

    ``sigma2`` comes from the MAD; ``lambda2 = sigma2 * rate^2`` where
    ``rate`` estimates ``sqrt(lambda2/sigma2)`` from crossing counts;
    ``lambda4`` repeats the construction on the difference quotients.
    """
    n = len(values)
    if n < 4:
        raise ValueError("need at least 4 samples")
    dx = _quotient(values, spacing)
    if dx is None:
        return SpectralMoments(mad_variance(values), math.inf, math.inf), {"n": n}
    passes = (values, dx)
    variances = [mad_variance(v) for v in passes]
    if 0.0 in variances:
        return SpectralMoments(variances[0], 0.0, 0.0), {"n": n, "counts": (0, 0, 0)}
    moments, counts = [], []
    for v, variance in zip(passes, variances):
        # Crossing levels are offsets from the center, so remove the median
        # first; this is what keeps the estimate translation-invariant.
        duration = (v.size - 1) * spacing
        v, factor = _halved(v)
        rate, c = _crossing_rate(v - np.median(v), math.sqrt(variance) / factor, duration)
        moments.append(variance * (rate * rate))  # a product, as in mad_variance
        counts.append(c)
    sigma2 = variances[0]
    return SpectralMoments(sigma2, *moments), {
        "n": n,
        "counts": counts[0],
        "counts_diff": counts[1],
        "levels": (0.0, 2.0 * math.sqrt(sigma2) / 3.0),
    }


ESTIMATORS = {
    "mad": estimate_moments_mad,
    "var": estimate_moments_var,
    "crossing": estimate_moments_crossing,
}
