"""Null distribution of local-maximum heights of smooth Gaussian noise.

For a zero-mean stationary Gaussian process with spectral moments
``sigma2 = var x``, ``lambda2 = var x'``, ``lambda4 = var x''``, the
height ``u`` of a local maximum has exact right cdf

    F(u) = 1 - Phi(u sqrt(lambda4 / Delta))
           + sqrt(2 pi lambda2^2 / (lambda4 sigma2)) phi(u / sigma)
             Phi(u sqrt(lambda2^2 / (Delta sigma2))),

    Delta = sigma2 * lambda4 - lambda2^2 > 0,

heavier-tailed than the marginal Gaussian (``F(0) = 1/2 + 1/(2 sqrt 3)``
when ``lambda2^2 = sigma2 lambda4 / 3``). Heights of observed maxima are
converted to p-values with this cdf; expected candidate counts follow
the Rice formula ``E[#maxima on length L] = L / (2 pi) sqrt(lambda4 /
lambda2)``. ``Phi`` is a port of the Cephes ``ndtr``
(``peaksig._normal``), bit-identical to ``scipy.special.ndtr``.

For the noise of a ``NoiseSpec(sigma, nu)`` (scale ``sigma``, noise
bandwidth ``nu``, 0 for white noise) smoothed with a Gaussian kernel of
bandwidth ``gamma``, combined bandwidth ``xi = sqrt(gamma^2 + nu^2)``,
:func:`gaussian_model_moments` gives the moments in closed form:

    sigma2  = sigma^2 / (2 sqrt(pi) xi)
    lambda2 = sigma^2 / (4 sqrt(pi) xi^3)
    lambda4 = 3 sigma^2 / (8 sqrt(pi) xi^5)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._normal import log_ndtr, ndtr
from .maxima import Candidates
from .model import NoiseSpec

__all__ = [
    "InvalidMomentsError",
    "SpectralMoments",
    "gaussian_model_moments",
    "peak_height_right_cdf",
    "peak_height_right_cdf_inverse",
    "expected_num_maxima",
    "assign_pvalues",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_PI = math.sqrt(math.pi)


class InvalidMomentsError(ValueError):
    """Spectral moments are unusable (non-positive, or Delta <= 0)."""


@dataclass(frozen=True)
class SpectralMoments:
    """Variances of a stationary process and its first two derivatives.

    Validity (all positive, ``delta > 0``) is checked where the values
    are consumed, so that estimated, possibly degenerate moments can be
    carried around and inspected.
    """

    sigma2: float
    lambda2: float
    lambda4: float

    @property
    def delta(self) -> float:
        return self.sigma2 * self.lambda4 - self.lambda2**2

    def validate(self) -> "SpectralMoments":
        for name in ("sigma2", "lambda2", "lambda4"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise InvalidMomentsError(f"{name} must be positive, got {v!r}")
        if not self.delta > 0:
            raise InvalidMomentsError(
                "sigma2 * lambda4 - lambda2^2 must be positive "
                f"(got {self.delta!r}); the moments are not jointly feasible"
            )
        return self


def gaussian_model_moments(noise: NoiseSpec, gamma: float) -> SpectralMoments:
    """Closed-form spectral moments of ``noise`` smoothed at bandwidth ``gamma``."""
    if not (np.isfinite(gamma) and gamma > 0):
        raise ValueError("gamma must be positive")
    xi = math.hypot(gamma, noise.nu)
    s2 = noise.sigma**2
    return SpectralMoments(
        sigma2=s2 / (2.0 * _SQRT_PI * xi),
        lambda2=s2 / (4.0 * _SQRT_PI * xi**3),
        lambda4=3.0 * s2 / (8.0 * _SQRT_PI * xi**5),
    )


def _cdf_coefficients(m: SpectralMoments):
    delta = m.delta
    sigma = math.sqrt(m.sigma2)
    a_curv = math.sqrt(m.lambda4 / delta)
    a_mix = math.sqrt(m.lambda2**2 / (delta * m.sigma2))
    amp = math.sqrt(2.0 * math.pi * m.lambda2**2 / (m.lambda4 * m.sigma2))
    return sigma, a_curv, a_mix, amp


def peak_height_right_cdf(m: SpectralMoments, u):
    """P(height of a local maximum > u) under the noise-only model.

    Vectorized over ``u``. The result is clamped to [0, 1]; the raw
    expression can stray by up to ~1e-12 from rounding.
    """
    m.validate()
    u = np.asarray(u, dtype=float)
    sigma, a_curv, a_mix, amp = _cdf_coefficients(m)
    x = u / sigma
    f = ndtr(-a_curv * u) + amp * np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi) * ndtr(
        a_mix * u
    )
    out = np.clip(f, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def _log_right_cdf(m: SpectralMoments, u: float) -> float:
    """log F(u), stable far into the upper tail."""
    sigma, a_curv, a_mix, amp = _cdf_coefficients(m)
    x = u / sigma
    t1 = log_ndtr(-a_curv * u)
    t2 = math.log(amp) - 0.5 * x * x - _LOG_SQRT_2PI + log_ndtr(a_mix * u)
    return min(np.logaddexp(t1, t2), 0.0)


def peak_height_right_cdf_inverse(m: SpectralMoments, p: float) -> float:
    """Height ``u`` with ``F(u) = p``, by bracketed bisection.

    The bracket starts at [0, sigma] (or its mirror for ``p`` above
    ``F(0)``) and doubles until it contains the root; bisection then
    runs until both ``|F(u) - p| <= 1e-12`` and
    ``|log F(u) - log p| <= 1e-6`` hold, or for 200 iterations. The
    relative stop pins tail quantiles, where ``p`` itself is below the
    absolute one. Comparisons are done on log F, so thresholds deep in
    the tail do not underflow.
    """
    m.validate()
    if not (np.isfinite(p) and 0.0 < p < 1.0):
        raise ValueError("p must lie strictly between 0 and 1")
    log_p = math.log(p)
    sigma = math.sqrt(m.sigma2)
    if _log_right_cdf(m, 0.0) >= log_p:
        lo, hi = 0.0, sigma
        for _ in range(200):
            if _log_right_cdf(m, hi) < log_p:
                break
            hi *= 2.0
        else:  # pragma: no cover - p > 0 guarantees termination
            raise RuntimeError("failed to bracket the root from above")
    else:
        lo, hi = -sigma, 0.0
        for _ in range(200):
            if _log_right_cdf(m, lo) >= log_p:
                break
            lo *= 2.0
        else:  # pragma: no cover - p < 1 guarantees termination
            raise RuntimeError("failed to bracket the root from below")
    # Invariant: F(lo) >= p > F(hi).
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        log_f = _log_right_cdf(m, mid)
        if abs(math.exp(log_f) - p) <= 1e-12 and abs(log_f - log_p) <= 1e-6:
            return mid
        if log_f >= log_p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def expected_num_maxima(m: SpectralMoments, length: float, u: float | None = None):
    """Expected number of local maxima on a stretch of given length.

    With ``u`` given, only maxima exceeding height ``u`` are counted
    (the base count times ``F(u)``).
    """
    m.validate()
    if not (np.isfinite(length) and length > 0):
        raise ValueError("length must be positive")
    base = length / (2.0 * math.pi) * math.sqrt(m.lambda4 / m.lambda2)
    if u is None:
        return base
    return base * peak_height_right_cdf(m, u)


def assign_pvalues(maxima: Candidates, m: SpectralMoments) -> Candidates:
    """Fill ``p_value = F(height)`` for every candidate in one call.

    Returns a new :class:`Candidates` table with the p-value column
    set; the input table is left as it was. Results are floored at the
    smallest positive normal float so that downstream procedures always
    see p in (0, 1].
    """
    m.validate()
    p = np.maximum(peak_height_right_cdf(m, maxima.height), np.finfo(float).tiny)
    return replace(maxima, p_value=p)
