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

The law depends on the moments only through ``u / sigma`` and ``lambda2 / (sigma
sqrt(lambda4))``. :class:`_HeightLaw`, the one judge of a triple, forms it and the Rice
rates on the moments divided by ``4^k``, ``k = frexp(sigma2)[1] // 2``, and ``lambda2``,
``lambda4`` also by ``4^h``, ``16^h``, ``h`` from ``lambda4``'s exponent: exact, so
power-of-two units of data or time move no bit, and no product of feasible moments overflows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from ._normal import log_ndtr, ndtr
from .maxima import Candidates
from .model import NoiseSpec
from .series import _open_unit, _positive

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

    Validity (positive normal floats, ``sigma2 * lambda4 > lambda2^2``) is
    checked wherever the values are read, so estimated moments can be inspected."""

    sigma2: float
    lambda2: float
    lambda4: float

    def validate(self) -> "SpectralMoments":
        _HeightLaw(self)
        return self


def gaussian_model_moments(noise: NoiseSpec, gamma: float) -> SpectralMoments:
    """Closed-form spectral moments of ``noise`` smoothed at bandwidth ``gamma``;
    inputs whose moments overflow or underflow are refused."""
    _positive(gamma, "gamma")
    try:
        xi = math.hypot(gamma, noise.nu)
        s2 = noise.sigma * noise.sigma
        # Products of normal floats, not pow (which can round 2^k xi and xi
        # differently): power-of-two units then scale every moment exactly.
        xi3 = xi * xi * xi
        xi5 = xi3 * xi * xi
        if min(s2, xi3, xi5) < sys.float_info.min:
            raise FloatingPointError("a factor of the moments is subnormal")
        return SpectralMoments(
            sigma2=s2 / (2.0 * _SQRT_PI * xi),
            lambda2=s2 / (4.0 * _SQRT_PI * xi3),
            lambda4=3.0 * s2 / (8.0 * _SQRT_PI * xi5),
        ).validate()
    except (ArithmeticError, InvalidMomentsError):
        raise ValueError(
            f"sigma={noise.sigma!r}, nu={noise.nu!r} and gamma={gamma!r} put the "
            "model moments outside the float range"
        ) from None


class _HeightLaw:
    """Check ``m``: each moment a positive normal float, and ``Delta > 0``. Hold the law's
    ``sigma``, ``a_curv``, ``a_mix``, ``amp`` and the Rice rates ``rate = sqrt(lambda4 / lambda2)``,
    ``root_rate = sqrt(lambda2 / sigma2)``, as quotients of roots: finite where the true rates are."""

    def __init__(self, m: SpectralMoments):
        for name, v in vars(m).items():
            # Python float bounds compare exactly with an int, so one past the range is refused.
            if not sys.float_info.min <= v <= sys.float_info.max:
                raise InvalidMomentsError(f"{name} must be a positive normal float, got {v!r}")
        k = math.frexp(m.sigma2)[1] // 2
        h = (math.frexp(m.lambda4)[1] - 2 * k) // 4
        s2, l4 = math.ldexp(m.sigma2, -2 * k), math.ldexp(m.lambda4, -2 * (k + 2 * h))
        # Feasible moments rescale lambda2 below 4: refuse 8 or more before it overflows.
        e = math.frexp(m.lambda2)[1] - 2 * (k + h)
        q = math.inf
        if e <= 3:
            r = math.ldexp(m.lambda2, -2 * (k + h))
            q = r * r  # a product, as in gaussian_model_moments
        delta = s2 * l4 - q
        if not delta > 0:
            raise InvalidMomentsError("sigma2 * lambda4 - lambda2^2 must be positive")
        self.a_curv = math.ldexp(math.sqrt(l4 / delta), -k)
        self.a_mix = math.ldexp(math.sqrt(q / (delta * s2)), -k)
        self.amp = math.sqrt(2.0 * math.pi * q / (l4 * s2))
        self.sigma, root2 = math.sqrt(m.sigma2), math.sqrt(m.lambda2)
        self.rate, self.root_rate = math.sqrt(m.lambda4) / root2, root2 / self.sigma

    def log_right_cdf(self, u: float) -> float:
        """log F(u), stable far into the upper tail."""
        x = u / self.sigma
        t1 = log_ndtr(-self.a_curv * u)
        log_amp = math.log(self.amp) if self.amp > 0.0 else -math.inf  # amp underflows with lambda2^2
        t2 = log_amp - 0.5 * x * x - _LOG_SQRT_2PI + log_ndtr(self.a_mix * u)
        return min(np.logaddexp(t1, t2), 0.0)


def peak_height_right_cdf(m: SpectralMoments, u):
    """P(height of a local maximum > u) under the noise-only model.

    Vectorized over ``u``. The result is clamped to [0, 1]; the raw
    expression can stray by up to ~1e-12 from rounding.
    """
    law = _HeightLaw(m)
    # Past 1e100 sigma the law reads exactly 0 or 1 (a_curv sigma >= 1); the
    # clip keeps x * x and the ndtr arguments finite.
    u = np.clip(np.asarray(u, dtype=float), -1e100 * law.sigma, 1e100 * law.sigma)
    x = np.abs(u) / law.sigma
    phi = law.amp * np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
    f = ndtr(-law.a_curv * u) + phi * ndtr(law.a_mix * u)
    out = np.clip(f, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


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
    law = _HeightLaw(m)
    _open_unit(p, "p")
    log_p = math.log(p)
    lo, hi = (0.0, law.sigma) if law.log_right_cdf(0.0) >= log_p else (-law.sigma, 0.0)
    for _ in range(200):
        if law.log_right_cdf(hi) >= log_p:
            hi *= 2.0
        elif law.log_right_cdf(lo) < log_p:
            lo *= 2.0
        else:
            break
    else:  # pragma: no cover - 0 < p < 1 guarantees termination
        raise RuntimeError("failed to bracket the root")
    # Invariant: F(lo) >= p > F(hi).
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        log_f = law.log_right_cdf(mid)
        if abs(math.exp(log_f) - p) <= 1e-12 and abs(log_f - log_p) <= 1e-6:
            return mid
        if log_f >= log_p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def expected_num_maxima(m: SpectralMoments, length: float) -> float:
    """Expected number of local maxima on a stretch of given length."""
    _positive(length, "length")
    return length / (2.0 * math.pi) * _HeightLaw(m).rate


def assign_pvalues(maxima: Candidates, m: SpectralMoments) -> Candidates:
    """Fill ``p_value = F(height)`` for every candidate in one call.

    Returns a new :class:`Candidates` table with the p-value column
    set; the input table is left as it was. Results are floored at the
    smallest positive normal float so that downstream procedures always
    see p in (0, 1].
    """
    p = np.maximum(peak_height_right_cdf(m, maxima.height), np.finfo(float).tiny)
    return replace(maxima, p_value=p)
