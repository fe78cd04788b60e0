"""Standard normal cdf ``Phi`` and its log, on numpy alone.

``ndtr`` is a port of the Cephes ``ndtr`` that ``scipy.special.ndtr``
wraps, with the same coefficients and evaluation order, so the two agree
bit for bit. With ``x = a / sqrt 2``:

- ``|x| < 1``: ``0.5 + 0.5 erf(x)``, ``erf(x) = x T(x^2) / U(x^2)``;
- otherwise ``0.5 erfc(|x|)``, mirrored as ``1 - y`` for ``x > 0``, with
  ``erfc(z) = exp(-z^2) P(z) / Q(z)`` (``R / S`` for ``z >= 8``), and 0
  once ``z^2`` exceeds ``MAXLOG``.

The exponential is libm's (``math.exp``), as in the C code: numpy's
SIMD ``np.exp`` can differ from it in the last ulp.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtr", "log_ndtr"]

_SQRTH = math.sqrt(0.5)
_SQRT2 = math.sqrt(2.0)
_MAXLOG = 7.09782712893383996843e2
_LOG_HALF = math.log(0.5)

# erfc(z) = exp(-z^2) P(z) / Q(z) on 1 <= z < 8; Q, S and U have an
# implicit leading coefficient of 1.
_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
# erfc(z) = exp(-z^2) R(z) / S(z) on z >= 8.
_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_S = (
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)
# erf(x) = x T(x^2) / U(x^2) on |x| < 1.
_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)


def _polevl(x, coef):
    y = coef[0]
    for c in coef[1:]:
        y = y * x + c
    return y


def _p1evl(x, coef):
    y = x + coef[0]
    for c in coef[1:]:
        y = y * x + c
    return y


def ndtr(a):
    """``Phi(a)``, elementwise; a float for a scalar ``a``."""
    x = np.asarray(a, dtype=float)
    if x.ndim == 0:
        return float(ndtr(x.reshape(1))[0])
    x = x * _SQRTH
    z = np.abs(x)
    # Past MAXLOG the tail is 0; nan comes back as scipy's positive nan.
    y = np.where(np.isnan(z), math.nan, 0.0)
    near = (1.0 <= z) & (z < 8.0)
    zc = np.minimum(z, 1e154)  # squares without overflow; the test is unchanged
    far = (8.0 <= z) & (zc * zc <= _MAXLOG)
    for part, p, q in ((near, _P, _Q), (far, _R, _S)):
        if part.any():
            zp = z[part]
            e = np.fromiter(map(math.exp, (-(zp * zp)).tolist()), float, zp.size)
            y[part] = 0.5 * (e * _polevl(zp, p) / _p1evl(zp, q))
    y = np.where(x > 0, 1.0 - y, y)
    mid = z < 1.0
    if mid.any():
        xm = x[mid]
        zz = xm * xm
        y[mid] = 0.5 + 0.5 * (xm * _polevl(zz, _T) / _p1evl(zz, _U))
    return y


def log_ndtr(a: float) -> float:
    """``log Phi(a)`` for a scalar ``a``, without underflow in the lower tail."""
    a = float(a)
    if a < -_SQRT2:
        if a == -math.inf:
            return -math.inf
        z = -a * _SQRTH
        p, q = (_P, _Q) if z < 8.0 else (_R, _S)
        return _LOG_HALF - z * z + math.log(_polevl(z, p) / _p1evl(z, q))
    if a <= 0.0:
        return math.log(ndtr(a))
    return math.log1p(-ndtr(-a))
