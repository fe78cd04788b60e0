"""Synthetic signal-plus-noise generation on uniform grids.

The ground truth is a train of truncated Gaussian peaks

    mu(t) = sum_j a_j * h_b(t - tau_j),
    h_b(t) = (1/b) * phi(t/b) restricted to |t| <= c_h * b,

so a peak of amplitude ``a`` has height ``a / sqrt(2 pi b^2)`` at its
mode. The truncated shape is used as is, without renormalizing the
lost tail mass.

Noise is a zero-mean stationary Gaussian process obtained by smoothing
discrete white noise with a Gaussian kernel of bandwidth ``nu``. For
``nu = 0`` the samples are independent N(0, sigma^2 / spacing), the
grid stand-in for continuous white noise; for ``nu > 0`` the
autocovariance approaches

    c(s) = sigma^2 / (2 sqrt(pi) nu) * exp(-s^2 / (4 nu^2)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .series import Grid, SampledSeries, _positions, _positive
from .smoothing import make_gaussian_kernel

__all__ = [
    "SignalSpec",
    "NoiseSpec",
    "synthesize_signal",
    "synthesize_noise",
    "DEFAULT_PEAK_TRUNCATION",
    "NOISE_KERNEL_TRUNCATION",
]

# Half-support of the peak shape in units of its scale b.
DEFAULT_PEAK_TRUNCATION = 2.0
# Half-support of the noise-building kernel in units of nu.
NOISE_KERNEL_TRUNCATION = 4.0

_SQRT_2PI = np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class SignalSpec:
    """Peak train specification.

    ``peaks`` lists (amplitude, center) pairs; amplitudes must be
    positive. ``peak_scale`` is the common shape standard deviation b,
    ``peak_truncation`` the half-support in units of b.
    """

    peaks: tuple[tuple[float, float], ...] = field(default_factory=tuple)
    peak_scale: float = 3.0
    peak_truncation: float = DEFAULT_PEAK_TRUNCATION

    def __post_init__(self):
        peaks = tuple((float(a), float(tau)) for a, tau in self.peaks)
        object.__setattr__(self, "peaks", peaks)
        _positive(self.peak_scale, "peak scale")
        _positive(self.peak_truncation, "peak truncation")
        for a, tau in peaks:
            _positive(a, "peak amplitudes")
            if not np.isfinite(tau):
                raise ValueError("peak centers must be finite")

    @property
    def support_half_width(self) -> float:
        return self.peak_truncation * self.peak_scale


@dataclass(frozen=True)
class NoiseSpec:
    """Stationary Gaussian noise: scale ``sigma`` and bandwidth ``nu``.

    ``nu = 0`` means white noise on the grid.
    """

    sigma: float = 1.0
    nu: float = 0.0

    def __post_init__(self):
        _positive(self.sigma, "noise sigma")
        if not (np.isfinite(self.nu) and self.nu >= 0):
            raise ValueError("noise bandwidth nu must be >= 0")


def _peak_train(spec: SignalSpec, times: np.ndarray) -> np.ndarray:
    """The peak train at the ascending ``times``: each peak adds its shape
    at exactly the times its closed support holds."""
    values = np.zeros(times.size)
    taus = np.array([tau for _, tau in spec.peaks])
    half, b = spec.support_half_width, spec.peak_scale
    lo, hi = _positions(times, np.array([taus - half, taus + half]))
    for (a, tau), i, j in zip(spec.peaks, lo, hi):
        values[i:j] += a / b * np.exp(-0.5 * ((times[i:j] - tau) / b) ** 2) / _SQRT_2PI
    return values


def synthesize_signal(spec: SignalSpec, grid: Grid) -> SampledSeries:
    """Sample the peak train on ``grid``, a :class:`Grid`.

    Each peak contributes ``a / b * phi((t - tau) / b)`` at the samples
    whose ``grid.times()`` lie in ``|t - tau| <= c_h * b``, and exactly
    zero elsewhere.
    """
    return SampledSeries(_peak_train(spec, grid.times()), grid.spacing, grid.origin)


def synthesize_noise(spec: NoiseSpec, grid: Grid, seed: int) -> SampledSeries:
    """Draw one noise realization on ``grid``, a :class:`Grid`.

    The white sequence has per-sample variance ``sigma^2 / spacing``.
    For ``nu > 0`` it is drawn on an internally extended grid and
    convolved with a Gaussian kernel of bandwidth ``nu`` (truncated at
    4 nu), so the returned samples are stationary with no edge
    artifacts. Identical (spec, grid, seed) give identical output.
    """
    rng = np.random.default_rng(seed)
    scale = spec.sigma / np.sqrt(grid.spacing)
    if spec.nu == 0:
        return SampledSeries(
            rng.standard_normal(grid.length) * scale, grid.spacing, grid.origin
        )
    kernel = make_gaussian_kernel(spec.nu, NOISE_KERNEL_TRUNCATION, grid.spacing)
    pad = kernel.half_width
    white = rng.standard_normal(grid.length + 2 * pad) * scale
    values = np.convolve(white, kernel.weights, mode="valid") * grid.spacing
    return SampledSeries(values, grid.spacing, grid.origin)
