"""Gaussian kernel smoothing of sampled series.

Kernels are truncated Gaussian densities sampled on the grid and
renormalized so that the discrete convolution has unit action on
constants. :func:`convolve` smooths an array along its last axis, each
row on its own, so a block of rows comes out as the rows smoothed one
at a time. Interior samples receive the discrete convolution, exact for
narrow kernels; wide ones go through an overlap-add FFT, within ~1e-15
relative, that keeps the exact ties of constant windows. Near the edges
the kernel is renormalized over the in-range part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import _positive

__all__ = ["Kernel", "make_gaussian_kernel", "kernel_fits", "convolve", "DEFAULT_KERNEL_TRUNCATION"]

# Half-support of the smoothing kernel in units of its bandwidth.
DEFAULT_KERNEL_TRUNCATION = 4.0

# Kernels with at least this many taps are applied by overlap-add FFT.
# On 1e6 samples (2-vCPU Xeon KVM guest, numpy 2.4) np.convolve and the
# FFT cost the same at ~85 taps (~7 ms); at 801 taps the FFT is ~6x faster.
_FFT_MIN_TAPS = 100

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True, eq=False)
class Kernel:
    """Discrete smoothing kernel.

    ``weights`` has odd length ``2 * half_width + 1`` and satisfies
    ``weights.sum() * spacing == 1`` to within 1e-12, so convolution
    mimics the continuous integral against a unit-mass kernel.
    ``aliased`` is set when the bandwidth does not resolve the grid
    (bandwidth at or below the sample spacing).
    """

    weights: np.ndarray
    spacing: float
    half_width: int
    aliased: bool = False

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", weights)
        if weights.size != 2 * self.half_width + 1:
            raise ValueError("kernel weights must have length 2 * half_width + 1")
        if not abs(weights.sum() * self.spacing - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError("kernel weights must integrate to 1 on the grid")


def _half_width(gamma: float, truncation: float, spacing: float) -> int:
    """Half-width in samples of ``make_gaussian_kernel``'s kernel, not building it."""
    _positive(gamma, "kernel bandwidth")
    _positive(truncation, "kernel truncation")
    _positive(spacing, "kernel spacing")
    # Below about 2.2e-309 the peak density overflows and the weights are NaN.
    if math.isinf(1.0 / (float(gamma) * _SQRT_2PI)):
        raise ValueError(f"kernel bandwidth {gamma!r} is too small: its peak density overflows")
    # Small epsilon so an exact multiple of the spacing lands inside; the
    # cap keeps a reach that overflows to inf an integer.
    return int(np.floor(min(truncation * gamma / spacing + 1e-9, 2.0**62)))


def kernel_fits(length: int, gamma: float, truncation: float, spacing: float) -> bool:
    """Whether ``make_gaussian_kernel(gamma, truncation, spacing)`` fits in
    ``length`` samples with a sample to spare at each end, decided without
    building it."""
    return length >= 2 * _half_width(gamma, truncation, spacing) + 3


def make_gaussian_kernel(
    gamma: float,
    truncation: float = DEFAULT_KERNEL_TRUNCATION,
    spacing: float = 1.0,
) -> Kernel:
    """Build a truncated Gaussian kernel with bandwidth ``gamma``.

    Parameters
    ----------
    gamma : float
        Kernel standard deviation in time units. Must be positive.
    truncation : float
        Half-support in units of ``gamma``; weights vanish beyond
        ``truncation * gamma``.
    spacing : float
        Grid spacing the kernel will be applied on.

    Returns
    -------
    Kernel
        Renormalized discrete kernel. ``aliased`` is True when
        ``gamma <= spacing``; such kernels are usable but undersample
        the Gaussian shape.
    """
    half_width = _half_width(gamma, truncation, spacing)
    offsets = spacing * np.arange(-half_width, half_width + 1)
    weights = np.exp(-0.5 * (offsets / gamma) ** 2) / (gamma * _SQRT_2PI)
    mass = float(weights.sum()) * float(spacing)  # a float product overflows silently
    if not 0.0 < mass < math.inf:
        raise ValueError(
            f"kernel bandwidth {gamma!r} and spacing {spacing!r} give kernel "
            "weights that cannot be normalized"
        )
    weights /= mass
    return Kernel(
        weights=weights,
        spacing=spacing,
        half_width=half_width,
        aliased=bool(gamma <= spacing),
    )


def convolve(values: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Smooth ``values`` with ``kernel`` along the last axis, preserving shape.

    A 1-D array is one row; rows are smoothed independently, so each row
    of the result equals the row smoothed alone, bit for bit. Interior
    points get the discrete convolution ``sum_k w_k y[i-k] * spacing``:
    exact for kernels narrower than ``_FFT_MIN_TAPS`` taps; for wider ones
    an overlap-add FFT within ~1e-15 of ``max |y|``, which keeps the exact
    ties of windows that see one constant value. Within
    ``kernel.half_width`` of either end of a row the kernel is
    renormalized over its in-range portion, so constants are reproduced
    everywhere; maxima searches should skip that zone.
    """
    x = np.asarray(values, dtype=float)
    n = x.shape[-1]
    w = kernel.weights
    if n < w.size:
        raise ValueError("series shorter than kernel support")
    h = kernel.half_width
    fft = w.size >= _FFT_MIN_TAPS
    if fft:
        numer = _overlap_add(x, w)
    else:
        numer = np.apply_along_axis(np.convolve, -1, x, w, "same")
    # Only the 2 * h edge samples of a row see a partial kernel; their
    # in-range mass comes from a short series, whose middle sample holds
    # the full-window sum the interior is divided by.
    m = min(n, 4 * h + 1)
    mass = np.convolve(np.ones(m), w, mode="same")
    numer[..., :h] /= mass[:h]
    numer[..., h : n - h] /= mass[m // 2]
    numer[..., n - h :] /= mass[m - h :]
    if fft:
        # FFT rounding breaks the ties a direct sum gives wherever the
        # whole window sees one value (clipped or zero-filled stretches),
        # which would split a plateau into spurious maxima.
        changes = np.zeros(x.shape, dtype=np.int64)
        np.cumsum(x[..., 1:] != x[..., :-1], axis=-1, out=changes[..., 1:])
        flat = changes[..., 2 * h :] == changes[..., : n - 2 * h]
        np.copyto(numer[..., h : n - h], x[..., h : n - h], where=flat)
    return numer


def _overlap_add(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``np.convolve(row, w, "same")`` of each row of ``x`` by overlap-add
    FFT over blocks of the last axis."""
    taps, n = w.size, x.shape[-1]
    nfft = 1 << (8 * taps - 1).bit_length()
    step = nfft - taps + 1
    blocks = -(-n // step)
    padded = np.zeros(x.shape[:-1] + (blocks * step,))
    padded[..., :n] = x
    spectra = np.fft.rfft(padded.reshape(x.shape[:-1] + (blocks, step)), nfft)
    pieces = np.fft.irfft(spectra * np.fft.rfft(w, nfft), nfft)
    full = np.zeros(x.shape[:-1] + (blocks + 1, step))
    full[..., :blocks, :] = pieces[..., :step]
    full[..., 1:, : taps - 1] += pieces[..., step:]
    h = taps // 2
    return full.reshape(x.shape[:-1] + (-1,))[..., h : h + n]
