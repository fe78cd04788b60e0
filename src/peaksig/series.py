"""Containers for uniformly sampled series and their grids."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Grid", "SampledSeries"]


def _whole(value, name: str, least: int) -> int:
    """``value`` as an int; refused unless it is a whole number >= ``least``
    that a float holds."""
    try:
        whole = value >= least and float(value).is_integer()
    except OverflowError:
        raise ValueError(f"{name} is too large: it does not fit in a float") from None
    if not whole:
        raise ValueError(f"{name} must be an integer >= {least}")
    return int(value)


def _positive(value, what: str) -> None:
    """Refuse ``value``, named ``what`` in the error, unless it is finite and > 0."""
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{what} must be positive and finite")


def _open_unit(value, what: str) -> None:
    """Refuse ``value``, named ``what`` in the error, unless 0 < ``value`` < 1."""
    if not 0.0 < value < 1.0:  # NaN fails too
        raise ValueError(f"{what} must lie strictly between 0 and 1")


def _positions(keys: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``lo, hi`` such that closed interval ``[ends[0, ...], ends[1, ...]]``
    holds ``keys[lo:hi]`` of the ascending ``keys``."""
    lo = np.searchsorted(keys, ends[0], "left")
    return lo, np.searchsorted(keys, ends[1], "right")


def _check_times(what: str, spacing, origin, length: int) -> None:
    """Refuse a ``what`` of ``length`` samples whose times are not all finite."""
    _positive(spacing, f"{what} spacing")
    if not np.isfinite(origin):
        raise ValueError(f"{what} origin must be finite")
    if not np.isfinite(origin + spacing * (length - 1)):
        raise ValueError(f"{what} times overflow: origin + spacing * (length - 1) is not finite")


@dataclass(frozen=True)
class Grid:
    """Uniform sampling grid: ``length`` samples ``spacing`` time units apart."""

    length: int
    spacing: float = 1.0
    origin: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "length", _whole(self.length, "grid length", 1))
        _check_times("grid", self.spacing, self.origin, self.length)

    def times(self) -> np.ndarray:
        return self.origin + self.spacing * np.arange(self.length)


@dataclass(frozen=True, eq=False)
class SampledSeries:
    """Real-valued signal sampled on a uniform grid.

    Parameters
    ----------
    values : array_like
        Sample values, one per grid point. Must be finite.
    spacing : float
        Time step between consecutive samples.
    origin : float
        Time of the first sample.
    boundary : int
        Number of samples at each end computed with a truncated
        (renormalized) kernel. Zero for raw data. Downstream maxima
        searches exclude this zone.
    """

    values: np.ndarray
    spacing: float = 1.0
    origin: float = 0.0
    boundary: int = 0

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("series values must be one-dimensional")
        if values.size == 0:
            raise ValueError("series must hold at least one sample")
        if not np.all(np.isfinite(values)):
            raise ValueError("series values must all be finite")
        object.__setattr__(self, "values", values)
        _check_times("series", self.spacing, self.origin, values.size)
        if self.boundary < 0:
            raise ValueError("boundary sample count must be >= 0")

    def __len__(self) -> int:
        return self.values.size
