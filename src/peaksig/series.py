"""Containers for uniformly sampled series and their grids."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = ["Grid", "SampledSeries"]


@dataclass(frozen=True)
class Grid:
    """Uniform sampling grid: ``length`` samples ``spacing`` time units apart."""

    length: int
    spacing: float = 1.0
    origin: float = 0.0

    def __post_init__(self):
        if not (self.length >= 1 and float(self.length).is_integer()):
            raise ValueError("grid length must be an integer >= 1")
        object.__setattr__(self, "length", int(self.length))
        if not (np.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError("grid spacing must be positive and finite")
        if not np.isfinite(self.origin):
            raise ValueError("grid origin must be finite")

    @classmethod
    def coerce(cls, grid) -> "Grid":
        """Accept a Grid or a (length, spacing, origin) tuple."""
        if isinstance(grid, Grid):
            return grid
        return cls(*grid)

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
        if not (np.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError("series spacing must be positive and finite")
        if not np.isfinite(self.origin):
            raise ValueError("series origin must be finite")
        if self.boundary < 0:
            raise ValueError("boundary sample count must be >= 0")

    def __len__(self) -> int:
        return self.values.size

    @property
    def grid(self) -> Grid:
        return Grid(self.values.size, self.spacing, self.origin)

    def times(self) -> np.ndarray:
        return self.origin + self.spacing * np.arange(self.values.size)

    def crop(self, start: int, stop: int) -> "SampledSeries":
        """Slice by sample index, shifting the origin accordingly."""
        if not (0 <= start < stop <= self.values.size):
            raise ValueError("crop range out of bounds")
        return replace(
            self,
            values=self.values[start:stop],
            origin=self.origin + start * self.spacing,
            boundary=0,
        )
