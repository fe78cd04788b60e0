"""Local maxima of sampled series.

Candidate maxima are kept as columns (:class:`Candidates`): one array
each for grid index, time, height, p-value and rejection flag. The
pipeline fills the columns in whole-array steps; there is no
per-candidate object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import SampledSeries

__all__ = ["Candidates", "find_local_maxima", "local_max_indices"]


@dataclass(frozen=True, eq=False)
class Candidates:
    """Candidate maxima as a struct of arrays, in ascending index order.

    ``index`` holds grid indices, ``time`` and ``height`` the matching
    times and smoothed values. ``p_value`` (float) and ``rejected``
    (bool) stay None until the pipeline computes them. ``len`` counts
    the candidates.
    """

    index: np.ndarray
    time: np.ndarray
    height: np.ndarray
    p_value: np.ndarray | None = None
    rejected: np.ndarray | None = None

    def __post_init__(self):
        index = np.asarray(self.index, dtype=np.int64)
        if index.ndim != 1:
            raise ValueError("candidate indices must form a 1-D array")
        object.__setattr__(self, "index", index)
        dtypes = {"time": float, "height": float, "p_value": float, "rejected": bool}
        for name, dtype in dtypes.items():
            col = getattr(self, name)
            if col is None:
                continue
            col = np.asarray(col, dtype=dtype)
            if col.shape != index.shape:
                raise ValueError(f"candidate column {name!r} must match the indices")
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return self.index.size


def local_max_indices(values: np.ndarray) -> np.ndarray:
    """Indices of strict local maxima of a 1-D array, ascending.

    A sample qualifies when it exceeds both neighbors. A plateau of
    equal values strictly above both flanks yields the single index
    ``(first + last) // 2``. Endpoints never qualify.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    if n < 3:
        raise ValueError("need at least 3 samples to search for maxima")
    d = np.diff(v)
    if np.all(d != 0.0):
        core = (d[:-1] > 0.0) & (d[1:] < 0.0)
        return np.flatnonzero(core) + 1
    # Plateau path: run-length encode, keep runs strictly above both flanks.
    change = np.flatnonzero(d != 0.0)
    starts = np.concatenate(([0], change + 1))
    ends = np.concatenate((change, [n - 1]))
    interior = (starts > 0) & (ends < n - 1)
    keep = np.zeros(starts.size, dtype=bool)
    idx = np.flatnonzero(interior)
    keep[idx] = (v[starts[idx]] > v[starts[idx] - 1]) & (v[ends[idx]] > v[ends[idx] + 1])
    return (starts[keep] + ends[keep]) // 2


def find_local_maxima(
    series: SampledSeries, excluded_boundary: int | None = None
) -> Candidates:
    """Table the local maxima of ``series`` in ascending index order.

    Parameters
    ----------
    series : SampledSeries
    excluded_boundary : int, optional
        Number of samples at each end to exclude from eligibility.
        Defaults to ``series.boundary`` (the smoothing-affected zone).
    """
    if excluded_boundary is None:
        excluded_boundary = series.boundary
    if excluded_boundary < 0:
        raise ValueError("excluded_boundary must be >= 0")
    idx = local_max_indices(series.values)
    n = len(series)
    lo, hi = excluded_boundary, n - 1 - excluded_boundary
    idx = idx[(idx >= lo) & (idx <= hi)]
    return Candidates(
        index=idx,
        time=series.origin + series.spacing * idx,
        height=series.values[idx],
    )
