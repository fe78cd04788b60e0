"""Local maxima of sampled series.

Candidate maxima are kept as columns (:class:`Candidates`): one array
each for grid index, time, height, p-value and rejection flag. The
pipeline fills the columns in whole-array steps; there is no
per-candidate object. :func:`local_max_indices` searches every row of a
block at once, so one maxima rule serves ``detect`` (one row) and the
simulation harness (one row per replication).
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
    """Flat indices of strict local maxima along the last axis, ascending.

    A 1-D array is one row; in rows of ``n`` samples, sample ``i`` of row
    ``r`` has flat index ``r * n + i``. A sample qualifies when it exceeds
    both neighbors in its row. A plateau of equal values strictly above
    both flanks yields the single index ``(first + last) // 2``; plateaus
    never run from one row into the next. Row ends never qualify.
    """
    v = np.asarray(values, dtype=float)
    n = v.shape[-1]
    if n < 3:
        raise ValueError("need at least 3 samples to search for maxima")
    d = np.diff(v, axis=-1)
    if np.all(d != 0.0):
        peak = np.zeros(v.shape, dtype=bool)
        np.logical_and(d[..., :-1] > 0.0, d[..., 1:] < 0.0, out=peak[..., 1:-1])
        return np.flatnonzero(peak)
    # Plateau path: a maximum, one sample or a plateau, spans the samples
    # after a rise (difference ``a``) up to the next nonzero difference, a
    # fall (``b``), in the same row. With n - 1 differences to a row, the
    # middle of row r's samples ``a + 1 .. b`` has flat index below.
    flat = d.reshape(-1)
    nz = np.flatnonzero(flat)
    up = flat[nz] > 0.0
    turn = up[:-1] & ~up[1:]
    a, b = nz[:-1][turn], nz[1:][turn]
    row = a // (n - 1)
    same = b // (n - 1) == row
    return (a[same] + b[same] + 1) // 2 + row[same]


def find_local_maxima(series: SampledSeries) -> Candidates:
    """Table the local maxima of ``series`` in ascending index order.

    The ``series.boundary`` samples at each end (the smoothing-affected
    zone) are never eligible; to search them too, pass
    ``dataclasses.replace(series, boundary=0)``.
    """
    idx = local_max_indices(series.values)
    b = series.boundary
    idx = idx[(idx >= b) & (idx < len(series) - b)]
    return Candidates(
        index=idx,
        time=series.origin + series.spacing * idx,
        height=series.values[idx],
    )
