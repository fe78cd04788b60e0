"""Multiple testing procedures over candidate-maximum p-values.

The number of tests is the observed number of local maxima, which is
itself random; both procedures take that count from the input vector.
Bonferroni rejects ``p < alpha / m``; Benjamini-Hochberg applies the
usual step-up rule. When no candidates exist (``m = 0``) the p-value
threshold is defined as +infinity and nothing is rejected (vacuously).

Both rules are written once, in :func:`reject_rows`, over a block of
rows tested as separate families: one row per replication in the
harness; :func:`bonferroni` and :func:`bh` are the one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nulldist import SpectralMoments, _law, expected_num_maxima, peak_height_right_cdf_inverse
from .series import _open_unit, _positive

__all__ = [
    "MtpDecision",
    "bonferroni",
    "bh",
    "reject_rows",
    "bonferroni_deterministic_threshold",
    "bonferroni_approx_threshold",
    "asymptotic_bh_threshold",
]


@dataclass(frozen=True)
class MtpDecision:
    """Outcome of a multiple testing procedure.

    ``p_threshold`` is the decision boundary in p-space: Bonferroni
    rejects ``p < p_threshold`` (strict), BH rejects ``p <=
    p_threshold`` where the threshold is ``k alpha / m`` for the
    step-up index ``k`` (0.0 when nothing is rejected, +inf when
    ``m = 0``). ``height_threshold`` is the same boundary mapped to
    height space when spectral moments were supplied (+inf when
    nothing can be rejected), else None.
    """

    method: str
    alpha: float
    num_tests: int
    p_threshold: float
    height_threshold: float | None
    rejected_indices: tuple[int, ...]


def _check_pvalues(p_values) -> np.ndarray:
    p = np.asarray(p_values, dtype=float)
    if p.ndim != 1:
        raise ValueError("p-values must form a one-dimensional sequence")
    if p.size and (not np.all(np.isfinite(p)) or np.any(p <= 0.0) or np.any(p > 1.0)):
        raise ValueError("p-values must lie in (0, 1]")
    return p


def _height_threshold(
    moments: SpectralMoments | None, p_threshold: float
) -> float | None:
    if moments is None:
        return None
    if not (0.0 < p_threshold < 1.0):
        # Nothing rejectable in height space: m = 0 or an empty step-up set.
        return math.inf
    return peak_height_right_cdf_inverse(moments, p_threshold)


def reject_rows(method: str, p: np.ndarray, sizes, alpha: float):
    """Bonferroni or BH over candidates grouped in rows, one family per row.

    ``p`` holds row 0's p-values, then row 1's, and so on; ``sizes``
    counts each row. Returns each row's p-threshold (as in
    :class:`MtpDecision`) and the rejection mask over ``p``. BH sorts
    the rows as one ``(rows, max m)`` table padded with +inf, and rejects
    ``p <= alpha k / m``: exactly the ``k`` smallest, since a later
    p-value under that bound would pass the step-up test itself.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    sizes = np.asarray(sizes, dtype=np.int64)
    row = np.repeat(np.arange(sizes.size), sizes)
    if method == "bonferroni":
        scaled = np.full(sizes.size, alpha)
    else:
        width = int(sizes.max(initial=0))
        start = np.cumsum(sizes) - sizes
        table = np.full((sizes.size, width), math.inf)
        table[row, np.arange(p.size) - start[row]] = p
        table.sort(axis=1)
        rank = np.arange(1, width + 1)
        # The padding never passes; an empty row divides by 1, not 0.
        passed = table <= alpha * rank / np.maximum(sizes, 1)[:, None]
        scaled = alpha * np.max(passed * rank, axis=1, initial=0)
    threshold = np.full(sizes.size, math.inf)
    np.divide(scaled, sizes, out=threshold, where=sizes > 0)
    mask = p < threshold[row] if method == "bonferroni" else p <= threshold[row]
    return threshold, mask


def _decide(method: str, p_values, alpha: float, moments) -> MtpDecision:
    """The one-row case of :func:`reject_rows` as an :class:`MtpDecision`."""
    _open_unit(alpha, "alpha")
    p = _check_pvalues(p_values)
    threshold, mask = reject_rows(method, p, [p.size], alpha)
    rejected = np.flatnonzero(mask)
    if method == "bh":
        # In p order, ties by index: the order of the step-up sort.
        rejected = rejected[np.argsort(p[rejected], kind="stable")]
    threshold = float(threshold[0])
    return MtpDecision(
        method=method,
        alpha=alpha,
        num_tests=p.size,
        p_threshold=threshold,
        height_threshold=_height_threshold(moments, threshold),
        rejected_indices=tuple(rejected.tolist()),
    )


def bonferroni(
    p_values, alpha: float, moments: SpectralMoments | None = None
) -> MtpDecision:
    """Bonferroni at level ``alpha`` over the observed candidates."""
    return _decide("bonferroni", p_values, alpha, moments)


def bh(p_values, alpha: float, moments: SpectralMoments | None = None) -> MtpDecision:
    """Benjamini-Hochberg step-up at level ``alpha``.

    ``k = max{i : p_(i) <= i alpha / m}``; the ``k`` smallest p-values
    are rejected, listed in p order. The sort is stable, and a tie
    cannot straddle the boundary: if ``p_(k+1) == p_(k)`` then ``k+1``
    would satisfy the step-up condition too, so tied boundary values
    are always rejected together.
    """
    return _decide("bh", p_values, alpha, moments)


# The procedures by name, for every caller that selects one.
_METHODS = {"bonferroni": bonferroni, "bh": bh}


def bonferroni_deterministic_threshold(
    m: SpectralMoments, length: float, alpha: float
) -> float:
    """Height threshold ``F^{-1}(alpha / E[#maxima on length])``.

    Uses the expected candidate count instead of the observed one, so
    the threshold is a deterministic function of the model.
    """
    _open_unit(alpha, "alpha")
    expected = expected_num_maxima(m, length)
    p = alpha / expected
    if p >= 1.0:
        raise ValueError(
            "expected number of maxima is below alpha; no finite threshold"
        )
    return peak_height_right_cdf_inverse(m, p)


def bonferroni_approx_threshold(
    m: SpectralMoments, length: float, alpha: float
) -> float:
    """Closed-form large-threshold approximation

        sigma * sqrt(2 log((L / alpha) sqrt(lambda2 / (2 pi sigma2))))

    valid when the logarithm's argument exceeds 1. Overshoots the exact
    deterministic threshold by a few percent at moderate lengths.
    """
    _open_unit(alpha, "alpha")
    sigma, *_, rate = _law(m)
    _positive(length, "length")
    log_arg = math.log(length) - math.log(alpha) + math.log(rate) - 0.5 * math.log(2.0 * math.pi)
    if not log_arg > 0.0:
        raise ValueError(
            "approximation domain error: (L/alpha) sqrt(lambda2/(2 pi sigma2)) "
            "must exceed 1"
        )
    return sigma * math.sqrt(2.0 * log_arg)


def asymptotic_bh_threshold(
    m: SpectralMoments, signal_density: float, alpha: float
) -> float:
    """Limiting BH height threshold for sparse signal.

    ``signal_density`` is the expected number of true peaks per unit
    length. The rejection fraction converges so that the threshold
    solves

        F(u) = alpha * A1 / (A1 + E[#null maxima per unit length] (1 - alpha)).
    """
    _open_unit(alpha, "alpha")
    null_rate = expected_num_maxima(m, 1.0)
    _positive(signal_density, "signal density")
    target = alpha * signal_density / (signal_density + null_rate * (1.0 - alpha))
    return peak_height_right_cdf_inverse(m, target)
