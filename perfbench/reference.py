"""A small reference for the detect pipeline, from plain numpy/scipy.

Written independently of peaksig: direct (non-FFT) kernel convolution,
a brute-force loop for strict maxima with the plateau rule, the
closed-form height cdf, and textbook Bonferroni / Benjamini-Hochberg.
Candidate indices and p-values are compared with tolerances loose
enough for a convolution that is not bit-identical (an FFT one, say);
the rejected set must match exactly.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage, stats

ALPHA = 0.05
P_RTOL = 1e-6
MOMENT_RTOL = 1e-6
TINY = np.finfo(float).tiny


def smooth(values: np.ndarray, gamma: float, spacing: float, truncation: float = 4.0):
    """Mean-centred series smoothed by a truncated Gaussian, edges renormalised."""
    half = int(math.floor(truncation * gamma / spacing + 1e-9))
    k = np.arange(-half, half + 1) * spacing
    w = np.exp(-0.5 * (k / gamma) ** 2)
    centred = values - values.mean()
    numer = ndimage.convolve1d(centred, w, mode="constant", cval=0.0)
    denom = ndimage.convolve1d(np.ones_like(centred), w, mode="constant", cval=0.0)
    return numer / denom, half


def strict_maxima(v: np.ndarray, boundary: int) -> list[int]:
    """Samples above both neighbours; a plateau strictly above both flanks
    counts once, at ``(first + last) // 2``. Only indices in
    ``[boundary, n - 1 - boundary]`` are kept."""
    x = v.tolist()
    n = len(x)
    out = []
    i = 1
    while i < n - 1:
        if x[i] > x[i - 1]:
            j = i
            while j + 1 < n and x[j + 1] == x[i]:
                j += 1
            if j + 1 < n and x[j + 1] < x[i]:
                mid = (i + j) // 2
                if boundary <= mid <= n - 1 - boundary:
                    out.append(mid)
            i = j + 1
        else:
            i += 1
    return out


def closed_form_moments(sigma: float, gamma: float) -> tuple[float, float, float]:
    """Moments of white noise of level ``sigma`` smoothed at ``gamma``."""
    rp = math.sqrt(math.pi)
    s2 = sigma * sigma
    return s2 / (2 * rp * gamma), s2 / (4 * rp * gamma**3), 3 * s2 / (8 * rp * gamma**5)


def mad_moments(smoothed: np.ndarray, boundary: int, spacing: float):
    """Squared normal-scaled MADs of the interior and its two difference quotients."""
    x = smoothed[boundary : smoothed.size - boundary]
    d1 = np.diff(x) / spacing
    d2 = np.diff(d1) / spacing
    return tuple(
        float(stats.median_abs_deviation(y, scale="normal") ** 2) for y in (x, d1, d2)
    )


def height_pvalues(u: np.ndarray, s2: float, l2: float, l4: float) -> np.ndarray:
    """P(local-maximum height > u) for smooth Gaussian noise, floored at TINY."""
    delta = s2 * l4 - l2 * l2
    sd = math.sqrt(s2)
    p = stats.norm.sf(u * math.sqrt(l4 / delta)) + math.sqrt(
        2 * math.pi * l2 * l2 / (l4 * s2)
    ) * stats.norm.pdf(u / sd) * stats.norm.cdf(u * math.sqrt(l2 * l2 / (delta * s2)))
    return np.maximum(np.clip(p, 0.0, 1.0), TINY)


def bonferroni(p: np.ndarray, alpha: float) -> set[int]:
    return set(np.flatnonzero(p <= alpha / p.size).tolist())


def benjamini_hochberg(p: np.ndarray, alpha: float) -> set[int]:
    m = p.size
    order = np.argsort(p, kind="stable")
    ok = np.flatnonzero(p[order] <= alpha * np.arange(1, m + 1) / m)
    return set() if ok.size == 0 else set(order[: ok[-1] + 1].tolist())


def check_detection(values, spacing, gamma, moments, method, report) -> list[str]:
    """Compare one peaksig report with the reference; return the problems found.

    ``moments`` is ``("noise", sigma)`` or ``("mad",)``. ``report`` holds
    ``index``, ``p_value`` and ``rejected`` arrays and the ``moments`` triple.
    """
    smoothed, half = smooth(values, gamma, spacing)
    if moments[0] == "noise":
        want = closed_form_moments(moments[1], gamma)
    else:
        want = mad_moments(smoothed, half, spacing)
    problems = []
    if not np.allclose(report["moments"], want, rtol=MOMENT_RTOL, atol=0.0):
        problems.append(f"moments {report['moments']} != reference {want}")
    ref_idx = np.array(strict_maxima(smoothed, half), dtype=int)
    ref_p = height_pvalues(smoothed[ref_idx], *want)
    got_idx, got_p = report["index"], report["p_value"]

    # Candidates: each index must have a counterpart within one sample.
    def unmatched(a, b):
        if b.size == 0:
            return int(a.size)
        pos = np.clip(np.searchsorted(b, a), 1, b.size - 1)
        near = np.minimum(np.abs(b[pos] - a), np.abs(b[pos - 1] - a))
        return int(np.count_nonzero(near > 1))

    limit = 2 + int(1e-4 * ref_idx.size)
    missing, extra = unmatched(ref_idx, got_idx), unmatched(got_idx, ref_idx)
    if missing > limit or extra > limit:
        problems.append(
            f"candidates: {ref_idx.size} reference, {got_idx.size} reported, "
            f"{missing} missing, {extra} extra (limit {limit})"
        )
    common, ri, gi = np.intersect1d(ref_idx, got_idx, return_indices=True)
    if common.size < ref_idx.size - limit:
        problems.append(f"only {common.size} of {ref_idx.size} candidates at equal index")
    bad = ~np.isclose(got_p[gi], ref_p[ri], rtol=P_RTOL, atol=0.0)
    if np.any(bad):
        problems.append(f"{int(bad.sum())} p-values differ beyond rtol {P_RTOL}")

    rule = bonferroni if method == "bonferroni" else benjamini_hochberg
    want_rejected = {int(ref_idx[i]) for i in rule(ref_p, ALPHA)}
    got_rejected = set(got_idx[report["rejected"]].tolist())
    if want_rejected != got_rejected:
        problems.append(
            f"rejected set differs: {len(want_rejected ^ got_rejected)} indices "
            f"({len(want_rejected)} reference, {len(got_rejected)} reported)"
        )
    return problems


def rate_limit(replications: int, level: float = ALPHA) -> float:
    """Acceptance rule for a Monte Carlo error rate: level + 3 SE at the level."""
    return level + 3.0 * math.sqrt(level * (1.0 - level) / replications)
