"""Truth regions, error/power accounting, and the simulation harness.

A detected maximum is a true positive only if it falls inside the
support of some true peak; rejections in the transition zone (where
smoothing smears signal beyond the support) count as false. When peak
supports overlap, credit is assigned by splitting the overlap at its
midpoint, so the per-peak rejection regions tile the signal region
with no gaps or double cover. Scoring is counting: ``searchsorted``
places the interval endpoints among the ascending candidate times, and
a prefix sum of the rejection mask at those positions counts rejections.
The tally works on a block of rows; :func:`classify` is its one-row case.

The harness replays the detection pipeline over many noise draws on a
padded grid (margin ``4 (nu + max gamma)`` time units each side, and at
least the kernel half-width, cropped after smoothing so the analysis
window is free of boundary effects). It smooths and finds maxima with
the code of :func:`peaksig.detect`, then computes p-values, decides
(:func:`peaksig.mtp.reject_rows`) and tallies once per bandwidth for a
block of replications. The report gives familywise error rate, false
discovery rate, power, and the probability that one true peak carries
more than one candidate maximum.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .detector import DetectionResult
from .maxima import local_max_indices
from .model import (
    NOISE_KERNEL_TRUNCATION, NoiseSpec, SignalSpec, synthesize_noise, synthesize_signal
)
from .mtp import _METHODS, reject_rows
from .nulldist import gaussian_model_moments, peak_height_right_cdf
from .series import Grid, SampledSeries
from .smoothing import DEFAULT_KERNEL_TRUNCATION, _half_width, convolve, make_gaussian_kernel

__all__ = [
    "DEFAULT_BANDWIDTH_GRID",
    "FINE_BANDWIDTH_GRID",
    "TruthRegions",
    "RunCounts",
    "SimConfig",
    "SimCell",
    "SimReport",
    "truth_regions",
    "classify",
    "run_simulation",
    "replication_seed",
    "standard_design",
    "optimal_gamma",
    "matched_filter_objective",
]

# Bandwidth grids for the two stock studies: the coarse sweep used by the
# error/power experiments, and the fine sweep for locating the power optimum.
DEFAULT_BANDWIDTH_GRID = tuple(1.0 + 0.5 * i for i in range(12))
FINE_BANDWIDTH_GRID = tuple(round(1.0 + 0.1 * i, 10) for i in range(26))


# ---------------------------------------------------------------------------
# Truth regions


@dataclass(frozen=True, eq=False)
class TruthRegions:
    """Interval bookkeeping for one signal layout at one bandwidth.

    All interval sets are (k, 2) arrays of closed intervals clipped to
    the window. ``signal_region`` is the union of peak supports;
    ``signal_region_expanded`` additionally absorbs the smoothing
    spill-over (supports widened by the kernel half-support);
    ``null_region`` / ``null_region_expanded`` are the respective
    complements. ``rejection_regions`` holds one interval per peak,
    overlaps split at midpoints, tiling ``signal_region`` exactly;
    ``peak_supports`` keeps the unsplit per-peak supports.
    """

    window: tuple[float, float]
    signal_region: np.ndarray
    signal_region_expanded: np.ndarray
    null_region: np.ndarray
    null_region_expanded: np.ndarray
    rejection_regions: np.ndarray
    peak_supports: np.ndarray

    @property
    def num_peaks(self) -> int:
        return self.rejection_regions.shape[0]


def _merge_intervals(intervals: np.ndarray) -> np.ndarray:
    """Union of closed intervals as sorted, disjoint intervals."""
    iv = intervals[np.argsort(intervals[:, 0], kind="stable")]
    reach = np.maximum.accumulate(iv[:, 1])
    first = np.ones(len(iv), dtype=bool)
    first[1:] = iv[1:, 0] > reach[:-1]
    last = np.append(first[1:], True)[: len(iv)]
    return np.column_stack((iv[first, 0], reach[last]))


def _complement(intervals: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    """Gaps of sorted, disjoint ``intervals`` inside ``window``."""
    gaps = np.column_stack(
        (np.append(window[0], intervals[:, 1]), np.append(intervals[:, 0], window[1]))
    )
    return gaps[gaps[:, 0] < gaps[:, 1]]


def truth_regions(
    signal: SignalSpec,
    gamma: float,
    kernel_truncation: float = DEFAULT_KERNEL_TRUNCATION,
    window: tuple[float, float] = (0.0, 1.0),
) -> TruthRegions:
    """Build the truth regions for ``signal`` smoothed at ``gamma``.

    ``gamma`` may be 0 (no expansion). Peaks whose rejection region
    misses the window are dropped.
    """
    if not (np.isfinite(gamma) and gamma >= 0):
        raise ValueError("gamma must be >= 0")
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must be a nonempty interval")
    window = (lo, hi)
    half = signal.support_half_width
    spill = half + kernel_truncation * gamma
    taus = np.sort(np.array([tau for _, tau in signal.peaks], dtype=float))

    def clipped(a, b):
        return np.column_stack((np.maximum(a, lo), np.minimum(b, hi)))

    expanded = clipped(taus - spill, taus + spill)
    expanded = expanded[expanded[:, 0] <= expanded[:, 1]]
    # Per-peak credit: clip each support at the midpoints to its neighbors.
    # A peak stays, with one row in both per-peak arrays, while its credit
    # meets the window.
    mids = 0.5 * (taus[:-1] + taus[1:])
    credit = clipped(
        np.maximum(taus - half, np.append(-np.inf, mids)),
        np.minimum(taus + half, np.append(mids, np.inf)),
    )
    keep = credit[:, 0] <= credit[:, 1]
    rejection, supports = credit[keep], clipped(taus - half, taus + half)[keep]
    signal_region = _merge_intervals(supports)
    signal_expanded = _merge_intervals(expanded)
    return TruthRegions(
        window=window,
        signal_region=signal_region,
        signal_region_expanded=signal_expanded,
        null_region=_complement(signal_region, window),
        null_region_expanded=_complement(signal_expanded, window),
        rejection_regions=rejection,
        peak_supports=supports,
    )


# ---------------------------------------------------------------------------
# Outcome accounting


@dataclass(frozen=True)
class RunCounts:
    """Rejection bookkeeping for one detection run against known truth."""

    false_rejections: int
    true_rejections: int
    rejections: int
    detected_peaks: int
    num_tests: int
    num_null_tests: int
    num_signal_tests: int
    multi_max_peaks: int
    num_peaks: int


def _endpoints(regions: TruthRegions) -> np.ndarray:
    """Starts (row 0) and ends (row 1) of the signal region's intervals,
    then of the per-peak rejection regions, then of the per-peak supports."""
    rows = (regions.signal_region, regions.rejection_regions, regions.peak_supports)
    return np.ascontiguousarray(np.concatenate(rows).T)


def _positions(keys: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``lo, hi`` such that closed interval ``[ends[0, ...], ends[1, ...]]``
    holds ``keys[lo:hi]`` of the ascending ``keys``."""
    lo = np.searchsorted(keys, ends[0], "left")
    return lo, np.searchsorted(keys, ends[1], "right")


def _tally(
    lo: np.ndarray, hi: np.ndarray, rejected, bounds, regions: TruthRegions
) -> RunCounts:
    """Counts for a block of rows of candidates, one entry per row in
    each field.

    Row ``r`` holds candidates ``bounds[r]:bounds[r + 1]`` of the block,
    and ``lo[r], hi[r]`` are the block positions of ``regions``'
    intervals in that row (see :func:`_positions`): each interval holds
    ``hi - lo`` candidates and ``total[hi] - total[lo]`` rejections.
    """
    total = np.concatenate(([0], np.cumsum(rejected)))
    inside = hi - lo
    found = total[hi] - total[lo]
    k = regions.signal_region.shape[0]
    p = regions.num_peaks
    num_tests = np.diff(bounds)
    num_signal = inside[:, :k].sum(axis=1)
    r = total[bounds[1:]] - total[bounds[:-1]]
    w = found[:, :k].sum(axis=1)
    return RunCounts(
        false_rejections=r - w,
        true_rejections=w,
        rejections=r,
        detected_peaks=np.count_nonzero(found[:, k : k + p], axis=1),
        num_tests=num_tests,
        num_null_tests=num_tests - num_signal,
        num_signal_tests=num_signal,
        multi_max_peaks=np.count_nonzero(inside[:, k + p :] > 1, axis=1),
        num_peaks=np.full(num_tests.size, p),
    )


def classify(result: DetectionResult, regions: TruthRegions) -> RunCounts:
    """Score a detection result against known truth regions.

    Candidates may come in any order; counting needs them sorted by time.
    This is the one-row case of the harness's tally.
    """
    times, rejected = result.candidates.time, result.candidates.rejected
    if np.any(times[1:] < times[:-1]):
        order = np.argsort(times, kind="stable")
        times, rejected = times[order], rejected[order]
    lo, hi = _positions(times, _endpoints(regions))
    counts = _tally(lo[None], hi[None], rejected, np.array([0, times.size]), regions)
    return RunCounts(*(int(v[0]) for v in vars(counts).values()))


# ---------------------------------------------------------------------------
# Simulation harness


@dataclass(frozen=True)
class SimConfig:
    """One simulation study: fixed layout, a grid of bandwidths, one or
    two testing procedures, many replications."""

    signal: SignalSpec
    noise: NoiseSpec
    grid: Grid
    gammas: tuple[float, ...]
    alpha: float = 0.05
    methods: tuple[str, ...] = ("bonferroni", "bh")
    replications: int = 1000
    base_seed: int = 0
    kernel_truncation: float = DEFAULT_KERNEL_TRUNCATION
    peak_spacing: float | None = None
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.gammas or any(g <= 0 for g in self.gammas):
            raise ValueError("gammas must be a nonempty tuple of positive floats")
        if not (0 < self.alpha < 1):
            raise ValueError("alpha must lie strictly between 0 and 1")
        if not self.methods or any(m not in _METHODS for m in self.methods):
            raise ValueError("methods must be drawn from 'bonferroni', 'bh'")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        # detect's rule for every kernel, so a huge bandwidth is refused, not allocated.
        spacing = self.grid.spacing
        widths = [_half_width(g, self.kernel_truncation, spacing) for g in self.gammas]
        if self.noise.nu > 0:
            widths.append(_half_width(self.noise.nu, NOISE_KERNEL_TRUNCATION, spacing))
        if self.grid.length < 2 * max(widths) + 3:
            raise ValueError("grid too short for the requested kernel")


@dataclass(frozen=True)
class SimCell:
    """Estimates for one (gamma, method) pair."""

    gamma: float
    method: str
    fwer: float
    fwer_se: float
    fdr: float
    fdr_se: float
    power: float
    power_se: float
    multi_max_prob: float
    multi_max_se: float
    mean_tests: float
    mean_rejections: float
    mean_false_rejections: float
    mean_true_rejections: float


@dataclass(frozen=True, eq=False)
class SimReport:
    """Simulation estimates, one cell per (gamma, method).

    Deterministic: the same config (including base seed) reproduces the
    report bit for bit, independent of the worker count.
    """

    config: SimConfig
    cells: tuple[SimCell, ...]

    def cell(self, gamma: float, method: str) -> SimCell:
        for c in self.cells:
            if c.method == method and math.isclose(c.gamma, gamma):
                return c
        raise KeyError(f"no cell for gamma={gamma}, method={method}")


def replication_seed(base_seed: int, replication: int) -> int:
    """Derive one replication's noise seed from the base seed."""
    ss = np.random.SeedSequence((int(base_seed), int(replication)))
    return int(ss.generate_state(1, np.uint64)[0])


def _sim_context(config: SimConfig):
    grid = config.grid
    delta = grid.spacing
    kernels = [
        make_gaussian_kernel(g, config.kernel_truncation, delta)
        for g in config.gammas
    ]
    margin = int(np.ceil(4.0 * (config.noise.nu + max(config.gammas)) / delta))
    margin = max(margin, max(k.half_width for k in kernels))
    padded = Grid(grid.length + 2 * margin, delta, grid.origin - margin * delta)
    window = (grid.origin, grid.origin + (grid.length - 1) * delta)
    signal_values = synthesize_signal(config.signal, padded).values
    moments = [gaussian_model_moments(config.noise, g) for g in config.gammas]
    regions = [
        truth_regions(config.signal, g, config.kernel_truncation, window)
        for g in config.gammas
    ]
    # A candidate's time is ``grid.times()[index]``, so a closed time
    # interval holds exactly the indices from the first grid time at or
    # past its start to the last at or before its end.
    times = grid.times()
    cuts = []
    for r in regions:
        lo, hi = _positions(times, _endpoints(r))
        cuts.append(np.stack((lo, hi - 1)))
    return margin, padded, signal_values, kernels, moments, regions, cuts


def _run_block(task):
    """Replications [start, stop) of one study: the :class:`RunCounts`
    fields, on the last axis, per (replication, gamma, method)."""
    config, start, stop = task
    margin, padded, signal_values, kernels, moments, regions, cuts = _sim_context(config)
    length = config.grid.length
    found = [[] for _ in kernels]
    heights = [[] for _ in kernels]
    for rep in range(start, stop):
        seed = replication_seed(config.base_seed, rep)
        noise_values = synthesize_noise(config.noise, padded, seed).values
        raw = SampledSeries(signal_values + noise_values, padded.spacing, padded.origin)
        for gi, kernel in enumerate(kernels):
            # The margin covers the kernel's half-width, so the window
            # never sees the renormalized edges.
            smoothed = convolve(raw, kernel).values[margin : margin + length]
            idx = local_max_indices(smoothed)
            found[gi].append(idx)
            heights[gi].append(smoothed[idx])
    # Row r's grid indices, offset by r * length, ascend across the block,
    # so one search places every replication's candidates.
    offsets = length * np.arange(stop - start)
    counts = []
    for gi in range(len(kernels)):
        sizes = np.array([idx.size for idx in found[gi]])
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        keys = np.concatenate(found[gi]) + np.repeat(offsets, sizes)
        lo, hi = _positions(keys, cuts[gi][:, None, :] + offsets[:, None])
        p = np.maximum(
            peak_height_right_cdf(moments[gi], np.concatenate(heights[gi])),
            np.finfo(float).tiny,
        )
        for method in config.methods:
            _, rejected = reject_rows(method, p, sizes, config.alpha)
            rc = _tally(lo, hi, rejected, bounds, regions[gi])
            counts.append(np.column_stack(list(vars(rc).values())))
    shape = (stop - start, len(kernels), len(config.methods), -1)
    return np.stack(counts, axis=1).reshape(shape)


def _sample_se(x: np.ndarray) -> float:
    if x.size < 2:
        return 0.0
    return float(x.std(ddof=1) / math.sqrt(x.size))


def run_simulation(config: SimConfig) -> SimReport:
    """Run the full study and reduce to per-(gamma, method) estimates.

    Replications are independent; with ``config.workers > 1`` they are
    distributed over processes. Per-replication results are reassembled
    in replication order before reduction, so the report does not
    depend on the worker count.
    """
    n = config.replications
    if config.workers > 1 and n > 1:
        bounds = np.linspace(0, n, min(config.workers, n) + 1, dtype=int)
        tasks = [
            (config, int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a
        ]
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            blocks = list(pool.map(_run_block, tasks))
    else:
        blocks = [_run_block((config, 0, n))]
    rc = RunCounts(*np.moveaxis(np.concatenate(blocks), -1, 0))
    peaks = np.maximum(rc.num_peaks, 1)
    fdp = rc.false_rejections / np.maximum(rc.rejections, 1)
    power = rc.detected_peaks / peaks
    multi = rc.multi_max_peaks / peaks
    cells = []
    for gi, gamma in enumerate(config.gammas):
        for mi, method in enumerate(config.methods):
            fwer = float(np.mean(rc.false_rejections[:, gi, mi] > 0))
            cells.append(
                SimCell(
                    gamma=gamma,
                    method=method,
                    fwer=fwer,
                    fwer_se=float(math.sqrt(fwer * (1.0 - fwer) / n)),
                    fdr=float(fdp[:, gi, mi].mean()),
                    fdr_se=_sample_se(fdp[:, gi, mi]),
                    power=float(power[:, gi, mi].mean()),
                    power_se=_sample_se(power[:, gi, mi]),
                    multi_max_prob=float(multi[:, gi, 0].mean()),
                    multi_max_se=_sample_se(multi[:, gi, 0]),
                    mean_tests=float(rc.num_tests[:, gi, mi].mean()),
                    mean_rejections=float(rc.rejections[:, gi, mi].mean()),
                    mean_false_rejections=float(rc.false_rejections[:, gi, mi].mean()),
                    mean_true_rejections=float(rc.true_rejections[:, gi, mi].mean()),
                )
            )
    return SimReport(config=config, cells=tuple(cells))


def standard_design(
    amplitude: float = 10.0,
    nu: float = 0.0,
    peak_spacing: float = 100.0,
    num_peaks: int = 20,
    peak_scale: float = 3.0,
    peak_truncation: float = 2.0,
    sigma: float = 1.0,
    gammas: tuple[float, ...] = (3.0,),
    alpha: float = 0.05,
    methods: tuple[str, ...] = ("bonferroni", "bh"),
    replications: int = 1000,
    base_seed: int = 0,
    signal_fraction: float = 0.12,
    spacing: float = 1.0,
    kernel_truncation: float = DEFAULT_KERNEL_TRUNCATION,
    workers: int = 1,
) -> SimConfig:
    """Equally spaced, equal-amplitude peak train on a window sized to
    keep the signal fraction fixed.

    Peak ``j`` sits at ``peak_spacing * (j + 1/2)``. The window length
    is ``|union of supports| / signal_fraction``, so shrinking
    ``peak_spacing`` into the overlapping regime shrinks the window
    with it, preserving the null/signal balance.
    """
    width = 2.0 * peak_truncation * peak_scale
    union = num_peaks * width - (num_peaks - 1) * max(0.0, width - peak_spacing)
    length = int(round(union / signal_fraction / spacing))
    peaks = tuple(
        (amplitude, peak_spacing * (j + 0.5)) for j in range(num_peaks)
    )
    return SimConfig(
        signal=SignalSpec(peaks, peak_scale, peak_truncation),
        noise=NoiseSpec(sigma, nu),
        grid=Grid(length, spacing, 0.0),
        gammas=tuple(gammas),
        alpha=alpha,
        methods=tuple(methods),
        replications=replications,
        base_seed=base_seed,
        kernel_truncation=kernel_truncation,
        peak_spacing=peak_spacing,
        workers=workers,
    )


# ---------------------------------------------------------------------------
# Bandwidth selection


def optimal_gamma(peak_scale: float, nu: float) -> float:
    """Bandwidth maximizing the matched-filter objective.

    ``sqrt(peak_scale^2 - 2 nu^2)`` when that is real, else 0: for
    strongly autocorrelated noise no extra smoothing helps.
    """
    if not (np.isfinite(peak_scale) and peak_scale > 0):
        raise ValueError("peak scale must be positive")
    if not (np.isfinite(nu) and nu >= 0):
        raise ValueError("nu must be >= 0")
    gap = peak_scale**2 - 2.0 * nu**2
    return math.sqrt(gap) if gap > 0 else 0.0


def matched_filter_objective(
    peak_scale: float, nu: float, gamma: float, sigma: float = 1.0
) -> float:
    """Smoothed peak height over smoothed noise sd, per unit amplitude.

    The smoothed (untruncated) peak shape has center value
    ``1 / sqrt(2 pi (peak_scale^2 + gamma^2))``; the noise sd follows
    the closed-form moments at combined bandwidth ``xi``.
    """
    height = 1.0 / math.sqrt(2.0 * math.pi * (peak_scale**2 + gamma**2))
    return height / math.sqrt(gaussian_model_moments(NoiseSpec(sigma, nu), gamma).sigma2)
