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
window is free of boundary effects). Replications run in blocks of
rows, one seeded draw per row; per bandwidth, a block is smoothed
(:func:`peaksig.smoothing.convolve`), searched for maxima
(:func:`peaksig.maxima.local_max_indices`), given p-values, decided
(:func:`peaksig.mtp.reject_rows`) and tallied in one call each, with the
code of :func:`peaksig.detect`. Rows never mix, so the report does not
depend on how replications are cut into blocks or spread over workers.
The report gives familywise error rate, false discovery rate, power, and
the probability that one true peak carries more than one candidate
maximum.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .detector import DetectionResult
from .maxima import local_max_indices
from .model import NOISE_KERNEL_TRUNCATION, NoiseSpec, SignalSpec, _peak_train, synthesize_noise
from .mtp import _METHODS, reject_rows
from .nulldist import gaussian_model_moments, peak_height_right_cdf
from .series import Grid, _open_unit, _positions, _positive, _whole
from .smoothing import DEFAULT_KERNEL_TRUNCATION, convolve, kernel_fits, make_gaussian_kernel

__all__ = [
    "DEFAULT_BANDWIDTH_GRID",
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

# Bandwidth grid of the stock error/power studies.
DEFAULT_BANDWIDTH_GRID = tuple(1.0 + 0.5 * i for i in range(12))

# Samples (replications times grid length) per block of the harness.
_BLOCK_SAMPLES = 1 << 19


# ---------------------------------------------------------------------------
# Truth regions


@dataclass(frozen=True, eq=False)
class TruthRegions:
    """Interval bookkeeping for one signal layout on one window.

    All interval sets are (k, 2) arrays of closed intervals clipped to
    the window. ``signal_region`` is the union of peak supports, sorted
    and disjoint. ``rejection_regions`` holds one interval per peak,
    overlaps split at midpoints, tiling ``signal_region`` exactly;
    ``peak_supports`` keeps the unsplit per-peak supports. These are
    all the tally reads: a rejection is true only inside a support, so
    no region widened by smoothing enters the count.
    """

    signal_region: np.ndarray
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


def truth_regions(signal: SignalSpec, window: tuple[float, float]) -> TruthRegions:
    """Build the truth regions of ``signal`` inside ``window``.

    Peaks whose rejection region misses the window are dropped.
    """
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must be a nonempty interval")
    half = signal.support_half_width
    taus = np.sort(np.array([tau for _, tau in signal.peaks], dtype=float))

    def clipped(a, b):
        return np.column_stack((np.maximum(a, lo), np.minimum(b, hi)))

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
    return TruthRegions(
        signal_region=_merge_intervals(supports),
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
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.gammas:
            raise ValueError("gammas must be nonempty")
        for g in self.gammas:
            _positive(g, "gammas")
        _open_unit(self.alpha, "alpha")
        if not self.methods or any(m not in _METHODS for m in self.methods):
            raise ValueError(f"methods must be drawn from {', '.join(map(repr, _METHODS))}")
        for name, least in (("replications", 1), ("workers", 1), ("base_seed", 0)):
            object.__setattr__(self, name, _whole(getattr(self, name), name, least))
        # detect's rule for every kernel, so a huge bandwidth is refused, not allocated.
        length, spacing = self.grid.length, self.grid.spacing
        fits = [kernel_fits(length, g, self.kernel_truncation, spacing) for g in self.gammas]
        if self.noise.nu > 0:
            fits.append(kernel_fits(length, self.noise.nu, NOISE_KERNEL_TRUNCATION, spacing))
        if not all(fits):
            raise ValueError("grid too short for the requested kernel")
        for g in self.gammas:  # refused here, not in each worker of the run
            gaussian_model_moments(self.noise, g)
        num_peaks = len(self.signal.peaks)
        dropped = num_peaks - truth_regions(self.signal, _window(self.grid)).num_peaks
        if dropped:
            raise ValueError(f"the grid window drops {dropped} of {num_peaks} peaks")


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


def _window(grid: Grid) -> tuple[float, float]:
    """Times of the first and last sample of ``grid``."""
    return grid.origin, grid.origin + (grid.length - 1) * grid.spacing


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
    # One time map: window sample i sits at ``grid.times()[i]`` in the signal
    # and as a candidate, so a closed interval holds the same samples in
    # both, from the first time at or past its start to the last at or
    # before its end. A peak's signal lands exactly on its support's cut.
    times = grid.origin + delta * np.arange(-margin, grid.length + margin)
    signal_values = _peak_train(config.signal, times)
    moments = [gaussian_model_moments(config.noise, g) for g in config.gammas]
    regions = truth_regions(config.signal, _window(grid))
    lo, hi = _positions(times[margin : margin + grid.length], _endpoints(regions))
    cuts = np.stack((lo, hi - 1))
    return margin, padded, signal_values, kernels, moments, regions, cuts


def _run_block(task):
    """Replications [start, stop) of one study: the :class:`RunCounts`
    fields, on the last axis, per (replication, gamma, method)."""
    config, start, stop = task
    margin, padded, signal_values, kernels, moments, regions, cuts = _sim_context(config)
    rows, length = stop - start, config.grid.length
    draws = np.empty((rows, padded.length))
    for r in range(rows):
        seed = replication_seed(config.base_seed, start + r)
        draws[r] = synthesize_noise(config.noise, padded, seed).values
    draws += signal_values
    # Row r's window index i has flat index r * length + i, so the keys
    # ascend across the block and one search places every row's candidates.
    ends = cuts[:, None, :] + length * np.arange(rows)[:, None]
    counts = []
    for kernel, gamma_moments in zip(kernels, moments):
        # The margin covers the kernel's half-width, so the window
        # never sees the renormalized edges.
        smoothed = convolve(draws, kernel)[:, margin : margin + length]
        keys = local_max_indices(smoothed)
        row, index = np.divmod(keys, length)
        sizes = np.bincount(row, minlength=rows)
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        lo, hi = _positions(keys, ends)
        heights = smoothed[row, index]
        p = np.maximum(peak_height_right_cdf(gamma_moments, heights), np.finfo(float).tiny)
        for method in config.methods:
            _, rejected = reject_rows(method, p, sizes, config.alpha)
            rc = _tally(lo, hi, rejected, bounds, regions)
            counts.append(np.column_stack(list(vars(rc).values())))
    shape = (rows, len(kernels), len(config.methods), -1)
    return np.stack(counts, axis=1).reshape(shape)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _sample_se(x: np.ndarray) -> float:
    if x.size < 2:
        return 0.0
    return float(x.std(ddof=1) / math.sqrt(x.size))


def run_simulation(config: SimConfig) -> SimReport:
    """Run the full study and reduce to per-(gamma, method) estimates.

    Replications are independent and run in blocks of rows: at least
    one block per worker, each of at most ``_BLOCK_SAMPLES`` samples
    (rows times grid length), so memory stays bounded at any replication
    count. The blocks go to ``min(config.workers, blocks, usable CPUs)``
    processes, never more than can run. Per-replication results are
    reassembled in replication order before reduction, so the report
    does not depend on the block split or the worker count.
    """
    n = config.replications
    rows = max(1, _BLOCK_SAMPLES // config.grid.length)
    workers = min(config.workers, _usable_cpus())
    k = min(n, max(workers, -(-n // rows)))
    tasks = [(config, n * i // k, n * (i + 1) // k) for i in range(k)]
    if workers > 1 and k > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, k)) as pool:
            blocks = list(pool.map(_run_block, tasks))
    else:
        blocks = list(map(_run_block, tasks))
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
    signal_fraction: float = 0.12,
    spacing: float = 1.0,
    **study,
) -> SimConfig:
    """Equally spaced, equal-amplitude peak train on a window sized to
    keep the signal fraction fixed.

    Peak ``j`` sits at ``peak_spacing * (j + 1/2)``. The window length
    is ``|union of supports| / signal_fraction``, so shrinking
    ``peak_spacing`` into the overlapping regime shrinks the window
    with it, preserving the null/signal balance. Other keywords go to
    :class:`SimConfig`, which refuses unknown ones and layout fields.
    The sizes the window is computed from are checked first, by name.
    """
    num_peaks = _whole(num_peaks, "num_peaks", 1)
    for name, value in (("peak_spacing", peak_spacing), ("peak_scale", peak_scale),
                        ("peak_truncation", peak_truncation), ("spacing", spacing)):
        _positive(value, name)
    if not 0 < signal_fraction <= 1:
        raise ValueError("signal_fraction must lie in (0, 1]")
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
        gammas=gammas,
        **study,
    )


# ---------------------------------------------------------------------------
# Bandwidth selection


def optimal_gamma(peak_scale: float, nu: float) -> float:
    """Bandwidth maximizing the matched-filter objective.

    ``sqrt(peak_scale^2 - 2 nu^2)`` when that is real, else 0: for
    strongly autocorrelated noise no extra smoothing helps.
    """
    _positive(peak_scale, "peak scale")
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
