"""Truth regions, error/power accounting, and the simulation harness.

A detected maximum is a true positive only if it falls inside the
support of some true peak; rejections in the transition zone (where
smoothing smears signal beyond the support) count as false. When peak
supports overlap, credit is assigned by splitting the overlap at its
midpoint, so the per-peak rejection regions tile the signal region
with no gaps or double cover.

The harness replays the detection pipeline over many noise draws on a
padded grid (margin ``4 (nu + max gamma)`` samples each side, cropped
after smoothing so the analysis window is free of boundary effects)
and reports familywise error rate, false discovery rate, power, and
the probability that one true peak carries more than one candidate
maximum.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .detector import DetectionResult
from .maxima import local_max_indices
from .model import NoiseSpec, SignalSpec, synthesize_noise, synthesize_signal
from .mtp import bh, bonferroni
from .nulldist import (
    GaussianModelParams,
    gaussian_model_moments,
    peak_height_right_cdf,
)
from .series import Grid
from .smoothing import DEFAULT_KERNEL_TRUNCATION, make_gaussian_kernel

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

_METHODS = {"bonferroni": bonferroni, "bh": bh}

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
    if intervals.shape[0] == 0:
        return intervals.reshape(0, 2)
    order = np.argsort(intervals[:, 0], kind="stable")
    merged = [list(intervals[order[0]])]
    for lo, hi in intervals[order[1:]]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return np.array(merged)


def _complement(intervals: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    lo, hi = window
    out = []
    cursor = lo
    for a, b in intervals:
        if a > cursor:
            out.append([cursor, a])
        cursor = max(cursor, b)
    if cursor < hi:
        out.append([cursor, hi])
    return np.array(out).reshape(-1, 2)


def _clip_intervals(intervals: list, window: tuple[float, float]) -> np.ndarray:
    lo, hi = window
    kept = []
    for a, b in intervals:
        a, b = max(a, lo), min(b, hi)
        if a <= b:
            kept.append([a, b])
    return np.array(kept).reshape(-1, 2)


def truth_regions(
    signal: SignalSpec,
    gamma: float,
    kernel_truncation: float = DEFAULT_KERNEL_TRUNCATION,
    window: tuple[float, float] = (0.0, 1.0),
) -> TruthRegions:
    """Build the truth regions for ``signal`` smoothed at ``gamma``.

    ``gamma`` may be 0 (no expansion). Peaks whose support misses the
    window entirely are dropped.
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
    supports = _clip_intervals([[t - half, t + half] for t in taus], window)
    expanded = _clip_intervals([[t - spill, t + spill] for t in taus], window)
    signal_region = _merge_intervals(supports.copy())
    signal_expanded = _merge_intervals(expanded.copy())
    # Per-peak credit: clip each support at the midpoints to its neighbors.
    rejection = []
    for j, t in enumerate(taus):
        a = t - half if j == 0 else max(t - half, 0.5 * (taus[j - 1] + t))
        b = t + half if j == len(taus) - 1 else min(t + half, 0.5 * (t + taus[j + 1]))
        rejection.append([a, b])
    rejection = _clip_intervals(rejection, window)
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


def _in_union(times: np.ndarray, intervals: np.ndarray) -> np.ndarray:
    hit = np.zeros(times.size, dtype=bool)
    for a, b in intervals:
        hit |= (times >= a) & (times <= b)
    return hit


def _classify_arrays(
    times: np.ndarray, rejected: np.ndarray, regions: TruthRegions
) -> RunCounts:
    in_signal = _in_union(times, regions.signal_region)
    num_signal = int(np.count_nonzero(in_signal))
    r = int(np.count_nonzero(rejected))
    w = int(np.count_nonzero(rejected & in_signal))
    detected = 0
    multi = 0
    for (a, b), (sa, sb) in zip(regions.rejection_regions, regions.peak_supports):
        inside = (times >= a) & (times <= b)
        if np.any(inside & rejected):
            detected += 1
        if np.count_nonzero((times >= sa) & (times <= sb)) > 1:
            multi += 1
    return RunCounts(
        false_rejections=r - w,
        true_rejections=w,
        rejections=r,
        detected_peaks=detected,
        num_tests=int(times.size),
        num_null_tests=int(times.size) - num_signal,
        num_signal_tests=num_signal,
        multi_max_peaks=multi,
        num_peaks=regions.num_peaks,
    )


def classify(result: DetectionResult, regions: TruthRegions) -> RunCounts:
    """Score a detection result against known truth regions."""
    candidates = result.candidates
    return _classify_arrays(candidates.time, candidates.rejected, regions)


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
    moments = [
        gaussian_model_moments(
            GaussianModelParams(config.noise.sigma, config.noise.nu, g)
        )
        for g in config.gammas
    ]
    regions = [
        truth_regions(config.signal, g, config.kernel_truncation, window)
        for g in config.gammas
    ]
    return margin, padded, signal_values, kernels, moments, regions


def _run_block(task):
    """Replications [start, stop) of one study; returns per-rep arrays."""
    config, start, stop = task
    margin, padded, signal_values, kernels, moments, regions = _sim_context(config)
    grid = config.grid
    delta = grid.spacing
    length = grid.length
    gammas, methods = config.gammas, config.methods
    n, num_g, num_m = stop - start, len(gammas), len(methods)
    any_false = np.zeros((n, num_g, num_m))
    fdp = np.zeros((n, num_g, num_m))
    power = np.zeros((n, num_g, num_m))
    multi = np.zeros((n, num_g))
    counts = np.zeros((n, num_g, num_m, 4))
    tiny = np.finfo(float).tiny
    for row, rep in enumerate(range(start, stop)):
        seed = replication_seed(config.base_seed, rep)
        noise_values = synthesize_noise(config.noise, padded, seed).values
        raw = signal_values + noise_values
        for gi in range(num_g):
            smoothed = (
                np.convolve(raw, kernels[gi].weights, mode="same")[
                    margin : margin + length
                ]
                * delta
            )
            idx = local_max_indices(smoothed)
            times = grid.origin + delta * idx
            p = np.maximum(
                peak_height_right_cdf(moments[gi], smoothed[idx]), tiny
            )
            for mi, method in enumerate(methods):
                decision = _METHODS[method](p, config.alpha)
                mask = np.zeros(idx.size, dtype=bool)
                if decision.rejected_indices:
                    mask[list(decision.rejected_indices)] = True
                rc = _classify_arrays(times, mask, regions[gi])
                any_false[row, gi, mi] = 1.0 if rc.false_rejections > 0 else 0.0
                fdp[row, gi, mi] = rc.false_rejections / max(rc.rejections, 1)
                power[row, gi, mi] = rc.detected_peaks / max(rc.num_peaks, 1)
                counts[row, gi, mi] = (
                    rc.num_tests,
                    rc.rejections,
                    rc.false_rejections,
                    rc.true_rejections,
                )
            rc0 = _classify_arrays(times, np.zeros(idx.size, bool), regions[gi])
            multi[row, gi] = rc0.multi_max_peaks / max(rc0.num_peaks, 1)
    return any_false, fdp, power, multi, counts


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
    any_false, fdp, power, multi, counts = (
        np.concatenate(parts) for parts in zip(*blocks)
    )
    cells = []
    for gi, gamma in enumerate(config.gammas):
        for mi, method in enumerate(config.methods):
            fwer = float(any_false[:, gi, mi].mean())
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
                    multi_max_prob=float(multi[:, gi].mean()),
                    multi_max_se=_sample_se(multi[:, gi]),
                    mean_tests=float(counts[:, gi, mi, 0].mean()),
                    mean_rejections=float(counts[:, gi, mi, 1].mean()),
                    mean_false_rejections=float(counts[:, gi, mi, 2].mean()),
                    mean_true_rejections=float(counts[:, gi, mi, 3].mean()),
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
    if not (np.isfinite(gamma) and gamma > 0):
        raise ValueError("gamma must be positive")
    params = GaussianModelParams(sigma=sigma, nu=nu, gamma=gamma)
    height = 1.0 / math.sqrt(2.0 * math.pi * (peak_scale**2 + gamma**2))
    return height / math.sqrt(gaussian_model_moments(params).sigma2)
