"""Property and differential tests for the columnar candidate path.

``hypothesis`` drives the maxima search against a brute-force loop, and
seeded runs check the candidate columns of ``detect`` against the
per-candidate definition they replace: one row per maximum, its p-value
from the scalar height cdf, its flag from the decision's rejected
indices. Truth accounting is checked against a per-peak loop
over the intervals, one row at a time and as the harness's block of
rows; the block rejection rule is checked row by row against the
one-family Bonferroni and BH it replaced, and BH also against the
textbook step-up loop. The height cdf and the smoother are checked
against their defining properties; the smoother is also checked
against its two-convolution definition. The smoother and the maxima
search on a block of rows are checked against one-row calls. The
synthetic signal, alone and in the harness, is checked to land on
exactly the samples that the tally's closed intervals hold.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from peaksig import (
    Candidates,
    DetectionResult,
    DetectorConfig,
    ESTIMATORS,
    Grid,
    InvalidMomentsError,
    RunCounts,
    NoiseSpec,
    SampledSeries,
    SignalSpec,
    classify,
    convolve,
    detect,
    find_local_maxima,
    load_series,
    local_max_indices,
    make_gaussian_kernel,
    peak_height_right_cdf,
    peak_height_right_cdf_inverse,
    standard_design,
    synthesize_noise,
    synthesize_signal,
    truth_regions,
)
from peaksig import evaluation, series
from peaksig.evaluation import _endpoints, _positions, _tally
from peaksig.io import _read_plain_lines
from peaksig.mtp import MtpDecision, _height_threshold, bh, bonferroni, reject_rows
from peaksig.nulldist import SpectralMoments
from peaksig.smoothing import _FFT_MIN_TAPS

# Small integer levels make plateaus and ties common.
levels = st.lists(st.integers(-3, 3), min_size=3, max_size=60)


def brute_force_maxima(v) -> list[int]:
    """Midpoints of maximal constant runs strictly above both flanks."""
    out = []
    start = 0
    for i in range(1, len(v) + 1):
        if i == len(v) or v[i] != v[start]:
            end = i - 1
            interior = start > 0 and end < len(v) - 1
            if interior and v[start] > v[start - 1] and v[end] > v[end + 1]:
                out.append((start + end) // 2)
            start = i
    return out


@given(levels)
def test_local_max_indices_matches_brute_force(values):
    v = np.array(values, dtype=float)
    assert local_max_indices(v).tolist() == brute_force_maxima(values)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.integers(3, 12), st.data())
def test_local_max_indices_rows_equal_one_row_calls(rows, n, data):
    # Small levels make plateaus that touch row ends and equal values that
    # straddle a row boundary; distinct values take the no-tie path.
    size = rows * n
    if data.draw(st.booleans()):
        flat = data.draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
    else:
        flat = data.draw(st.permutations(range(size)))
    v = np.array(flat, dtype=float).reshape(rows, n)
    want = [r * n + i for r in range(rows) for i in local_max_indices(v[r]).tolist()]
    assert local_max_indices(v).tolist() == want
    assert want == [
        r * n + i for r in range(rows) for i in brute_force_maxima(flat[r * n : (r + 1) * n])
    ]


def test_local_max_indices_plateau_never_spans_rows():
    # Rows 0 and 1 join into a plateau above 1.0 on both sides if read as
    # one series; each row's half touches its row end, so neither counts.
    v = np.array([[0.0, 1.0, 2.0, 2.0], [2.0, 2.0, 1.0, 0.0], [0.0, 3.0, 3.0, 0.0]])
    assert local_max_indices(v).tolist() == [9]


@given(levels, st.integers(0, 8), st.floats(0.25, 4.0), st.floats(-50.0, 50.0))
def test_find_local_maxima_columns(values, boundary, spacing, origin):
    v = np.array(values, dtype=float)
    found = find_local_maxima(SampledSeries(v, spacing, origin, boundary=boundary))
    last = len(values) - 1 - boundary
    want = [i for i in brute_force_maxima(values) if boundary <= i <= last]
    assert found.index.tolist() == want
    assert len(found) == len(want)
    assert found.time.tolist() == [origin + spacing * i for i in want]
    assert found.height.tolist() == [float(values[i]) for i in want]
    assert found.p_value is None and found.rejected is None


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-1e12, 1e12), min_size=1, max_size=40), st.data())
def test_plain_loader_fast_path_matches_line_reader(tmp_path_factory, values, data):
    # Blank lines and padding; the fast path and the line reader agree bit for bit.
    lines = []
    for v in values:
        pad = data.draw(st.sampled_from(["", " ", "\t"]))
        lines.append(f"{pad}{v!r}{pad}\n")
        if data.draw(st.booleans()):
            lines.append("\n")
    path = tmp_path_factory.mktemp("plain") / "x.txt"
    path.write_text("".join(lines), encoding="utf-8")
    loaded = load_series(path).values
    assert loaded.tobytes() == np.array(values, dtype=float).tobytes()
    assert loaded.tobytes() == _read_plain_lines(path).tobytes()


SIGNAL = SignalSpec(
    peaks=((25.0, 150.0), (30.0, 400.0), (20.0, 405.0), (40.0, 900.0)),
    peak_scale=3.0,
)


def seeded_series(seed: int) -> SampledSeries:
    noise = synthesize_noise(NoiseSpec(), Grid(1200), seed=seed)
    return SampledSeries(synthesize_signal(SIGNAL, Grid(1200)).values + noise.values)


def per_candidate_rows(series: SampledSeries, config: DetectorConfig, result):
    """The candidates as the per-object pipeline defined them: one
    ``(index, time, height, p_value, rejected)`` tuple per maximum."""
    values = series.values - series.values.mean()
    kernel = make_gaussian_kernel(config.gamma, config.kernel_truncation, series.spacing)
    smoothed = convolve(values, kernel)
    b = kernel.half_width
    idx = [i for i in local_max_indices(smoothed).tolist() if b <= i < smoothed.size - b]
    rejected = set(result.decision.rejected_indices)
    tiny = np.finfo(float).tiny
    rows = []
    for k, i in enumerate(idx):
        height = float(smoothed[i])
        p = max(float(peak_height_right_cdf(result.moments_used, height)), tiny)
        time = series.origin + series.spacing * i
        rows.append((i, time, height, p, k in rejected))
    return rows


@pytest.mark.parametrize("method", ["bh", "bonferroni"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_detect_columns_match_per_candidate_definition(seed, method):
    series = seeded_series(seed)
    config = DetectorConfig(gamma=3.0, method=method, moments_source=NoiseSpec())
    result = detect(series, config)
    rows = per_candidate_rows(series, config, result)
    assert result.decision.num_tests == len(rows) > 0
    assert any(row[4] for row in rows)
    c = result.candidates
    columns = (c.index, c.time, c.height, c.p_value, c.rejected)
    assert list(zip(*(col.tolist() for col in columns))) == rows
    assert [col.dtype for col in columns] == [np.int64] + [np.float64] * 3 + [np.bool_]
    assert np.flatnonzero(c.rejected).tolist() == sorted(result.decision.rejected_indices)


def detect_outcome(series: SampledSeries, config: DetectorConfig):
    """Heights, p-values and rejections of ``detect``, or ``None`` if the
    moments are refused; a ``RuntimeWarning`` is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            c = detect(series, config).candidates
        except InvalidMomentsError:
            return None
    return c.height, c.p_value, c.rejected


def assert_same_bits(got, want):
    assert (got is None) == (want is None)
    for a, b in zip(got or (), want or ()):
        assert a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**20),
    st.integers(-400, 400),
    st.sampled_from([*ESTIMATORS, "model"]),
    st.floats(0.5, 2.0),
)
def test_detect_exact_under_power_of_two_data_scaling(seed, k, source, sigma):
    # Every stage scales exactly by 2^k, and the height law depends on the
    # moments only through u / sigma and kappa: the p-values keep their bits.
    series = seeded_series(seed)

    def config(scale):
        src = NoiseSpec(sigma=scale * sigma) if source == "model" else source
        return DetectorConfig(gamma=3.0, moments_source=src)

    base = detect_outcome(series, config(1.0))
    scaled = dataclasses.replace(series, values=np.ldexp(series.values, k))
    got = detect_outcome(scaled, config(math.ldexp(1.0, k)))
    assert_same_bits(got, base and (np.ldexp(base[0], k), *base[1:]))


def time_scaled(source, k: int):
    """The moment source and spacing for a time axis scaled by 2^k. The model's
    noise level goes to 2^(k/2), which keeps the smoothed variance, so ``k`` is
    taken even there."""
    if source == "model":
        k -= k % 2
        source = NoiseSpec(sigma=math.ldexp(1.0, k // 2))
    return source, math.ldexp(1.0, k)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**20),
    st.integers(-40, 40),
    st.floats(-1e6, 1e6),
    st.floats(1.5, 10.0),
    st.sampled_from([*ESTIMATORS, "model"]),
)
def test_detect_exact_under_power_of_two_time_scaling_and_shift(seed, k, origin, gamma, source):
    series = seeded_series(seed)
    base = detect_outcome(series, DetectorConfig(gamma, moments_source=time_scaled(source, 0)[0]))
    src, step = time_scaled(source, k)
    moved = SampledSeries(series.values, spacing=step, origin=origin)
    got = detect_outcome(moved, DetectorConfig(gamma * step, moments_source=src))
    assert_same_bits(got, base)


def outcome_or_refused(series: SampledSeries, gamma: float, source):
    """``detect_outcome`` at bandwidth ``gamma``, or ``None`` where the model
    moments or the smoothing leave the float range and are refused by name."""
    refusals = (
        "put the model moments outside the float range",
        "takes the series past the float range",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return detect_outcome(series, DetectorConfig(gamma=gamma, moments_source=source))
        except ValueError as exc:
            assert str(exc).endswith(refusals)
            return None


# Units never change the answer silently. Past the range of the two tests
# above a moment is subnormal or overflows: the run must then be refused,
# not give other bits. At 2^-532, 2^-520 and 2^-510 the data are normal but
# sigma2 is near or below the smallest normal float; at a time scale of
# 2^254 and beyond, lambda4 is. At 2^-506 (time scale 2^253) the moments
# are normal, but some squared deviations that var sums are not.
@pytest.mark.parametrize("source", [*ESTIMATORS, "model"])
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**20), k=st.integers(-1074, 1023))
@example(seed=0, k=-532)
@example(seed=0, k=-520)
@example(seed=0, k=-510)
@example(seed=4, k=-506)
def test_detect_exact_or_refused_under_any_data_scaling(source, seed, k):
    series = seeded_series(seed)
    # Every k that keeps the scaled data normal floats.
    big, small = (math.frexp(f(np.abs(series.values)))[1] for f in (np.max, np.min))
    assume(-1021 - small <= k <= 1024 - big)

    def outcome(values, k):
        src = NoiseSpec(sigma=math.ldexp(1.0, k)) if source == "model" else source
        return outcome_or_refused(dataclasses.replace(series, values=values), 3.0, src)

    base = outcome(series.values, 0)
    got = outcome(np.ldexp(series.values, k), k)
    if got is not None:
        assert_same_bits(got, (np.ldexp(base[0], k), *base[1:]))


# At a time scale of 2^-210 the model's xi^5 is subnormal and is refused.
@pytest.mark.parametrize("source", [*ESTIMATORS, "model"])
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**20), k=st.integers(-1022, 1012), gamma=st.floats(1.5, 10.0))
@example(seed=0, k=254, gamma=3.0)
@example(seed=0, k=256, gamma=3.0)
@example(seed=0, k=260, gamma=3.0)
@example(seed=4, k=253, gamma=3.0)
@example(seed=0, k=-210, gamma=3.0)
def test_detect_exact_or_refused_under_any_time_scaling(source, seed, k, gamma):
    series = seeded_series(seed)
    base = outcome_or_refused(series, gamma, time_scaled(source, 0)[0])
    src, step = time_scaled(source, k)
    got = outcome_or_refused(SampledSeries(series.values, spacing=step), gamma * step, src)
    if got is not None:
        assert_same_bits(got, base)


def with_candidates(result, candidates: Candidates) -> DetectionResult:
    return dataclasses.replace(result, candidates=candidates)


def in_union(times: np.ndarray, intervals: np.ndarray) -> np.ndarray:
    hit = np.zeros(times.size, dtype=bool)
    for a, b in intervals:
        hit |= (times >= a) & (times <= b)
    return hit


def classify_reference(times, rejected, regions) -> RunCounts:
    """Truth accounting by definition: one mask per interval, one loop
    over the peaks; candidates in any order."""
    times = np.asarray(times, dtype=float)
    rejected = np.asarray(rejected, dtype=bool)
    in_signal = in_union(times, regions.signal_region)
    num_signal = int(np.count_nonzero(in_signal))
    r = int(np.count_nonzero(rejected))
    w = int(np.count_nonzero(rejected & in_signal))
    detected = 0
    multi = 0
    assert regions.rejection_regions.shape == regions.peak_supports.shape
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


def tally_block(rows, regions) -> list[RunCounts]:
    """The block tally over rows of (time, rejected) pairs, each row's
    interval positions offset by the row's start in the block."""
    rows = [sorted(row, key=lambda pair: pair[0]) for row in rows]
    bounds = np.concatenate(([0], np.cumsum([len(row) for row in rows])))
    ends = _endpoints(regions)
    times = [np.array([t for t, _ in row], dtype=float) for row in rows]
    lo, hi = map(np.array, zip(*(_positions(t, ends) for t in times)))
    rejected = np.array([r for row in rows for _, r in row], dtype=bool)
    start = bounds[:-1, None]
    counts = _tally(lo + start, hi + start, rejected, bounds, regions)
    fields = list(vars(counts).values())
    return [RunCounts(*(int(v[i]) for v in fields)) for i in range(len(rows))]


def classify_rows(rows, regions):
    """``classify`` as it read per-candidate ``(time, rejected)`` rows."""
    times = np.array([t for t, _ in rows], dtype=float)
    rejected = np.array([bool(r) for _, r in rows], dtype=bool)
    return classify_reference(times, rejected, regions)


def pairs_table(pairs) -> Candidates:
    """Candidates holding ``(time, rejected)`` pairs in the order given,
    sorted by time or not."""
    n = len(pairs)
    return Candidates(
        index=np.arange(n),
        time=[t for t, _ in pairs],
        height=np.zeros(n),
        p_value=np.full(n, 0.5),
        rejected=[r for _, r in pairs],
    )


REGIONS = truth_regions(SIGNAL, (0.0, 1199.0))
BASE = detect(seeded_series(7), DetectorConfig(gamma=3.0, moments_source=NoiseSpec()))


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_classify_columns_equals_rows(seed):
    config = DetectorConfig(gamma=3.0, method="bh", moments_source=NoiseSpec())
    result = detect(seeded_series(seed), config)
    c = result.candidates
    counts = classify(result, REGIONS)
    assert counts == classify_rows(list(zip(c.time.tolist(), c.rejected.tolist())), REGIONS)
    assert counts.true_rejections > 0


@given(st.lists(st.tuples(st.floats(-10.0, 1210.0), st.booleans()), max_size=30))
def test_classify_columns_equals_rows_on_arbitrary_candidates(pairs):
    pairs = sorted(pairs)
    columns = with_candidates(BASE, pairs_table(pairs))
    assert classify(columns, REGIONS) == classify_rows(pairs, REGIONS)


# Layouts on a (0, 60) window with centers off both ends, so that
# supports overlap, peaks are clipped and some drop out; integer centers
# put credit midpoints on the half-integer grid the times also use.
layouts = st.tuples(
    st.lists(st.integers(-12, 72), max_size=6),
    st.sampled_from([1.0, 2.5, 3.0]),
)


@settings(max_examples=300, deadline=None)
@given(layouts, st.data())
def test_classify_matches_per_peak_loop(layout, data):
    taus, scale = layout
    spec = SignalSpec(peaks=tuple((1.0, float(t)) for t in taus), peak_scale=scale)
    regions = truth_regions(spec, (0.0, 60.0))
    assert regions.rejection_regions.shape == regions.peak_supports.shape
    per_peak = (regions.rejection_regions, regions.peak_supports)
    endpoints = sorted({float(v) for arr in per_peak for v in arr.flat})
    # Times on interval endpoints and credit midpoints, on the half grid, or anywhere.
    time = st.one_of(
        st.sampled_from(endpoints or [0.0]),
        st.integers(-10, 140).map(lambda k: 0.5 * k),
        st.floats(-5.0, 65.0),
    )
    # A block of rows, some empty, tallied together as the harness does.
    candidates = st.lists(st.tuples(time, st.booleans()), max_size=25)
    block = data.draw(st.lists(candidates, min_size=1, max_size=4))
    assert tally_block(block, regions) == [
        classify_reference([t for t, _ in row], [r for _, r in row], regions)
        for row in block
    ]
    pairs = block[0]
    want = classify_reference([t for t, _ in pairs], [r for _, r in pairs], regions)
    # Unsorted candidates through the public entry point.
    assert classify(with_candidates(BASE, pairs_table(pairs)), regions) == want


# Grids whose times are not exact in binary, with supports whose edges
# fall on, near or between the grid times.
odd_spacings = st.sampled_from([0.1, 1.0 / 3.0, 0.7])
steps = st.sampled_from([1.0 / 3.0, 0.5, 1.0, 2.0, 3.0])


@settings(max_examples=300, deadline=None)
@given(
    odd_spacings,
    st.integers(-40, 40).map(lambda k: k / 3.0),
    st.lists(st.tuples(st.integers(-5, 65), st.sampled_from([0.0, 0.5, 1.0 / 3.0])),
             min_size=1, max_size=4),
    steps,
    st.sampled_from([1.0, 2.0, 2.5]),
)
def test_signal_lands_exactly_on_closed_supports(spacing, shift, centers, scale, truncation):
    grid = Grid(60, spacing, shift * spacing)
    taus = [grid.origin + (k + f) * spacing for k, f in centers]
    # Amplitudes large enough that no in-support sample underflows.
    spec = SignalSpec(tuple((10.0, tau) for tau in taus), scale * spacing, truncation)
    half = spec.support_half_width
    supports = np.array([[tau - half for tau in taus], [tau + half for tau in taus]])
    want = np.zeros(grid.length, dtype=bool)
    for lo, hi in zip(*series._positions(grid.times(), supports)):
        want[lo:hi] = True
    assert np.array_equal(synthesize_signal(spec, grid).values != 0, want)


@settings(max_examples=60, deadline=None)
@given(odd_spacings, st.integers(1, 3), steps, st.integers(3, 48))
def test_harness_signal_lands_exactly_on_support_cuts(spacing, peaks, scale, sixths):
    # Peaks 1/2 to 8 support widths apart, so the window holds them all.
    width = 4.0 * scale * spacing
    config = standard_design(
        num_peaks=peaks, peak_spacing=width * sixths / 6.0, peak_scale=scale * spacing,
        spacing=spacing, gammas=(0.5 * spacing,),
    )
    margin, _, signal, _, _, regions, cuts = evaluation._sim_context(config)
    want = np.zeros(config.grid.length, dtype=bool)
    for lo, last in cuts[:, -regions.num_peaks :].T:
        want[lo : last + 1] = True
    assert np.array_equal(signal[margin : margin + config.grid.length] != 0, want)


# Moments at scale sigma (height) and ell (time), with irregularity
# kappa = lambda4 sigma2 / lambda2^2 > 1, over several decades of both.
moment_scales = st.tuples(
    st.floats(-4.0, 4.0).map(lambda e: 10.0**e),
    st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    st.floats(1.1, 50.0),
)


@settings(max_examples=200, deadline=None)
@given(moment_scales, st.floats(-2.0, 30.0))
def test_height_cdf_inverse_round_trip(scales, z):
    sigma, ell, kappa = scales
    m = SpectralMoments(sigma**2, sigma**2 / ell**2, kappa * sigma**2 / ell**4)
    u = z * sigma
    p = peak_height_right_cdf(m, u)
    # The inverse stops on |F(u) - p| <= 1e-12 and a 1e-6 log-space gap,
    # which pins u down to tail p-values of ~1e-196 (z = 30); near
    # p = 1 the cdf is too flat for the absolute stop to pin it.
    assume(p < 1.0 - 1e-6)
    assert abs(peak_height_right_cdf_inverse(m, p) - u) <= 1e-6 * sigma


# Constant levels: zero, or normal magnitudes of either sign over 12 decades.
magnitudes = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)
levels_12 = st.just(0.0) | magnitudes | magnitudes.map(lambda v: -v)


@settings(max_examples=100, deadline=None)
@given(
    levels_12,
    st.floats(0.05, 20.0),
    st.floats(0.1, 40.0),
    st.floats(1.0, 5.0),
    st.integers(0, 300),
)
def test_convolve_reproduces_constants(level, spacing, gamma_in_steps, truncation, extra):
    kernel = make_gaussian_kernel(gamma_in_steps * spacing, truncation, spacing)
    n = kernel.weights.size + extra
    out = convolve(np.full(n, level), kernel)
    assert out.shape == (n,)
    np.testing.assert_allclose(out, level, rtol=1e-12, atol=0.0)


def convolve_reference(values: np.ndarray, kernel) -> np.ndarray:
    """The smoother by definition: full-length direct convolution over
    the in-range kernel mass at every sample."""
    numer = np.convolve(values, kernel.weights, mode="same")
    denom = np.convolve(np.ones(values.size), kernel.weights, mode="same")
    return numer / denom


def kernel_with_half_width(half: int, truncation: float, spacing: float):
    # Half a step past ``half``, so the floor in make_gaussian_kernel lands on it.
    return make_gaussian_kernel((half + 0.5) * spacing / truncation, truncation, spacing)


truncations = st.floats(1.0, 5.0)
spacings = st.floats(0.05, 20.0)
scaled_noise = st.tuples(st.integers(0, 2**32 - 1), magnitudes, levels_12)


def noise(n: int, params) -> np.ndarray:
    seed, scale, offset = params
    return offset + scale * np.random.default_rng(seed).standard_normal(n)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, (_FFT_MIN_TAPS - 2) // 2),
    truncations,
    spacings,
    st.integers(0, 400),
    scaled_noise,
)
def test_convolve_direct_path_matches_definition_bitwise(
    half, truncation, spacing, extra, params
):
    kernel = kernel_with_half_width(half, truncation, spacing)
    assert kernel.half_width == half and kernel.weights.size < _FFT_MIN_TAPS
    x = noise(kernel.weights.size + extra, params)
    got = convolve(x, kernel)
    assert got.tobytes() == convolve_reference(x, kernel).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    st.integers(_FFT_MIN_TAPS // 2, 250),
    truncations,
    spacings,
    scaled_noise,
    st.data(),
)
def test_convolve_fft_path_matches_definition(half, truncation, spacing, params, data):
    kernel = kernel_with_half_width(half, truncation, spacing)
    taps = kernel.weights.size
    assert kernel.half_width == half and taps >= _FFT_MIN_TAPS
    # The FFT adds up blocks of ``step`` samples; cover one block that
    # is the kernel itself, a last block of one sample, and several blocks.
    step = (1 << (8 * taps - 1).bit_length()) - taps + 1
    n = data.draw(
        st.sampled_from([taps, step, step + 1, 2 * step + 1, 3 * step + 1])
        | st.integers(taps, 3 * step + taps)
    )
    x = noise(n, params)
    # Sometimes a constant stretch, which the tie repair sets exactly.
    start = data.draw(st.integers(0, n - 1))
    x[start : start + data.draw(st.integers(0, 3 * taps))] = x[start]
    got = convolve(x, kernel)
    want = convolve_reference(x, kernel)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(x))


def test_convolve_fft_path_keeps_flat_window_ties():
    # A clipped stretch and a zero-filled gap, both longer than a kernel
    # on the FFT path: their smoothed values must tie exactly, as the
    # direct sum makes them, or each plateau splits into spurious maxima.
    rng = np.random.default_rng(12)
    x = rng.standard_normal(40_000)
    x[8_000:12_000] += 10.0
    x = np.minimum(x, 2.5)
    x[25_000:25_600] = 0.0
    kernel = make_gaussian_kernel(30.0)
    assert kernel.weights.size >= _FFT_MIN_TAPS
    got = find_local_maxima(SampledSeries(convolve(x, kernel), boundary=kernel.half_width))
    want = find_local_maxima(
        SampledSeries(convolve_reference(x, kernel), boundary=kernel.half_width)
    )
    assert got.index.tolist() == want.index.tolist()


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, (_FFT_MIN_TAPS - 2) // 2) | st.integers(_FFT_MIN_TAPS // 2, 130),
    truncations,
    spacings,
    st.integers(1, 4),
    st.data(),
)
def test_convolve_rows_equal_one_row_calls_bitwise(half, truncation, spacing, rows, data):
    # Narrow (direct) and wide (FFT) kernels, with constant stretches that
    # the FFT path's tie repair sets exactly.
    kernel = kernel_with_half_width(half, truncation, spacing)
    taps = kernel.weights.size
    n = taps + data.draw(st.integers(0, 600))
    x = np.stack([noise(n, data.draw(scaled_noise)) for _ in range(rows)])
    for row in x:
        start = data.draw(st.integers(0, n - 1))
        row[start : start + data.draw(st.integers(0, 3 * taps))] = row[start]
    got = convolve(x, kernel)
    assert got.shape == x.shape
    for r in range(rows):
        assert got[r].tobytes() == convolve(x[r], kernel).tobytes()


def bonferroni_reference(p_values, alpha, moments=None) -> MtpDecision:
    """Bonferroni on one family, as it read before the block rule."""
    p = np.asarray(p_values, dtype=float)
    m = p.size
    if m == 0:
        threshold = math.inf
        rejected: tuple[int, ...] = ()
    else:
        threshold = alpha / m
        rejected = tuple(int(i) for i in np.flatnonzero(p < threshold))
    return MtpDecision(
        method="bonferroni",
        alpha=alpha,
        num_tests=m,
        p_threshold=threshold,
        height_threshold=_height_threshold(moments, threshold),
        rejected_indices=rejected,
    )


def bh_reference(p_values, alpha, moments=None) -> MtpDecision:
    """Benjamini-Hochberg on one family, as it read before the block rule."""
    p = np.asarray(p_values, dtype=float)
    m = p.size
    if m == 0:
        return MtpDecision(
            method="bh",
            alpha=alpha,
            num_tests=0,
            p_threshold=math.inf,
            height_threshold=_height_threshold(moments, math.inf),
            rejected_indices=(),
        )
    order = np.argsort(p, kind="stable")
    passed = np.flatnonzero(p[order] <= alpha * np.arange(1, m + 1) / m)
    if passed.size == 0:
        k = 0
        threshold = 0.0
        rejected: tuple[int, ...] = ()
    else:
        k = int(passed[-1]) + 1
        threshold = alpha * k / m
        rejected = tuple(int(i) for i in order[:k])
    return MtpDecision(
        method="bh",
        alpha=alpha,
        num_tests=m,
        p_threshold=threshold,
        height_threshold=_height_threshold(moments, threshold),
        rejected_indices=rejected,
    )


REFERENCES = {"bonferroni": bonferroni_reference, "bh": bh_reference}
TINY = np.finfo(float).tiny

# A few shared values make ties common; 1 and the floor are the ends of (0, 1].
pvalues = st.one_of(
    st.sampled_from([TINY, 1e-300, 1e-4, 0.0025, 0.01, 0.02, 0.5, 1.0]),
    st.floats(TINY, 1.0),
)
alphas = st.sampled_from([0.05, 0.1, 0.2]) | st.floats(1e-6, 0.999)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(REFERENCES)),
    st.lists(st.lists(pvalues, max_size=30), max_size=6),
    alphas,
)
def test_block_rule_matches_reference_per_row(method, rows, alpha):
    sizes = [len(row) for row in rows]
    p = np.array([v for row in rows for v in row], dtype=float)
    threshold, mask = reject_rows(method, p, sizes, alpha)
    assert threshold.shape == (len(rows),) and mask.shape == p.shape
    start = 0
    for r, row in enumerate(rows):
        want = REFERENCES[method](row, alpha)
        assert threshold[r] == want.p_threshold
        got = np.flatnonzero(mask[start : start + len(row)]).tolist()
        assert got == sorted(want.rejected_indices)
        start += len(row)


def step_up_loop(row, alpha):
    """BH on one row by the textbook loop: the largest i with p_(i) <= i alpha / m."""
    m = len(row)
    if m == 0:
        return math.inf, [False] * m
    ordered = sorted(row)
    k = 0
    for i in range(m, 0, -1):
        if ordered[i - 1] <= alpha * i / m:
            k = i
            break
    threshold = alpha * k / m
    return threshold, [v <= threshold for v in row]


# Rows drawn from few values tie often; rows of tiny values are all rejected.
bh_rows = st.lists(
    st.lists(pvalues, max_size=25)
    | st.lists(st.sampled_from([1e-4, 0.01, 0.02, 1.0]), max_size=25)
    | st.lists(st.floats(TINY, 1e-6), max_size=25),
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(bh_rows, alphas)
def test_block_bh_matches_step_up_loop(rows, alpha):
    sizes = [len(row) for row in rows]
    p = np.array([v for row in rows for v in row], dtype=float)
    threshold, mask = reject_rows("bh", p, sizes, alpha)
    start = 0
    for r, row in enumerate(rows):
        want_threshold, want_mask = step_up_loop(row, alpha)
        assert np.float64(threshold[r]).tobytes() == np.float64(want_threshold).tobytes()
        assert mask[start : start + len(row)].tolist() == want_mask
        start += len(row)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(REFERENCES)),
    st.lists(pvalues, max_size=40),
    alphas,
    st.none() | st.just(SpectralMoments(1.0, 0.5, 1.0)),
)
def test_one_row_decision_matches_reference(method, p, alpha, moments):
    got = {"bonferroni": bonferroni, "bh": bh}[method](p, alpha, moments)
    want = REFERENCES[method](p, alpha, moments)
    for name in ("method", "alpha", "num_tests", "height_threshold", "rejected_indices"):
        assert getattr(got, name) == getattr(want, name), name
    assert type(got.p_threshold) is float
    assert np.float64(got.p_threshold).tobytes() == np.float64(want.p_threshold).tobytes()
    assert all(type(i) is int for i in got.rejected_indices)
