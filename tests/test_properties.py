"""Property and differential tests for the columnar candidate path.

``hypothesis`` drives the maxima search against a brute-force loop, and
seeded runs check the candidate columns of ``detect`` against the
per-candidate definition they replace: one ``LocalMaximum`` per maximum,
its p-value from the scalar height cdf, its flag from the decision's
rejected indices.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peaksig import (
    Candidates,
    DetectionResult,
    DetectorConfig,
    Grid,
    LocalMaximum,
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
    synthesize_dataset,
    truth_regions,
)
from peaksig.evaluation import _classify_arrays
from peaksig.io import _read_plain_lines

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
    assert list(found) == [
        LocalMaximum(index=i, time=origin + spacing * i, height=float(values[i]))
        for i in want
    ]


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
    return synthesize_dataset(SIGNAL, NoiseSpec(), Grid(1200), seed=seed)


def per_candidate_rows(series: SampledSeries, config: DetectorConfig, result):
    """The candidates as the per-object pipeline defined them."""
    values = series.values - series.values.mean()
    kernel = make_gaussian_kernel(config.gamma, config.kernel_truncation, series.spacing)
    smoothed = convolve(SampledSeries(values, series.spacing, series.origin), kernel)
    b = smoothed.boundary
    idx = [i for i in local_max_indices(smoothed.values).tolist() if b <= i < len(smoothed) - b]
    rejected = set(result.decision.rejected_indices)
    tiny = np.finfo(float).tiny
    rows = []
    for k, i in enumerate(idx):
        height = float(smoothed.values[i])
        p = max(float(peak_height_right_cdf(result.moments_used, height)), tiny)
        time = series.origin + series.spacing * i
        rows.append(LocalMaximum(i, time, height, p, k in rejected))
    return rows


@pytest.mark.parametrize("method", ["bh", "bonferroni"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_detect_columns_match_per_candidate_definition(seed, method):
    series = seeded_series(seed)
    config = DetectorConfig(gamma=3.0, method=method, moments_source=NoiseSpec())
    result = detect(series, config)
    rows = per_candidate_rows(series, config, result)
    assert result.decision.num_tests == len(rows) > 0
    assert any(mx.rejected for mx in rows)
    c = result.candidates
    assert list(result.maxima) == rows
    for k, mx in enumerate(result.maxima):
        assert (mx.index, mx.time, mx.height, mx.p_value, mx.rejected) == (
            c.index[k], c.time[k], c.height[k], c.p_value[k], c.rejected[k]
        )
        assert type(mx.index) is int and type(mx.rejected) is bool
    assert np.flatnonzero(c.rejected).tolist() == sorted(result.decision.rejected_indices)


def with_candidates(result, candidates: Candidates) -> DetectionResult:
    return dataclasses.replace(result, candidates=candidates)


def classify_rows(rows, regions):
    """``classify`` as it read ``LocalMaximum`` rows."""
    times = np.array([mx.time for mx in rows])
    rejected = np.array([bool(mx.rejected) for mx in rows], dtype=bool)
    return _classify_arrays(times, rejected, regions)


REGIONS = truth_regions(SIGNAL, 3.0, window=(0.0, 1199.0))
BASE = detect(seeded_series(7), DetectorConfig(gamma=3.0, moments_source=NoiseSpec()))


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_classify_columns_equals_rows(seed):
    config = DetectorConfig(gamma=3.0, method="bh", moments_source=NoiseSpec())
    result = detect(seeded_series(seed), config)
    from_rows = with_candidates(result, Candidates.from_rows(result.maxima))
    counts = classify(result, REGIONS)
    assert counts == classify(from_rows, REGIONS) == classify_rows(result.maxima, REGIONS)
    assert counts.true_rejections > 0


@given(st.lists(st.tuples(st.floats(-10.0, 1210.0), st.booleans()), max_size=30))
def test_classify_columns_equals_rows_on_arbitrary_candidates(pairs):
    pairs = sorted(pairs)
    rows = [
        LocalMaximum(index=k, time=t, height=0.0, p_value=0.5, rejected=r)
        for k, (t, r) in enumerate(pairs)
    ]
    columns = Candidates(
        index=np.arange(len(pairs)),
        time=[t for t, _ in pairs],
        height=np.zeros(len(pairs)),
        p_value=np.full(len(pairs), 0.5),
        rejected=[r for _, r in pairs],
    )
    assert classify(with_candidates(BASE, columns), REGIONS) == classify_rows(rows, REGIONS)
