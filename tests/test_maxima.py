"""Tests for local-maximum detection."""

import numpy as np
import pytest

from peaksig import (
    Candidates,
    LocalMaximum,
    SampledSeries,
    find_local_maxima,
    local_max_indices,
)


class TestLocalMaxIndices:
    @pytest.mark.parametrize(
        "values,expected",
        [
            ([0, 1, 0, 2, 0], [1, 3]),
            ([1, 0, 1], []),
            ([0, 1, 2, 3], []),
            ([3, 2, 1, 0], []),
            ([0, 5, 0], [1]),
            ([5, 0, 5, 0, 5], [2]),
        ],
    )
    def test_strict_examples(self, values, expected):
        assert local_max_indices(np.array(values, dtype=float)).tolist() == expected

    @pytest.mark.parametrize(
        "values,expected",
        [
            ([0, 1, 1, 0], [1]),          # plateau of two, (1 + 2) // 2
            ([0, 1, 1, 1, 0], [2]),       # plateau of three, midpoint
            ([0, 2, 2, 1, 2, 0], [1, 4]),
            ([1, 1, 0, 1, 1], []),        # flat runs touching the ends
            ([0, 1, 1, 2, 0], [3]),       # rising shelf is not a maximum
            ([2, 2, 2, 2], []),
        ],
    )
    def test_plateau_examples(self, values, expected):
        assert local_max_indices(np.array(values, dtype=float)).tolist() == expected

    def test_too_short(self):
        with pytest.raises(ValueError):
            local_max_indices(np.array([1.0, 2.0]))

    def test_endpoints_never_qualify(self):
        idx = local_max_indices(np.array([9.0, 1.0, 2.0, 1.0, 9.0]))
        assert idx.tolist() == [2]

    def test_alternating_count(self):
        # Between consecutive maxima there is exactly one strict local
        # minimum, so counts differ by at most one on generic data.
        rng = np.random.default_rng(12)
        v = rng.standard_normal(5000)
        peaks = local_max_indices(v)
        troughs = local_max_indices(-v)
        assert abs(peaks.size - troughs.size) <= 1
        merged = np.sort(np.concatenate((peaks, troughs)))
        kinds = np.isin(merged, peaks)
        assert np.all(kinds[1:] != kinds[:-1])

    def test_shift_invariance(self):
        rng = np.random.default_rng(13)
        v = rng.standard_normal(1000)
        assert np.array_equal(local_max_indices(v), local_max_indices(v + 7.25))

    def test_matches_bruteforce_on_random_data(self):
        rng = np.random.default_rng(14)
        v = rng.standard_normal(2000)
        got = set(local_max_indices(v).tolist())
        want = {
            i for i in range(1, len(v) - 1) if v[i] > v[i - 1] and v[i] > v[i + 1]
        }
        assert got == want

    def test_matches_bruteforce_with_ties(self):
        rng = np.random.default_rng(15)
        # Quantized values force plateaus.
        v = np.round(rng.standard_normal(3000) * 2) / 2
        got = local_max_indices(v).tolist()
        runs = []
        s = 0
        for i in range(1, len(v) + 1):
            if i == len(v) or v[i] != v[s]:
                runs.append((s, i - 1))
                s = i
        want = [
            (a + b) // 2
            for a, b in runs
            if a > 0 and b < len(v) - 1 and v[a] > v[a - 1] and v[b] > v[b + 1]
        ]
        assert got == want


class TestFindLocalMaxima:
    def test_fields(self):
        series = SampledSeries([0.0, 2.0, 0.0, 3.0, 0.0], spacing=0.5, origin=10.0)
        found = find_local_maxima(series)
        assert [m.index for m in found] == [1, 3]
        assert [m.time for m in found] == [10.5, 11.5]
        assert [m.height for m in found] == [2.0, 3.0]
        assert all(m.p_value is None and m.rejected is None for m in found)

    def test_boundary_exclusion_default(self):
        # The series' own boundary annotation is the default exclusion.
        values = [0.0, 5.0, 0.0, 1.0, 0.0, 5.0, 0.0]
        plain = SampledSeries(values)
        marked = SampledSeries(values, boundary=2)
        assert [m.index for m in find_local_maxima(plain)] == [1, 3, 5]
        assert [m.index for m in find_local_maxima(marked)] == [3]

    def test_boundary_exclusion_override(self):
        series = SampledSeries([0.0, 5.0, 0.0, 1.0, 0.0, 5.0, 0.0], boundary=2)
        assert [m.index for m in find_local_maxima(series, excluded_boundary=0)] == [
            1,
            3,
            5,
        ]

    def test_negative_exclusion_rejected(self):
        series = SampledSeries([0.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            find_local_maxima(series, excluded_boundary=-1)

    def test_ascending_order(self):
        rng = np.random.default_rng(16)
        series = SampledSeries(rng.standard_normal(500))
        idx = [m.index for m in find_local_maxima(series)]
        assert idx == sorted(idx)


class TestCandidates:
    ROWS = [
        LocalMaximum(index=3, time=1.5, height=2.0, p_value=0.25, rejected=True),
        LocalMaximum(index=7, time=3.5, height=1.0, p_value=0.5, rejected=False),
    ]

    def test_rows_roundtrip(self):
        table = Candidates.from_rows(self.ROWS)
        assert len(table) == 2
        assert list(table) == self.ROWS
        assert table.index.dtype == np.int64 and table.rejected.dtype == bool

    def test_partial_rows_leave_columns_unset(self):
        rows = [LocalMaximum(index=1, time=1.0, height=0.5)]
        table = Candidates.from_rows(rows)
        assert table.p_value is None and table.rejected is None
        assert list(table) == rows

    def test_empty(self):
        table = Candidates.from_rows([])
        assert len(table) == 0 and list(table) == []

    def test_column_lengths_must_agree(self):
        with pytest.raises(ValueError, match="height"):
            Candidates(index=[1, 2], time=[1.0, 2.0], height=[1.0])
