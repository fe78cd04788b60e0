import numpy as np
import pytest

from peaksig import Grid, SampledSeries


class TestGrid:
    def test_times(self):
        g = Grid(5, 0.5, 10.0)
        np.testing.assert_allclose(g.times(), [10.0, 10.5, 11.0, 11.5, 12.0])

    @pytest.mark.parametrize(
        "length,spacing,origin",
        [
            (0, 1.0, 0.0), (-3, 1.0, 0.0), (2.5, 1.0, 0.0), (np.inf, 1.0, 0.0),
            (np.nan, 1.0, 0.0), (5, 0.0, 0.0), (5, -1.0, 0.0), (5, 1.0, np.inf),
            (500, 1e306, 1e308),
        ],
    )
    def test_rejects_bad_parameters(self, length, spacing, origin):
        with pytest.raises(ValueError):
            Grid(length, spacing, origin)


class TestSampledSeries:
    def test_basic_fields(self):
        s = SampledSeries(np.arange(4.0), spacing=0.5, origin=1.0)
        assert len(s) == 4
        grid = Grid(len(s), s.spacing, s.origin)
        np.testing.assert_allclose(grid.times(), [1.0, 1.5, 2.0, 2.5])
        assert grid == Grid(4, 0.5, 1.0)

    def test_values_copied_and_float(self):
        raw = np.array([1, 2, 3])
        s = SampledSeries(raw, 1.0)
        raw[0] = 99
        assert s.values[0] == 1.0
        assert s.values.dtype == np.float64

    def test_rejects_nonfinite_and_wrong_shape(self):
        with pytest.raises(ValueError):
            SampledSeries(np.array([1.0, np.nan]), 1.0)
        with pytest.raises(ValueError):
            SampledSeries(np.zeros((2, 2)), 1.0)
        with pytest.raises(ValueError):
            SampledSeries(np.array([]), 1.0)
        with pytest.raises(ValueError, match="series times overflow"):
            SampledSeries(np.zeros(500), 1e306, 1e308)

    def test_crop_shifts_origin_and_clears_boundary(self):
        s = SampledSeries(np.arange(10.0), spacing=2.0, origin=5.0, boundary=3)
        c = s.crop(3, 8)
        assert len(c) == 5
        assert c.origin == 5.0 + 3 * 2.0
        assert c.boundary == 0
        np.testing.assert_array_equal(c.values, np.arange(3.0, 8.0))

    def test_crop_bounds_checked(self):
        s = SampledSeries(np.arange(5.0), 1.0)
        with pytest.raises(ValueError):
            s.crop(3, 3)
        with pytest.raises(ValueError):
            s.crop(-1, 4)
        with pytest.raises(ValueError):
            s.crop(0, 6)
