"""Differential tests of the normal cdf port against scipy.

``peaksig._normal.ndtr`` must reproduce ``scipy.special.ndtr`` byte for
byte: the goldens pin p-values to the last digit. The coefficient tables
are where a port goes wrong (one mistyped digit shifts results by a
percent), so the checks sweep each branch and every switch between
branches: ``|x| = 1`` (``a = sqrt 2``), ``|x| = 8`` and the ``MAXLOG``
underflow cut (``a ~ -37.68``). The import guard runs in a subprocess,
where ``sys.modules`` starts empty.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import peaksig
from peaksig import MAD_SCALE
from peaksig._normal import log_ndtr, ndtr

MAXLOG = 7.09782712893383996843e2


def ulp_neighbourhood(center: float, steps: int = 64) -> np.ndarray:
    """``center`` and its ``steps`` float neighbours on either side."""
    down = [center]
    up = [center]
    for _ in range(steps):
        down.append(math.nextafter(down[-1], -math.inf))
        up.append(math.nextafter(up[-1], math.inf))
    return np.array(sorted(set(down + up)))


def branch_edges() -> np.ndarray:
    """Arguments at and next to every branch switch, on both sides of 0."""
    cuts = (math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * MAXLOG))
    return np.concatenate(
        [ulp_neighbourhood(s * c) for c in cuts for s in (1.0, -1.0)]
    )


def assert_bytes_equal(ours: np.ndarray, ref: np.ndarray, a: np.ndarray):
    ours, ref = np.asarray(ours, dtype=float), np.asarray(ref, dtype=float)
    bad = ours.view(np.uint64) != ref.view(np.uint64)
    assert not bad.any(), list(zip(a[bad][:5], ours[bad][:5], ref[bad][:5]))


class TestNdtr:
    def test_dense_grid(self):
        a = np.linspace(-40.0, 40.0, 400_001)
        assert_bytes_equal(ndtr(a), special.ndtr(a), a)

    def test_branch_edges(self):
        a = branch_edges()
        assert a.size > 700
        assert_bytes_equal(ndtr(a), special.ndtr(a), a)

    def test_underflow_edge_is_exactly_zero_and_one(self):
        cut = math.sqrt(2.0 * MAXLOG)
        assert ndtr(-cut - 1e-9) == 0.0 and ndtr(cut + 1e-9) == 1.0
        assert 0.0 < ndtr(-cut + 1e-9) < 1e-300

    def test_special_values(self):
        a = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan])
        assert_bytes_equal(ndtr(a), special.ndtr(a), a)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.floats(-40.0, 40.0, allow_nan=False), min_size=1, max_size=64
        )
    )
    def test_hypothesis_floats(self, values):
        a = np.array(values)
        assert_bytes_equal(ndtr(a), special.ndtr(a), a)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-40.0, 40.0, allow_nan=False))
    def test_scalar_path_equals_array_path(self, value):
        want = ndtr(np.array([value]))[0]
        for scalar in (value, np.array(value), np.float64(value)):
            got = ndtr(scalar)
            assert type(got) is float
            assert_bytes_equal(got, want, np.array([value]))

    def test_scalar_path_on_branch_edges(self):
        a = np.concatenate([branch_edges(), [0.0, -0.0, math.inf, -math.inf, math.nan]])
        for scalar in (float, np.array, np.float64):
            got = [ndtr(scalar(v)) for v in a]
            assert all(type(v) is float for v in got)
            assert_bytes_equal(np.array(got), ndtr(a), a)

    def test_keeps_shape(self):
        a = np.linspace(-5.0, 5.0, 12).reshape(3, 4)
        assert ndtr(a).shape == (3, 4)
        assert ndtr(np.empty(0)).shape == (0,)


def assert_log_close(a: np.ndarray):
    ours = np.array([log_ndtr(v) for v in a])
    ref = special.log_ndtr(a)
    gap = np.abs(ours - ref)
    ok = gap <= 2e-15 * np.abs(ref)
    assert ok.all(), list(zip(a[~ok][:5], ours[~ok][:5], ref[~ok][:5]))


class TestLogNdtr:
    def test_dense_grid(self):
        assert_log_close(np.linspace(-1e3, 40.0, 200_001))

    def test_across_branch_switch(self):
        assert_log_close(
            np.concatenate(
                [
                    ulp_neighbourhood(-math.sqrt(2.0)),
                    ulp_neighbourhood(0.0),
                    np.linspace(-2.0, 2.0, 40_001),
                ]
            )
        )

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1e3, 40.0, allow_nan=False))
    def test_hypothesis_floats(self, value):
        assert_log_close(np.array([value]))

    def test_deep_tail_does_not_underflow(self):
        assert log_ndtr(-1e3) == pytest.approx(float(special.log_ndtr(-1e3)), rel=2e-15)
        assert log_ndtr(-math.inf) == -math.inf

    def test_returns_python_float(self):
        assert type(log_ndtr(np.float64(-3.0))) is float


def test_mad_scale_is_exact():
    assert MAD_SCALE == 1.0 / special.ndtri(0.75)


def test_import_loads_no_scipy():
    code = (
        "import sys, peaksig, peaksig.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    src = str(Path(peaksig.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.stdout.strip() == "[]"
