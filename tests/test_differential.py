"""``peaksig detect`` against an independent reference, end to end.

``perfbench/reference.py`` rebuilds the pipeline from plain numpy and
scipy: direct convolution, a brute-force loop for maxima with the
plateau rule, the height cdf through ``scipy.stats``, and textbook
Bonferroni and BH. Random series, plain noise or noise with Gaussian
bumps, go through the command line, and the JSON report must agree with
the reference: candidates within one sample, p-values within 1e-6
relative, the same rejected set. A series too short for the kernel must
exit 1, and a ``mad`` estimate with ``Delta <= 0`` must exit 3.
"""

import contextlib
import importlib.util
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peaksig import cli

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
_SPEC = importlib.util.spec_from_file_location("reference", _PATH)
reference = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reference)

bumps = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.5, 8.0), st.floats(1.0, 30.0)),
    max_size=7,
)


def draw_values(seed: int, n: int, spacing: float, peaks) -> np.ndarray:
    """White noise of variance ``1 / spacing``, the grid form of the model's
    ``NoiseSpec(1.0)``, plus Gaussian bumps given as (position in [0, 1],
    amplitude in noise sd, width in samples)."""
    i = np.arange(n)
    values = np.random.default_rng(seed).standard_normal(n)
    for where, amplitude, width in peaks:
        values += amplitude * np.exp(-0.5 * ((i - where * (n - 1)) / width) ** 2)
    return values / math.sqrt(spacing)


def run_detect(values, spacing, gamma, moments, method):
    """``(exit code, stderr, report)`` of ``peaksig detect`` on ``values``."""
    source = ["--noise-sigma", "1"] if moments == "noise" else ["--moments", "mad"]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp, "series.txt"), Path(tmp, "report.json")
        src.write_text("".join(f"{v!r}\n" for v in values.tolist()))
        argv = ["detect", str(src), "--spacing", repr(spacing), "--gamma", repr(gamma)]
        argv += ["--method", method, *source, "--output", str(out)]
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        report = json.loads(out.read_text()) if code == 0 else None
    return code, err.getvalue(), report


def near_threshold(p: np.ndarray, method: str) -> int:
    """How many p-values lie within 1e-6 relative of a threshold they are
    compared with: there the reference's precision cannot decide."""
    m = p.size
    if method == "bonferroni":
        return int(np.count_nonzero(np.isclose(p, reference.ALPHA / m, rtol=1e-6, atol=0.0)))
    steps = reference.ALPHA * np.arange(1, m + 1) / m
    return int(np.count_nonzero(np.isclose(np.sort(p), steps, rtol=1e-6, atol=0.0)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(200, 6000),
    spacing=st.floats(0.1, 2.0),
    width=st.floats(1.2, 25.0),
    peaks=bumps,
    moments=st.sampled_from(["noise", "mad"]),
    method=st.sampled_from(["bh", "bonferroni"]),
)
# A kernel of 201 taps does not fit in 200 samples with one to spare at each end.
@example(seed=0, n=200, spacing=1.0, width=25.0, peaks=[], moments="mad", method="bh")
# The three MADs of this noise are estimated apart, and their Delta comes out negative.
@example(seed=21, n=300, spacing=1.0, width=10.0, peaks=[], moments="mad", method="bh")
# Three interior samples leave one second difference, whose MAD is 0.
@example(seed=1, n=203, spacing=1.0, width=25.0, peaks=[], moments="mad", method="bh")
def test_detect_agrees_with_reference(seed, n, spacing, width, peaks, moments, method):
    values = draw_values(seed, n, spacing, peaks)
    gamma = width * spacing
    code, err, report = run_detect(values, spacing, gamma, moments, method)
    smoothed, half = reference.smooth(values, gamma, spacing)
    if n < 2 * half + 3:
        assert (code, err) == (1, "error: series too short for the requested kernel\n")
        return
    want = (
        reference.closed_form_moments(1.0, gamma)
        if moments == "noise"
        else reference.mad_moments(smoothed, half, spacing)
    )
    if code == 3:
        # Only an estimate may be refused, and only where the reference's
        # own estimate is unusable too, up to its precision.
        s2, l2, l4 = want
        assert moments == "mad" and err.startswith("error: moment estimation (mad) degenerate"), err
        assert min(want) <= 0.0 or s2 * l4 - l2 * l2 <= 1e-6 * s2 * l4, (want, err)
        return
    assert code == 0, err
    rows = report["maxima"]
    got = {
        "moments": tuple(report["moments"][k] for k in ("sigma2", "lambda2", "lambda4")),
        "index": np.array([r["index"] for r in rows], dtype=int),
        "p_value": np.array([r["p_value"] for r in rows], dtype=float),
        "rejected": np.array([r["rejected"] for r in rows], dtype=bool),
    }
    if not reference.strict_maxima(smoothed, half):
        # No family to test: the reference's rules would divide by m = 0.
        assert np.allclose(got["moments"], want, rtol=reference.MOMENT_RTOL, atol=0.0)
        assert got["index"].size == got["rejected"].sum() == 0
        return
    source = ("noise", 1.0) if moments == "noise" else ("mad",)
    problems = reference.check_detection(values, spacing, gamma, source, method, got)
    assert not problems, (
        f"{problems}; {near_threshold(got['p_value'], method)} p-values within 1e-6 "
        "relative of a threshold"
    )
