"""Fixed one-line mutants of ``src/peaksig`` that tier-1 must catch.

Each entry of ``MUTANTS`` is ``(name, file, old, new)``: ``old`` occurs
exactly once in ``src/peaksig/<file>`` (``tests/test_mutants.py`` checks
this in tier-1, so the table cannot rot silently) and ``new`` replaces it.
A mutant no test can kill is listed in ``EQUIVALENT`` with the reason;
never drop an entry to get a pass.

Run as a script from anywhere::

    python tests/mutants.py

It first runs tier-1 on an unmutated copy of ``src/`` (a failure there,
``tests/test_mutants.py`` included, would make every mutant look killed),
then, for each mutant, on that copy with that one entry applied, with ``-x -q`` and the repo's own
tests. It prints one line per mutant and exits 1 if any mutant not in
``EQUIVALENT`` survives, or if an equivalent one is killed.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    ("positions-left-right", "series.py",
     'lo = np.searchsorted(keys, ends[0], "left")',
     'lo = np.searchsorted(keys, ends[0], "right")'),
    ("mad-scale-rounded", "moments_est.py",
     "MAD_SCALE = 1.482602218505602", "MAD_SCALE = 1.4826"),
    ("centering-skipped", "detector.py",
     "values = _center(series.values) if config.subtract_mean else series.values",
     "values = series.values"),
    ("bh-strict", "mtp.py",
     "else p <= threshold[row]", "else p < threshold[row]"),
    ("bonferroni-not-strict", "mtp.py",
     "mask = p < threshold[row] if", "mask = p <= threshold[row] if"),
    ("bh-step-up-x1.5", "mtp.py",
     "passed = table <= alpha * rank", "passed = table <= 1.5 * alpha * rank"),
    ("bonferroni-x1.5", "mtp.py",
     "scaled = np.full(sizes.size, alpha)", "scaled = np.full(sizes.size, 1.5 * alpha)"),
    ("plateau-middle-plus-one", "maxima.py",
     "(a[same] + b[same] + 1) // 2", "(a[same] + b[same] + 2) // 2"),
    ("maxima-reversed", "maxima.py",
     "idx = local_max_indices(series.values)", "idx = local_max_indices(series.values[::-1])"),
    ("right-boundary-plus-one", "maxima.py",
     "(idx < len(series) - b)]", "(idx < len(series) - b + 1)]"),
    ("right-boundary-plus-two", "maxima.py",
     "(idx < len(series) - b)]", "(idx < len(series) - b + 2)]"),
    ("left-boundary-plus-three", "maxima.py",
     "idx[(idx >= b) &", "idx[(idx >= b + 3) &"),
    ("rice-count-x1.01", "nulldist.py",
     "length / (2.0 * math.pi) * _HeightLaw(m).rate",
     "length / (2.0 * math.pi) * _HeightLaw(m).rate * 1.01"),
    ("amp-x1.0001", "nulldist.py",
     "self.amp = math.sqrt(2.0 * math.pi * q / (l4 * s2))",
     "self.amp = 1.0001 * math.sqrt(2.0 * math.pi * q / (l4 * s2))"),
    ("sample-se-ddof-0", "evaluation.py",
     "x.std(ddof=1)", "x.std(ddof=0)"),
    ("multi-max-above-two", "evaluation.py",
     "inside[:, k + p :] > 1", "inside[:, k + p :] > 2"),
    ("harness-no-tiny-floor", "evaluation.py",
     "p = np.maximum(peak_height_right_cdf(gamma_moments, heights), np.finfo(float).tiny)",
     "p = peak_height_right_cdf(gamma_moments, heights)"),
]

EQUIVALENT = {
    "harness-no-tiny-floor": (
        "a p-value of 0 and one floored at the smallest normal float fall on the "
        "same side of every Bonferroni and BH threshold alpha k / m, unless that "
        "threshold is itself below the floor (alpha under about 1e-300)"
    ),
}

TIMEOUT_S = 900


def tier1(src: Path, workdir: Path) -> tuple[int, str]:
    """Run tier-1 with ``src`` first on the path; return the exit code and the
    last line of output. Runs in ``workdir``, so hypothesis's example
    database stays out of the repo."""
    # No bytecode: a mutant and its restored text may share a size and an mtime.
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--rootdir", str(ROOT), "-c", str(ROOT / "pyproject.toml"), str(ROOT / "tests")]
    try:
        out = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True,
                             timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {TIMEOUT_S} s"
    lines = out.stdout.strip().splitlines() or [out.stderr.strip()]
    return out.returncode, lines[-1]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        src = tmp / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        code, last = tier1(src, tmp)
        if code != 0:
            print(f"unmutated copy fails tier-1: {last}")
            return 1
        bad = []
        for name, file, old, new in MUTANTS:
            path = src / "peaksig" / file
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(old, new), encoding="utf-8")
            start = time.monotonic()
            try:
                code, last = tier1(src, tmp)
            finally:
                path.write_text(text, encoding="utf-8")
            killed = code != 0
            verdict = "killed" if killed else "SURVIVED"
            if name in EQUIVALENT:
                verdict += " (marked equivalent)"
            if killed == (name in EQUIVALENT):
                bad.append(name)
            print(f"{name}: {verdict} in {time.monotonic() - start:.0f} s: {last}", flush=True)
    if bad:
        print(f"unexpected outcome: {bad}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
