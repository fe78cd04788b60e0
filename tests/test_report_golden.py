"""Golden-bytes tests for detection reports.

The files under ``tests/golden/`` hold the JSON report, the CSV report
and its ``.manifest.json`` sidecar for three small seeded runs: one with
rejections, one with no candidates (``m = 0``: ``Infinity`` thresholds,
``"maxima": []``) and one that triggers the aliasing warning. They were
recorded with the reference encoders, ``json.dump(report, indent=2)``
and ``csv.writer``; every report writer must reproduce them byte for
byte. ``created_utc`` is masked on both sides.

Regenerate only on a deliberate format change:

    PYTHONPATH=src python tests/test_report_golden.py
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from peaksig import (
    DetectorConfig,
    NoiseSpec,
    detect,
    detection_report_dict,
    file_sha256,
    load_series,
    write_detection_report,
)
from peaksig.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (input format, detector flags for the CLI, the same settings as a config)
CASES = {
    "rejections": (
        "plain",
        ["--gamma", "3", "--noise-sigma", "1", "--method", "bh"],
        DetectorConfig(gamma=3.0, method="bh", moments_source=NoiseSpec(1.0)),
    ),
    "no_candidates": (
        "plain",
        ["--gamma", "3", "--noise-sigma", "1", "--method", "bonferroni"],
        DetectorConfig(gamma=3.0, method="bonferroni", moments_source=NoiseSpec(1.0)),
    ),
    "aliased": (
        "csv",
        ["--format", "csv", "--gamma", "0.5", "--moments", "mad", "--method", "bh"],
        DetectorConfig(gamma=0.5, method="bh", moments_source="mad"),
    ),
}

_CREATED = re.compile(r'"created_utc": "[^"]*"')


def mask(text: str) -> str:
    return _CREATED.sub('"created_utc": "<masked>"', text)


def _bumps(n: int, centers, amplitude: float, scale: float) -> np.ndarray:
    i = np.arange(n)
    return sum(amplitude * np.exp(-0.5 * ((i - c) / scale) ** 2) for c in centers)


def write_input(case: str, directory: Path) -> str:
    """Write the case's seeded input into ``directory``; return its name."""
    if case == "rejections":
        values = np.random.default_rng(11).standard_normal(400)
        values += _bumps(400, (80, 200, 320), 12.0, 3.0)
        lines = [f"{v!r}\n" for v in values.tolist()]
        name = "rejections.txt"
    elif case == "no_candidates":
        lines = ["0.0\n"] * 100
        name = "no_candidates.txt"
    else:
        values = np.random.default_rng(13).standard_normal(300)
        values += _bumps(300, (150,), 8.0, 2.0)
        times = 5.0 + 0.5 * np.arange(300)
        lines = [f"{t!r},{v!r}\n" for t, v in zip(times.tolist(), values.tolist())]
        name = "aliased.csv"
    (directory / name).write_text("".join(lines), encoding="utf-8")
    return name


def run_case(case: str, directory: Path):
    """Detect on the case's input; the input path is relative to ``directory``."""
    fmt, _, config = CASES[case]
    name = write_input(case, directory)
    return detect(load_series(directory / name, fmt), config), name


def write_reports(case: str, directory: Path) -> dict[str, Path]:
    """Write the JSON and CSV reports of one case into ``directory``."""
    result, name = run_case(case, directory)
    out = {
        "json": directory / f"{case}.json",
        "csv": directory / f"{case}.csv",
        "manifest": directory / f"{case}.csv.manifest.json",
    }
    write_detection_report(result, out["json"], fmt="json", input_path=name)
    write_detection_report(result, out["csv"], fmt="csv", input_path=name)
    return out


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    # Reports record the input path as given; a relative path keeps them stable.
    monkeypatch.chdir(tmp_path)
    return Path(".")


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_match_golden(case, workdir):
    for kind, path in write_reports(case, workdir).items():
        golden = GOLDEN / path.name
        assert mask(path.read_bytes().decode("utf-8")) == golden.read_bytes().decode(
            "utf-8"
        ), f"{case} {kind} report differs from {golden.name}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_stdout_matches_golden(case, workdir, capsys):
    name = write_input(case, workdir)
    assert main(["detect", name, *CASES[case][1]]) == 0
    captured = capsys.readouterr()
    assert mask(captured.out) == (GOLDEN / f"{case}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("case", sorted(CASES))
def test_written_json_equals_report_dict(case, workdir):
    result, name = run_case(case, workdir)
    out = workdir / "report.json"
    write_detection_report(result, out, input_path=name)
    written = json.loads(mask(out.read_text(encoding="utf-8")))
    expected = detection_report_dict(result, name, file_sha256(name))
    expected["created_utc"] = "<masked>"
    assert written == expected


def test_cases_cover_what_they_claim():
    reports = {
        case: json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))
        for case in CASES
    }
    assert reports["rejections"]["num_rejected"] > 0
    empty = reports["no_candidates"]
    assert empty["maxima"] == [] and empty["num_maxima"] == 0
    assert empty["decision"]["p_threshold"] == float("inf")
    assert empty["decision"]["height_threshold"] == float("inf")
    assert any("aliases" in w for w in reports["aliased"]["warnings"])


def regenerate() -> None:
    import os
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for case in CASES:
                for path in write_reports(case, Path(".")).values():
                    text = mask(path.read_bytes().decode("utf-8"))
                    (GOLDEN / path.name).write_bytes(text.encode("utf-8"))
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
