"""Reading sampled series and writing detection/simulation reports.

Two input formats: ``plain`` (one value per line, spacing supplied out
of band) and ``csv`` (``time,value`` rows, no header; the time column
must be uniformly spaced to 1e-6 of the spacing, plus a few ulps of the
largest time so that epoch timestamps pass). Both are read as UTF-8,
with or without a leading byte-order mark, and reject non-finite
values, naming the first offending line. Reports go out as JSON
(self-contained) or CSV (tabular rows plus a ``.manifest.json`` sidecar
carrying the provenance block: tool, version, UTC timestamp, input
digest, configuration echo).

JSON uses the stdlib encoder, so infinite thresholds round-trip as
``Infinity``.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .detector import DetectionResult
from .evaluation import SimCell, SimReport
from .maxima import Candidates
from .series import SampledSeries

__all__ = [
    "SeriesFormatError",
    "load_series",
    "file_sha256",
    "detection_report_dict",
    "write_detection_report",
    "sim_report_dict",
    "write_sim_report",
]

_TOOL = "peaksig"


class SeriesFormatError(ValueError):
    """Input file does not parse as the declared series format."""


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _loadtxt(path, **kwargs) -> np.ndarray | None:
    """Parse a whole file with ``np.loadtxt``, or return None if it raises.

    This is only the fast path. Anything it cannot parse cleanly goes to
    the line-by-line readers below, which own every error message and
    accept whatever ``float()`` accepts.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty file warns
            return np.loadtxt(
                path, dtype=float, comments=None, encoding="utf-8-sig", **kwargs
            )
    except (ValueError, OSError):
        return None


def _non_finite(path, lineno: int, text) -> SeriesFormatError:
    return SeriesFormatError(f"{path}: line {lineno}: non-finite value in {text!r}")


def _text_lines(path, newline=None):
    """Lines of ``path`` decoded as UTF-8, a leading byte-order mark dropped."""
    with open(path, "r", encoding="utf-8-sig", newline=newline) as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise SeriesFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_plain_lines(path) -> np.ndarray:
    values = []
    for lineno, line in enumerate(_text_lines(path), start=1):
        text = line.strip()
        if not text:
            continue
        try:
            value = float(text)
        except ValueError:
            raise SeriesFormatError(
                f"{path}: line {lineno}: expected one number, got {text!r}"
            ) from None
        if not math.isfinite(value):
            raise _non_finite(path, lineno, text)
        values.append(value)
    return np.array(values)


def _load_plain(path, spacing: float, origin: float) -> SampledSeries:
    values = _loadtxt(path, ndmin=1)
    if values is None or values.ndim != 1 or not np.isfinite(values).all():
        values = _read_plain_lines(path)
    if not values.size:
        raise SeriesFormatError(f"{path}: no samples found")
    return SampledSeries(values, spacing=spacing, origin=origin)


def _read_csv_rows(path) -> np.ndarray:
    rows = []
    for lineno, row in enumerate(csv.reader(_text_lines(path, newline="")), start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise SeriesFormatError(
                f"{path}: line {lineno}: expected 'time,value', got {len(row)} fields"
            )
        try:
            pair = (float(row[0]), float(row[1]))
        except ValueError:
            raise SeriesFormatError(
                f"{path}: line {lineno}: non-numeric field in {row!r}"
                " (headers are not supported)"
            ) from None
        if not (math.isfinite(pair[0]) and math.isfinite(pair[1])):
            raise _non_finite(path, lineno, row)
        rows.append(pair)
    return np.array(rows).reshape(-1, 2)


def _load_csv(path) -> SampledSeries:
    rows = _loadtxt(path, delimiter=",", quotechar='"', ndmin=2)
    if rows is None or rows.shape[1:] != (2,) or not np.isfinite(rows).all():
        rows = _read_csv_rows(path)
    if rows.shape[0] < 2:
        raise SeriesFormatError(f"{path}: need at least two rows to infer spacing")
    t = rows[:, 0]
    spacing = (t[-1] - t[0]) / (len(t) - 1)
    if not spacing > 0:
        raise SeriesFormatError(f"{path}: time column must be strictly increasing")
    # Relative tolerance on the spacing, widened by a few ulps of the
    # largest time so that epoch-scale timestamps are not rejected.
    tolerance = 1e-6 * spacing + 4.0 * np.spacing(np.abs(t).max())
    if np.max(np.abs(np.diff(t) - spacing)) > tolerance:
        raise SeriesFormatError(
            f"{path}: time column is not uniformly spaced (tolerance 1e-6 relative)"
        )
    return SampledSeries(rows[:, 1], spacing=float(spacing), origin=float(t[0]))


def load_series(path, fmt: str = "plain", spacing: float = 1.0, origin: float = 0.0) -> SampledSeries:
    """Read a sampled series from ``path``.

    ``spacing`` and ``origin`` apply to the ``plain`` format only; the
    ``csv`` format carries its own time column.
    """
    if fmt == "plain":
        return _load_plain(path, spacing, origin)
    if fmt == "csv":
        return _load_csv(path)
    raise ValueError(f"unknown series format {fmt!r}")


# ---------------------------------------------------------------------------
# JSON-safe conversion


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return obj


def _provenance() -> dict:
    from . import __version__

    return {
        "tool": _TOOL,
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


# ---------------------------------------------------------------------------
# Detection reports


def _report_head(result: DetectionResult, input_path, input_sha256) -> dict:
    """The report without its ``maxima`` rows (the CSV manifest)."""
    report = _provenance()
    report["input"] = {"path": input_path, "sha256": input_sha256}
    report["config"] = _jsonable(result.config)
    report["moments"] = _jsonable(result.moments_used)
    report["decision"] = _jsonable(result.decision)
    report["boundary_excluded"] = result.boundary_excluded
    report["warnings"] = list(result.warnings)
    report["num_maxima"] = len(result.candidates)
    report["num_rejected"] = int(np.count_nonzero(result.candidates.rejected))
    return report


def _row_columns(candidates: Candidates, start: int, stop: int) -> list[list]:
    """One block of candidate columns as Python scalars."""
    c = candidates
    return [
        col[start:stop].tolist()
        for col in (c.index, c.time, c.height, c.p_value, c.rejected)
    ]


def detection_report_dict(
    result: DetectionResult,
    input_path: str | None = None,
    input_sha256: str | None = None,
) -> dict:
    """Self-contained summary of one detection run."""
    report = _report_head(result, input_path, input_sha256)
    columns = _row_columns(result.candidates, 0, len(result.candidates))
    report["maxima"] = [dict(zip(_ROW_FIELDS, row)) for row in zip(*columns)]
    return report


def _write_json(payload: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_rows_csv(path, header: list, rows: list, manifest: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    _write_json(manifest, str(path) + ".manifest.json")


# Report rows are formatted straight from the candidate columns, one block
# at a time. The templates spell each row exactly as ``json.dump(...,
# indent=2)`` and ``csv.writer`` would; the golden-bytes tests pin that.
_ROW_FIELDS = ("index", "time", "height", "p_value", "rejected")
_ROW_BLOCK = 4096
_JSON_ROW = "    {\n" + ",\n".join(f'      "{f}": %s' for f in _ROW_FIELDS) + "\n    }"
_CSV_ROW = "%d,%r,%r,%r,%d\r\n"
_JSON_BOOL = {False: "false", True: "true"}


def _json_floats(values: list) -> list:
    """Floats as the JSON encoder spells them (``Infinity`` rather than ``inf``)."""
    texts = list(map(float.__repr__, values))
    if not all(map(math.isfinite, values)):
        texts = [t if math.isfinite(v) else json.dumps(v) for t, v in zip(texts, values)]
    return texts


def _stream_json_report(fh, head: dict, candidates: Candidates) -> None:
    # ``head`` dumps to "{...\n}"; reopen it and append the rows as its last key.
    fh.write(json.dumps(head, indent=2)[:-2] + ',\n  "maxima": ')
    n = len(candidates)
    if n == 0:
        fh.write("[]")
    for start in range(0, n, _ROW_BLOCK):
        index, time, height, p_value, rejected = _row_columns(
            candidates, start, start + _ROW_BLOCK
        )
        rows = zip(
            index,
            _json_floats(time),
            _json_floats(height),
            _json_floats(p_value),
            map(_JSON_BOOL.__getitem__, rejected),
        )
        fh.write("[\n" if start == 0 else ",\n")
        fh.write(",\n".join(map(_JSON_ROW.__mod__, rows)))
    if n:
        fh.write("\n  ]")
    fh.write("\n}\n")


def write_detection_report(
    result: DetectionResult,
    path,
    fmt: str = "json",
    input_path: str | None = None,
) -> None:
    """Write a detection report to ``path`` as ``json`` or ``csv``.

    The JSON text equals ``json.dump(detection_report_dict(...),
    indent=2)`` plus a newline; ``path`` may also be an open text
    stream such as ``sys.stdout``. The CSV variant holds one row per
    candidate maximum and drops the provenance block into
    ``<path>.manifest.json``. Rows are streamed from the candidate
    columns in blocks, never built as per-candidate objects.
    """
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown report format {fmt!r}")
    digest = file_sha256(input_path) if input_path else None
    head = _report_head(result, input_path, digest)
    candidates = result.candidates
    if fmt == "json":
        if hasattr(path, "write"):
            _stream_json_report(path, head, candidates)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                _stream_json_report(fh, head, candidates)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_ROW_FIELDS) + "\r\n")
        for start in range(0, len(candidates), _ROW_BLOCK):
            rows = zip(*_row_columns(candidates, start, start + _ROW_BLOCK))
            fh.write("".join(map(_CSV_ROW.__mod__, rows)))
    _write_json(head, str(path) + ".manifest.json")


# ---------------------------------------------------------------------------
# Simulation reports


_SIM_FIELDS = [f.name for f in dataclasses.fields(SimCell)]


def sim_report_dict(report: SimReport) -> dict:
    payload = _provenance()
    payload["seed"] = report.config.base_seed
    payload["config"] = _jsonable(report.config)
    payload["cells"] = [_jsonable(c) for c in report.cells]
    return payload


def write_sim_report(report: SimReport, path, fmt: str = "json") -> None:
    """Write a simulation report as ``json`` or ``csv`` (one row per
    (gamma, method) cell, manifest sidecar)."""
    payload = sim_report_dict(report)
    if fmt == "json":
        _write_json(payload, path)
        return
    if fmt == "csv":
        manifest = {k: v for k, v in payload.items() if k != "cells"}
        rows = [[cell[name] for name in _SIM_FIELDS] for cell in payload["cells"]]
        _write_rows_csv(path, list(_SIM_FIELDS), rows, manifest)
        return
    raise ValueError(f"unknown report format {fmt!r}")
