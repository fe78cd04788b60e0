"""Reading sampled series and writing every command's output.

Two input formats: ``plain`` (one value per line, spacing supplied out
of band) and ``csv`` (``time,value`` rows, no header; the time column
must be uniformly spaced to 1e-6 of the spacing, plus a few ulps of the
largest time so that epoch timestamps pass). Both are read as UTF-8,
with or without a leading byte-order mark, and reject non-finite
values, naming the first offending line. A file of 1 MiB or more is
parsed as two halves on two cores, the second in a forked child, with
the same result as one pass. Reports go out as JSON
(self-contained) or CSV (tabular rows plus a ``.manifest.json`` sidecar
carrying the provenance block: tool, version, UTC timestamp, input
digest, configuration echo), JSON to a path or an open text stream
such as stdout, CSV to a path. A report of ``_SPLIT_MIN_ROWS`` rows or
more is formatted on two cores the same way, with the same bytes.
:func:`write_json` and :func:`write_table` write the other commands' output.

JSON uses the stdlib encoder, so infinite thresholds round-trip as
``Infinity``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import threading
import warnings
from datetime import datetime, timezone

import numpy as np

from .detector import DetectionResult
from .evaluation import SimCell, SimReport, _usable_cpus
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
    "write_json",
    "write_table",
]

_TOOL = "peaksig"


class SeriesFormatError(ValueError):
    """Input file does not parse as the declared series format."""


def file_sha256(path) -> str:
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# A file this large is parsed as two halves, one of them in a forked child.
_SPLIT_MIN_BYTES = 1 << 20
# The head of such a file is scanned in blocks of this many bytes.
_SCAN_BLOCK = 1 << 20
_BOM = b"\xef\xbb\xbf"
# ASCII bytes that np.loadtxt's whitespace split strips. A plain line of
# nothing else is not a row; non-ASCII whitespace (U+00A0) is ruled out
# by an ASCII check.
_WHITESPACE = b" \t\r\v\f\x1c\x1d\x1e\x1f"


def _parse(path, **kwargs) -> np.ndarray | None:
    """``np.loadtxt`` rows of ``path``, always 2-D, or None if it raises."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty file warns
            return np.loadtxt(
                path, dtype=float, comments=None, encoding="utf-8-sig", ndmin=2, **kwargs
            )
    except (ValueError, OSError):
        return None


def _can_fork() -> bool:
    """Whether a forked child may parse half a file beside this process.

    Not beside other threads, which may hold locks the child needs; not
    with SIGCHLD ignored, which reaps the child before its status is read;
    and only with a second usable CPU.
    """
    import signal

    if not hasattr(os, "fork") or threading.active_count() != 1:
        return False
    if signal.getsignal(signal.SIGCHLD) == signal.SIG_IGN:
        return False
    return _usable_cpus() > 1


def _head_lines(path, delimiter) -> int | None:
    """Lines in the head of a file worth parsing in halves, else None.

    The head ends at the first newline past the middle of the file. The
    parent reads it with ``max_rows``, which counts rows and skips empty
    lines, and the child skips it with ``skiprows``, which counts lines.
    So the count is returned only when a byte scan shows that every head
    line is a row and ends at a newline byte. The scan reads the head in
    blocks, so its memory does not grow with the file.
    """
    if not _can_fork():
        return None
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _SPLIT_MIN_BYTES:
            return None
        fh.seek(size // 2)
        end = size // 2 + len(fh.readline())
        if end >= size:  # no newline past the middle, or nothing after it
            return None
        fh.seek(0)
        if fh.read(len(_BOM)) != _BOM:
            fh.seek(0)
        lines = commas = bare_cr = 0
        last = b"\n"  # the byte before each block; the head starts a line
        for start in range(fh.tell(), end, _SCAN_BLOCK):
            block = fh.read(min(_SCAN_BLOCK, end - start))
            codes = np.frombuffer(last + block, dtype=np.uint8)
            newline = codes == ord("\n")
            lines += int(np.count_nonzero(newline[1:]))
            if delimiter is None:
                if (
                    not block.isascii()
                    or any(byte in block for byte in _WHITESPACE)
                    or (newline[1:] & newline[:-1]).any()
                ):
                    return None
            else:
                # A line with no comma, such as an empty one, balances the
                # count only beside a line of three or more fields, and then
                # neither the halves nor the whole file parse to two columns.
                # A quote could hold a newline, and a bare CR ends a line too.
                if b'"' in block:
                    return None
                commas += int(np.count_nonzero(codes[1:] == ord(delimiter)))
                bare_cr += int(np.count_nonzero((codes[:-1] == ord("\r")) & ~newline[1:]))
            last = block[-1:]
    if delimiter is not None and (commas != lines or bare_cr):
        return None
    return lines


def _beside_child(child, parent):
    """Run ``parent(pipe)`` here while a forked child sends ``child()``.

    ``child`` returns the buffers to send, or None on failure; the child
    writes them to a pipe and leaves by ``os._exit`` whatever happens, so
    no exit handler runs and no inherited stdio buffer is flushed twice.
    ``parent`` reads them from ``pipe`` and returns None on failure.
    Returns what ``parent`` returned and whether the child exited 0, or
    ``(None, False)`` if the fork fails. The child is killed if
    ``parent`` fails or raises, and reaped before this returns or raises.
    """
    import signal

    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns on fork in a process with threads, and
            # numpy's OpenBLAS pool is one. The child is safe: it only
            # computes, writes to the pipe and exits, and OpenBLAS
            # quiesces its pool in its pthread_atfork handler.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None, False
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)  # so a write fails once the parent stops reading
            parts = child()
            if parts is not None:
                with open(write_fd, "wb") as pipe:
                    for part in parts:
                        pipe.write(part)
                status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    result = None
    try:
        with open(read_fd, "rb") as pipe:
            result = parent(pipe)
    finally:
        if result is None:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    return result, status == 0


def _receive_rows(pipe, path, lines: int, kwargs) -> np.ndarray | None:
    """Parse the head here, then read the child's tail from ``pipe``
    (its shape as two int64, then its float64 bytes) into the result."""
    head = _parse(path, max_rows=lines, **kwargs)
    if head is None or len(head) != lines:
        return None
    shape = pipe.read(16)
    if len(shape) != 16:
        return None
    tail_rows, width = np.frombuffer(shape, dtype=np.int64).tolist()
    if width != head.shape[1]:
        return None
    rows = np.empty((lines + tail_rows, width))
    rows[:lines] = head
    tail = rows[lines:].reshape(-1).view(np.uint8)
    return rows if pipe.readinto(tail) == tail.size else None


def _parse_halves(path, lines: int, kwargs) -> np.ndarray | None:
    """Rows of ``path`` parsed on two cores, or None on any failure: the
    parent parses the first ``lines`` lines while a forked child parses
    the rest."""

    def tail():
        rows = _parse(path, skiprows=lines, **kwargs)
        if rows is None:
            return None
        return np.array(rows.shape, dtype=np.int64), rows.reshape(-1).view(np.uint8)

    rows, ok = _beside_child(tail, lambda pipe: _receive_rows(pipe, path, lines, kwargs))
    return rows if ok else None


def _loadtxt(path, **kwargs) -> np.ndarray | None:
    """The rows of a whole file, 2-D, or None if ``np.loadtxt`` raises.

    This is only the fast path. Anything it cannot parse cleanly, a row
    of the wrong width included, goes to the line-by-line readers below,
    which own every error message and accept whatever ``float()``
    accepts. A large file is parsed in halves on two cores, as one pass.
    """
    lines = _head_lines(path, kwargs.get("delimiter"))
    rows = None if lines is None else _parse_halves(path, lines, kwargs)
    return _parse(path, **kwargs) if rows is None else rows


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
    return np.array(values).reshape(-1, 1)


def _load_plain(path, spacing: float, origin: float) -> SampledSeries:
    rows = _loadtxt(path)
    if rows is None or rows.shape[1:] != (1,) or not np.isfinite(rows).all():
        rows = _read_plain_lines(path)
    if not rows.size:
        raise SeriesFormatError(f"{path}: no samples found")
    return SampledSeries(rows[:, 0], spacing=spacing, origin=origin)


def _read_csv_rows(path) -> np.ndarray:
    import csv

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
    rows = _loadtxt(path, delimiter=",", quotechar='"')
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


def _text_output(path, newline=None):
    """``path`` if it is an open text stream, else the file opened for writing, as a context."""
    if hasattr(path, "write"):
        return contextlib.nullcontext(path)
    return open(path, "w", encoding="utf-8", newline=newline)


def write_json(payload: dict, path) -> None:
    """``payload`` as indented JSON and a newline, to ``path`` or an open text stream."""
    with _text_output(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_table(header, rows, path, lineterminator: str = "\n") -> None:
    """``header`` and ``rows`` as comma-separated lines, to ``path`` or an open text stream."""
    import csv

    with _text_output(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(rows)


# Report rows are formatted straight from the candidate columns, one block
# at a time. The templates spell each row exactly as ``json.dump(...,
# indent=2)`` and ``csv.writer`` would; the golden-bytes tests pin that.
# A JSON row starts with the comma before it, so the first row's is dropped.
_ROW_FIELDS = ("index", "time", "height", "p_value", "rejected")
_ROW_BLOCK = 4096
# format -> (row template, spelling of a non-finite float, of False and True)
_ROW_FORMATS = {
    "json": (
        ",\n    {\n" + ",\n".join(f'      "{f}": %s' for f in _ROW_FIELDS) + "\n    }",
        json.dumps,  # Infinity, NaN
        ("false", "true"),
    ),
    "csv": ("%s,%s,%s,%s,%s\r\n", float.__repr__, ("0", "1")),
}
# A report of this many rows is formatted on two cores.
_SPLIT_MIN_ROWS = 1 << 14
# The second half of a split report is copied out in chunks of this size.
_COPY_CHUNK = 1 << 16


def _spelled(values: list, non_finite) -> list:
    """Floats as ``repr`` spells them, a non-finite one as ``non_finite`` does."""
    texts = list(map(float.__repr__, values))
    if not all(map(math.isfinite, values)):
        texts = [t if math.isfinite(v) else non_finite(v) for t, v in zip(texts, values)]
    return texts


def _row_blocks(candidates: Candidates, start: int, stop: int, fmt: str):
    """The text of rows ``[start, stop)``, one block of rows at a time."""
    template, non_finite, bools = _ROW_FORMATS[fmt]
    for block in range(start, stop, _ROW_BLOCK):
        index, *floats, rejected = _row_columns(candidates, block, min(block + _ROW_BLOCK, stop))
        rows = zip(
            index,
            *(_spelled(values, non_finite) for values in floats),
            map(bools.__getitem__, rejected),
        )
        yield "".join(map(template.__mod__, rows))


def _write_rows(fh, candidates: Candidates, start: int, stop: int, fmt: str, skip: int) -> None:
    """Write rows ``[start, stop)`` to ``fh``, less their first ``skip`` characters."""
    for text in _row_blocks(candidates, start, stop, fmt):
        fh.write(text[skip:])
        skip = max(0, skip - len(text))


def _copy_text(pipe, fh) -> int:
    """Copy ASCII text from ``pipe`` to ``fh``; return the bytes copied."""
    copied = 0
    while chunk := pipe.read(_COPY_CHUNK):
        fh.write(chunk.decode("ascii"))
        copied += len(chunk)
    return copied


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

    At least ``_SPLIT_MIN_ROWS`` rows are formatted on two cores: a forked
    child formats the second half of the rows while this process hashes
    the input and writes the head and the first half, and then
    copies the child's text after them. Whatever the child does not
    deliver, because the fork failed or the child did not exit cleanly,
    is formatted here, so the bytes never depend on the split.
    """
    if fmt not in _ROW_FORMATS:
        raise ValueError(f"unknown report format {fmt!r}")
    # A CSV report's manifest goes beside it, so a stream is refused at once.
    manifest_path = os.fspath(path) + ".manifest.json" if fmt == "csv" else None
    candidates = result.candidates
    n = len(candidates)
    seam = n
    with contextlib.ExitStack() as outputs:

        def write_front():
            digest = file_sha256(input_path) if input_path else None
            head = _report_head(result, input_path, digest)
            # Opened only now: the report may overwrite its own input.
            fh = outputs.enter_context(_text_output(path, "" if fmt == "csv" else None))
            if fmt == "json":
                # ``head`` dumps to "{...\n}"; reopen it and append the rows as its last key.
                fh.write(json.dumps(head, indent=2)[:-2] + ',\n  "maxima": [')
            else:
                fh.write(",".join(_ROW_FIELDS) + "\r\n")
            _write_rows(fh, candidates, 0, seam, fmt, 1 if fmt == "json" else 0)
            return head, fh

        def front_then_copy(pipe):
            head, fh = write_front()
            return head, fh, _copy_text(pipe, fh)

        front, ok = None, True  # ok: no rows are left to a child
        if n >= _SPLIT_MIN_ROWS and _can_fork():
            seam = max(1, n // 2)
            front, ok = _beside_child(
                lambda: [text.encode("ascii") for text in _row_blocks(candidates, seam, n, fmt)],
                front_then_copy,
            )
        head, fh, copied = front or (*write_front(), 0)
        if not ok:
            _write_rows(fh, candidates, seam, n, fmt, copied)
        if fmt == "json":
            fh.write("\n  ]\n}\n" if n else "]\n}\n")
    if fmt == "csv":
        write_json(head, manifest_path)


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
    (gamma, method) cell, manifest sidecar). ``path`` may also be an open
    text stream such as ``sys.stdout`` for JSON."""
    payload = sim_report_dict(report)
    if fmt == "json":
        write_json(payload, path)
        return
    if fmt == "csv":
        manifest = {k: v for k, v in payload.items() if k != "cells"}
        write_json(manifest, os.fspath(path) + ".manifest.json")  # first: a stream is refused
        write_table(_SIM_FIELDS, map(dict.values, payload["cells"]), path, "\r\n")
        return
    raise ValueError(f"unknown report format {fmt!r}")
