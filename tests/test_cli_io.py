"""Tests for file formats, report writing, and the command line."""

import dataclasses
import hashlib
import io
import json
import math
import os
import re
import signal
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from peaksig import (
    DetectorConfig,
    Grid,
    NoiseSpec,
    SeriesFormatError,
    detect,
    detection_report_dict,
    file_sha256,
    load_series,
    run_simulation,
    standard_design,
    synthesize_noise,
    write_detection_report,
    write_sim_report,
)
from peaksig import cli
from peaksig import io as peaksig_io
from peaksig.cli import main
from peaksig.io import _read_csv_rows, _read_plain_lines
from peaksig.maxima import Candidates
from peaksig.moments_est import ESTIMATORS
from peaksig.mtp import _METHODS

KNOWN = DetectorConfig(gamma=3.0, method="bh", moments_source=NoiseSpec())


def small_result(seed=2):
    series = synthesize_noise(NoiseSpec(), Grid(400), seed=seed)
    return detect(series, KNOWN), series


def refuse(*args, **kwargs):
    raise AssertionError("called after a usage error")


def write_noise_file(path, n=400, seed=2):
    series = synthesize_noise(NoiseSpec(), Grid(n), seed=seed)
    path.write_text("".join(f"{v!r}\n" for v in series.values.tolist()))
    return series


def explicit_study():
    """An explicit-layout study file, with JSON integers in float fields."""
    return {
        "signal": {"peaks": [[10, 50], [8, 120]], "peak_scale": 3, "peak_truncation": 2},
        "noise": {"sigma": 1, "nu": 1},
        "grid": {"length": 200, "spacing": 1, "origin": 0},
        "gammas": [3],
        "replications": 4,
    }


def parsed(argv):
    return cli.build_parser().parse_args(argv)


class TestLoadSeriesPlain:
    def test_basic(self, tmp_path):
        f = tmp_path / "x.txt"
        f.write_text("0\n1\n0\n")
        s = load_series(f)
        assert s.values.tolist() == [0.0, 1.0, 0.0]
        assert s.spacing == 1.0 and s.origin == 0.0

    def test_spacing_and_origin(self, tmp_path):
        f = tmp_path / "x.txt"
        f.write_text("1.5\n2.5\n")
        s = load_series(f, spacing=0.25, origin=10.0)
        assert s.spacing == 0.25 and s.origin == 10.0

    def test_blank_lines_skipped(self, tmp_path):
        f = tmp_path / "x.txt"
        f.write_text("1\n\n  \n2\n")
        assert load_series(f).values.tolist() == [1.0, 2.0]

    def test_parse_error_names_line(self, tmp_path):
        f = tmp_path / "x.txt"
        f.write_text("1\n2\nabc\n")
        with pytest.raises(SeriesFormatError, match="line 3"):
            load_series(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "x.txt"
        f.write_text("\n\n")
        with pytest.raises(SeriesFormatError, match="no samples"):
            load_series(f)

    def test_unknown_format(self, tmp_path):
        f = tmp_path / "x.txt"
        f.write_text("1\n")
        with pytest.raises(ValueError):
            load_series(f, fmt="parquet")

    def test_single_sample(self, tmp_path):
        f = tmp_path / "x.txt"
        f.write_text("2.5\n")
        assert load_series(f).values.tolist() == [2.5]

    def test_accepts_what_float_accepts(self, tmp_path):
        # Underscored digits defeat np.loadtxt; the line reader takes them.
        f = tmp_path / "x.txt"
        f.write_text("1_0\n 2.5 \n-3e-1\n")
        assert load_series(f).values.tolist() == [10.0, 2.5, -0.3]

    def test_two_numbers_on_a_line_rejected(self, tmp_path):
        f = tmp_path / "x.txt"
        f.write_text("1 2\n3 4\n")
        with pytest.raises(SeriesFormatError, match="line 1: expected one number"):
            load_series(f)
        # Also when that line is the file's only one.
        f.write_text("1 2 3\n")
        with pytest.raises(SeriesFormatError, match="line 1: expected one number"):
            load_series(f)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_names_line(self, tmp_path, bad):
        f = tmp_path / "x.txt"
        f.write_text(f"1\n\n2\n{bad}\n3\n")
        with pytest.raises(SeriesFormatError, match="line 4: non-finite"):
            load_series(f)


class TestLoadSeriesCsv:
    def test_spacing_inferred(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("2.0,10\n2.5,11\n3.0,12\n")
        s = load_series(f, fmt="csv")
        assert s.values.tolist() == [10.0, 11.0, 12.0]
        assert s.spacing == pytest.approx(0.5)
        assert s.origin == pytest.approx(2.0)

    def test_jitter_rejected(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("0.0,1\n1.01,2\n2.0,3\n")
        with pytest.raises(SeriesFormatError, match="uniform"):
            load_series(f, fmt="csv")

    def test_header_rejected_with_hint(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("time,value\n0,1\n1,2\n")
        with pytest.raises(SeriesFormatError, match="headers are not supported"):
            load_series(f, fmt="csv")

    def test_too_few_rows(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("0,1\n")
        with pytest.raises(SeriesFormatError, match="two rows"):
            load_series(f, fmt="csv")

    def test_wrong_field_count(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("0,1,9\n1,2,9\n")
        with pytest.raises(SeriesFormatError, match="fields"):
            load_series(f, fmt="csv")

    def test_decreasing_times_rejected(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("3,1\n2,2\n1,3\n")
        with pytest.raises(SeriesFormatError, match="increasing"):
            load_series(f, fmt="csv")

    def test_quoted_fields_and_blank_lines(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text('"0.0","1.5"\n\n1.0,2_0\n2.0,3\n')
        assert load_series(f, fmt="csv").values.tolist() == [1.5, 20.0, 3.0]

    @pytest.mark.parametrize("row", ["2,nan", "2,inf", "2,1e400", "inf,1"])
    def test_non_finite_names_line(self, tmp_path, row):
        f = tmp_path / "x.csv"
        f.write_text(f"0,1\n1,2\n{row}\n3,4\n")
        with pytest.raises(SeriesFormatError, match="line 3: non-finite"):
            load_series(f, fmt="csv")

    def test_epoch_timestamps_load(self, tmp_path):
        # 1 ms steps at t ~ 1.7e9 s: float64 resolution there is ~2.4e-7 s,
        # far coarser than 1e-6 of the spacing.
        t0 = 1.7e9 + 0.123
        times = t0 + 1e-3 * np.arange(2000)
        values = np.random.default_rng(9).standard_normal(2000)
        f = tmp_path / "x.csv"
        f.write_text(
            "".join(f"{t!r},{v!r}\n" for t, v in zip(times.tolist(), values.tolist()))
        )
        s = load_series(f, fmt="csv")
        assert s.origin == times[0]
        assert s.spacing == pytest.approx(1e-3, rel=1e-6)
        assert s.values.tobytes() == values.tobytes()

    def test_epoch_timestamps_with_a_gap_rejected(self, tmp_path):
        times = 1.7e9 + 1e-3 * np.arange(2000)
        times[1000:] += 5e-4
        f = tmp_path / "x.csv"
        f.write_text("".join(f"{t!r},1.0\n" for t in times.tolist()))
        with pytest.raises(
            SeriesFormatError,
            match=r"not uniformly spaced \(tolerance 1e-6 relative\)",
        ):
            load_series(f, fmt="csv")


BOM = b"\xef\xbb\xbf"
# Two values in each format; "1_0" sends the file to the line reader.
ENCODED = {
    "plain": [b"0.5\n-1.25\n3e-1\n", b"0.5\n1_0\n-1.25\n"],
    "csv": [b"0.0,0.5\n0.5,-1.25\n1.0,3e-1\n", b"0.0,0.5\n0.5,1_0\n1.0,-1.25\n"],
}
LINE_READERS = {"plain": _read_plain_lines, "csv": _read_csv_rows}


class TestInputEncoding:
    @pytest.mark.parametrize("fmt", sorted(ENCODED))
    @pytest.mark.parametrize("which", [0, 1], ids=["fast", "lines"])
    def test_byte_order_mark_is_dropped(self, tmp_path, monkeypatch, fmt, which):
        raw = ENCODED[fmt][which]
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_bytes(raw)
        marked.write_bytes(BOM + raw)
        read = LINE_READERS[fmt]
        assert read(marked).tobytes() == read(plain).tobytes()
        want = load_series(plain, fmt)
        if which == 0:
            # The fast path reads the mark itself, without the line reader.
            monkeypatch.setattr(peaksig_io, read.__name__, refuse)
        got = load_series(marked, fmt)
        assert got.values.tobytes() == want.values.tobytes()
        assert (got.spacing, got.origin) == (want.spacing, want.origin)

    @pytest.mark.parametrize("fmt", sorted(ENCODED))
    def test_non_utf8_is_a_format_error(self, tmp_path, fmt):
        f = tmp_path / "utf16"
        f.write_bytes(ENCODED[fmt][0].decode().encode("utf-16"))
        assert f.read_bytes()[:2] == b"\xff\xfe"
        with pytest.raises(SeriesFormatError, match=re.escape(f"{f}: not UTF-8 text")):
            load_series(f, fmt)
        with pytest.raises(SeriesFormatError, match="not UTF-8 text"):
            LINE_READERS[fmt](f)

    def test_cli_reads_byte_order_mark(self, tmp_path, capsys):
        series = synthesize_noise(NoiseSpec(), Grid(400), seed=2)
        raw = "".join(f"{v!r}\n" for v in series.values.tolist()).encode()
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(raw)
        marked.write_bytes(BOM + raw)
        reports = []
        for src in (plain, marked):
            assert main(["detect", str(src), "--gamma", "3", "--noise-sigma", "1"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[0]["maxima"] == reports[1]["maxima"]
        # The digest is of the bytes on disk, mark included.
        assert reports[1]["input"]["sha256"] == hashlib.sha256(BOM + raw).hexdigest()
        outputs = []
        for src in (plain, marked):
            assert main(["estimate-moments", str(src), "--gamma", "3"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["detect", "estimate-moments"])
    def test_cli_non_utf8_exit_2(self, tmp_path, capsys, command):
        src = tmp_path / "series.txt"
        src.write_bytes(b"\xff\xfe0\x00.\x005\x00\n\x00")
        assert main([command, str(src), "--gamma", "3"]) == 2
        assert f"{src}: not UTF-8 text" in capsys.readouterr().err


def load_or_error(path, fmt):
    """What ``load_series`` gives: the series' bits, or its error text."""
    try:
        s = load_series(path, fmt)
    except SeriesFormatError as exc:
        return str(exc)
    return s.values.tobytes(), s.values.shape, s.spacing, s.origin


ROW = {"plain": lambda i, v: repr(v), "csv": lambda i, v: f"{0.5 * i!r},{v!r}"}
# Lines that np.loadtxt skips, parses differently from one number per
# line, or refuses, so that the head scan, the fallback and the line
# readers all get their turn on both sides of the split.
ODD_LINES = {
    "plain": [
        b"", b"   ", b"\t", b"\x0b", b"\x1c", b"\xc2\xa0", b"\xe2\x80\xa8", b" 2.5 ",
        b"1.5  ", b"nan", b"1e400", b"-inf", b"abc", b"1 2", b"1_0", b"\xff\xfe", BOM,
    ],
    "csv": [
        b"", b"  ", b"\t", b'"0.5","1.5"', b'"0.5\n",1', b'0,"2\r\n3"', b"1,2,3", b"7",
        b"nan,1", b"1,1e400", b"time,value", b"\xff\xfe,1", b",", b"0.5,1 ", b"1_0,2",
    ],
}


@st.composite
def series_bytes(draw, fmt):
    """A small series file in ``fmt`` with a few odd lines and endings."""
    values = draw(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40))
    lines = [ROW[fmt](i, v).encode() for i, v in enumerate(values)]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(ODD_LINES[fmt])))
    line_ends = st.sampled_from([b"\n", b"\r\n", b"\r"])
    endings = [draw(line_ends)] * len(lines)
    if draw(st.booleans()):
        endings[draw(st.integers(0, len(lines) - 1))] = draw(line_ends)
    if not draw(st.booleans()):
        endings[-1] = b""
    head = BOM if draw(st.booleans()) else b""
    return head + b"".join(line + end for line, end in zip(lines, endings))


@pytest.fixture
def split_small(monkeypatch):
    """Parse even tiny files in two halves, and count the forks."""
    monkeypatch.setattr(peaksig_io, "_SPLIT_MIN_BYTES", 0)
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fork_state() -> str:
    """What decides whether a split forks, for the message of a fork count."""
    return (
        f"threads {threading.enumerate()}, SIGCHLD {signal.getsignal(signal.SIGCHLD)!r}, "
        f"usable CPUs {peaksig_io._usable_cpus()}"
    )


SPLIT_FILES = {
    "plain": b"".join(b"%r\n" % v for v in np.linspace(-3, 3, 40).tolist()),
    "csv": b"".join(b"%r,%r\n" % (0.25 * i, i % 7 - 3.5) for i in range(40)),
}


# One line inserted into a split file, before its first line, in its head
# or in its tail.
EDGE_LINES = {
    "plain": [
        b"\n", b"   \n", b"\xc2\xa0\n", b"2.5  \n", b"nan\n", b"1e400\n", b"abc\n", b"\xff\n",
    ],
    "csv": [
        b"\n", b"  \n", b'"1","2"\n', b'"0.5\n",1\n', b"1,nan\n", b"abc\n", b"\xff,1\n", b"1,2,3\n",
    ],
}


def with_line(raw: bytes, where: int, line: bytes) -> bytes:
    lines = raw.splitlines(keepends=True)
    lines.insert(where, line)
    return b"".join(lines)


def bare_cr_and_blank(raw: bytes) -> bytes:
    # A bare CR ends a line but not a newline count; a blank line after it
    # evens the count again.
    lines = raw.splitlines(keepends=True)
    lines[3] = lines[3][:-1] + b"\r"
    lines.insert(6, b"\n")
    return b"".join(lines)


FILE_EDITS = {
    "crlf": lambda raw: raw.replace(b"\n", b"\r\n"),
    "bare cr": lambda raw: raw.replace(b"\n", b"\r"),
    "bom": lambda raw: BOM + raw,
    # The tail is one line of spaces, which holds no row.
    "blank tail": lambda raw: raw + b" " * (len(raw) - 1),
    "bare cr and blank": bare_cr_and_blank,
}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the split needs os.fork")
class TestSplitParse:
    """A file of at least ``_SPLIT_MIN_BYTES`` is parsed in two halves, the
    tail in a forked child; the result must not depend on it."""

    @pytest.mark.parametrize("fmt", sorted(ROW))
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_split_matches_serial(self, tmp_path, fmt, data):
        raw = data.draw(series_bytes(fmt))
        # A fresh name per file: truncating a file can cost a flush.
        f = tmp_path / hashlib.sha256(raw).hexdigest()
        if not f.exists():
            f.write_bytes(raw)
        block = data.draw(st.sampled_from([1, 2, 3, 7, 1 << 20]))
        self.assert_split_matches_serial(f, fmt, block)

    def assert_split_matches_serial(self, path, fmt, block=5):
        # Small scan blocks put block ends inside lines and line ends.
        serial = load_or_error(path, fmt)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(peaksig_io, "_SPLIT_MIN_BYTES", 0)
            mp.setattr(peaksig_io, "_SCAN_BLOCK", block)
            assert load_or_error(path, fmt) == serial

    @pytest.mark.parametrize("where", [0, 5, 35], ids=["first", "head", "tail"])
    @pytest.mark.parametrize(
        "fmt,line", [(fmt, line) for fmt in sorted(EDGE_LINES) for line in EDGE_LINES[fmt]]
    )
    def test_edge_line_matches_serial(self, tmp_path, fmt, line, where):
        f = tmp_path / "series"
        f.write_bytes(with_line(SPLIT_FILES[fmt], where, line))
        self.assert_split_matches_serial(f, fmt)

    @pytest.mark.parametrize("block", [1, 5])
    @pytest.mark.parametrize("edit", sorted(FILE_EDITS))
    @pytest.mark.parametrize("fmt", sorted(ROW))
    def test_edited_file_matches_serial(self, tmp_path, fmt, edit, block):
        f = tmp_path / "series"
        f.write_bytes(FILE_EDITS[edit](SPLIT_FILES[fmt]))
        self.assert_split_matches_serial(f, fmt, block)

    @pytest.mark.parametrize("edit", ["none", "bom", "crlf"])
    @pytest.mark.parametrize("fmt", sorted(ROW))
    def test_clean_file_takes_the_split(self, tmp_path, split_small, monkeypatch, fmt, edit):
        if not peaksig_io._can_fork():
            pytest.skip("the split needs two usable CPUs")
        f = tmp_path / "series"
        f.write_bytes(FILE_EDITS.get(edit, bytes)(SPLIT_FILES[fmt]))
        halves = []
        parse_halves = peaksig_io._parse_halves
        monkeypatch.setattr(
            peaksig_io, "_parse_halves", lambda *a: halves.append(parse_halves(*a)) or halves[-1]
        )
        got = load_series(f, fmt)
        # A CR is whitespace to the plain scan, so CRLF plain files parse whole.
        split = (fmt, edit) != ("plain", "crlf")
        assert len(split_small) == split, fork_state()
        assert all(h is not None for h in halves)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(peaksig_io, "_SPLIT_MIN_BYTES", 1 << 30)
            want = load_series(f, fmt)
        assert got.values.tobytes() == want.values.tobytes()
        assert (got.spacing, got.origin) == (want.spacing, want.origin)

    @pytest.mark.parametrize("fmt", sorted(ROW))
    def test_no_split_beside_another_thread(self, tmp_path, split_small, fmt):
        f = tmp_path / "series"
        f.write_bytes(SPLIT_FILES[fmt])
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            load_series(f, fmt)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert split_small == [], fork_state()

    def test_no_split_with_sigchld_ignored(self, tmp_path, split_small):
        f = tmp_path / "series"
        f.write_bytes(SPLIT_FILES["plain"])
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            got = load_series(f)
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert split_small == [], fork_state()
        assert got.values.tolist() == np.linspace(-3, 3, 40).tolist()

    @pytest.mark.parametrize("fmt", sorted(ROW))
    def test_failed_fork_parses_serially(self, tmp_path, monkeypatch, fmt):
        f = tmp_path / "series"
        f.write_bytes(SPLIT_FILES[fmt])
        want = load_series(f, fmt)
        monkeypatch.setattr(peaksig_io, "_SPLIT_MIN_BYTES", 0)

        def no_fork():
            raise OSError("no more processes")

        monkeypatch.setattr(os, "fork", no_fork)
        assert load_series(f, fmt).values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("fmt", sorted(ROW))
    def test_child_reaped_after_success_and_failure(self, tmp_path, split_small, fmt):
        f = tmp_path / "series"
        f.write_bytes(SPLIT_FILES[fmt])
        load_series(f, fmt)
        assert_no_child()
        f.write_bytes(SPLIT_FILES[fmt] + b"abc\n" + SPLIT_FILES[fmt][:-1] + b"x\n")
        with pytest.raises(SeriesFormatError, match="line 41"):
            load_series(f, fmt)
        assert_no_child()

    def test_child_reaped_on_keyboard_interrupt(self, tmp_path, split_small, monkeypatch):
        f = tmp_path / "series"
        f.write_bytes(SPLIT_FILES["plain"])
        parse = peaksig_io._parse

        def interrupted_head(path, **kwargs):
            if "max_rows" in kwargs:  # the parent's half; the child parses on
                raise KeyboardInterrupt
            return parse(path, **kwargs)

        monkeypatch.setattr(peaksig_io, "_parse", interrupted_head)
        with pytest.raises(KeyboardInterrupt):
            load_series(f)
        assert_no_child()

    def test_unflushed_stdout_written_once(self, tmp_path, split_small, monkeypatch, capfd):
        f = tmp_path / "series"
        f.write_bytes(SPLIT_FILES["plain"])
        out = io.TextIOWrapper(open(os.dup(1), "wb"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", out)
        sys.stdout.write("written before the load")
        load_series(f)
        out.close()
        assert len(split_small) == 1, fork_state()
        assert capfd.readouterr().out.count("written before the load") == 1

    def test_no_warning_escapes(self, tmp_path, split_small, monkeypatch):
        # Python >= 3.12 warns on fork in a process with threads, such as
        # numpy's OpenBLAS pool; the wrapper warns as it would.
        f = tmp_path / "series"
        f.write_bytes(SPLIT_FILES["plain"])
        fork = os.fork

        def warning_fork():
            pid = fork()
            if pid:
                warnings.warn("this process is multi-threaded", DeprecationWarning)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_series(f)
        assert len(split_small) == 1, fork_state()


def made_up_result(n, seed=5):
    """``small_result`` with ``n`` made-up rows, some of them non-finite."""
    result, _ = small_result()
    rng = np.random.default_rng(seed)
    times, height, p_value = rng.normal(size=(3, n)) * [[1e3], [1.0], [1e-3]]
    times[3::29], height[5::31], p_value[7::37] = -np.inf, np.nan, np.inf
    rows = Candidates(3 * np.arange(n), times, height, p_value, rng.random(n) < 0.3)
    return dataclasses.replace(result, candidates=rows)


_CREATED = re.compile(rb'"created_utc": "[^"]*"')

# Where a report goes: a JSON file, stdout (a stream), or a CSV file and
# its manifest.
REPORT_TARGETS = ("json file", "json stdout", "csv file")


def report_bytes(result, target, directory, input_path=None) -> bytes:
    """The report's bytes, manifest included, with ``created_utc`` masked."""
    if target == "json stdout":
        out = io.BytesIO()
        stream = io.TextIOWrapper(out, encoding="utf-8")
        write_detection_report(result, stream, input_path=input_path)
        stream.flush()
        return _CREATED.sub(b"", out.getvalue())
    fmt = target.split()[0]
    path = directory / f"report.{fmt}"
    write_detection_report(result, path, fmt=fmt, input_path=input_path)
    data = path.read_bytes()
    if fmt == "csv":
        data += b"\0" + (directory / "report.csv.manifest.json").read_bytes()
    return _CREATED.sub(b"", data)


def serial_bytes(result, target, directory, input_path=None) -> bytes:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(peaksig_io, "_SPLIT_MIN_ROWS", 1 << 62)
        return report_bytes(result, target, directory, input_path)


@pytest.fixture
def split_reports(monkeypatch):
    """Split even tiny reports, in blocks of 8 rows, copied in chunks of 100
    bytes, so seams and chunk ends fall inside blocks and rows; count forks
    and record the rows this process formats."""
    monkeypatch.setattr(peaksig_io, "_SPLIT_MIN_ROWS", 0)
    monkeypatch.setattr(peaksig_io, "_ROW_BLOCK", 8)
    monkeypatch.setattr(peaksig_io, "_COPY_CHUNK", 100)
    forks, spans = [], []
    real_fork, write_rows = os.fork, peaksig_io._write_rows

    def counted_fork():
        forks.append(None)
        return real_fork()

    def recorded_rows(fh, candidates, start, stop, fmt, skip):
        spans.append((start, stop))
        write_rows(fh, candidates, start, stop, fmt, skip)

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(peaksig_io, "_write_rows", recorded_rows)
    return forks, spans


def child_parts(edit):
    """Wrap ``_beside_child`` so that the child sends ``edit(parts)``."""
    beside_child = peaksig_io._beside_child

    def edited(child, parent):
        return beside_child(lambda: edit(child()), parent)

    return edited


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the split needs os.fork")
class TestSplitReport:
    """A report of at least ``_SPLIT_MIN_ROWS`` rows is formatted on two
    cores, the rows from its seam on in a forked child; its bytes must
    equal the serial writer's."""

    @pytest.fixture(autouse=True)
    def two_cpus(self):
        if not peaksig_io._can_fork():
            pytest.skip("the split needs two usable CPUs")

    @pytest.mark.parametrize("target", REPORT_TARGETS)
    @pytest.mark.parametrize(
        "n, least, seam",
        [(40, 41, None), (40, 40, 20), (64, 64, 32), (0, 0, 1), (1, 0, 1)],
        ids=["below threshold", "at threshold", "seam on a block end", "no rows", "one row"],
    )
    def test_split_matches_serial(self, tmp_path, split_reports, monkeypatch, target, n, least, seam):
        forks, spans = split_reports
        monkeypatch.setattr(peaksig_io, "_SPLIT_MIN_ROWS", least)
        result = made_up_result(n)
        want = serial_bytes(result, target, tmp_path)
        spans.clear()
        assert report_bytes(result, target, tmp_path) == want
        assert len(forks) == (seam is not None), fork_state()
        # Rows the child delivered are not formatted here again.
        assert spans == [(0, n if seam is None else seam)]
        if seam == 32:
            assert seam % peaksig_io._ROW_BLOCK == 0
        assert_no_child()

    def test_report_may_overwrite_its_input(self, tmp_path, split_reports):
        # The input is hashed before the output is opened, as when serial.
        result = made_up_result(50)
        path = tmp_path / "report.csv"
        path.write_bytes(b"0.5\n" * 10)
        digest = file_sha256(path)
        write_detection_report(result, path, fmt="csv", input_path=str(path))
        manifest = json.loads((tmp_path / "report.csv.manifest.json").read_text())
        assert manifest["input"]["sha256"] == digest
        assert len(split_reports[0]) == 1, fork_state()

    @pytest.mark.parametrize("target", REPORT_TARGETS)
    def test_failed_fork_formats_serially(self, tmp_path, split_reports, monkeypatch, target):
        result = made_up_result(70)
        want = serial_bytes(result, target, tmp_path)

        def no_fork():
            raise OSError("no more processes")

        monkeypatch.setattr(os, "fork", no_fork)
        assert report_bytes(result, target, tmp_path) == want

    @pytest.mark.parametrize("target", REPORT_TARGETS)
    @pytest.mark.parametrize(
        "edit",
        [
            lambda parts: None,  # the child fails before it sends anything
            lambda parts: parts[:2] + [object()],  # after two blocks
            lambda parts: [parts[0][:5], object()],  # inside a row
        ],
        ids=["nothing sent", "two blocks sent", "five bytes sent"],
    )
    def test_child_failure_is_formatted_here(self, tmp_path, split_reports, monkeypatch, target, edit):
        # A part that is not a buffer makes the child's write raise, so it
        # exits non-zero after sending the parts before it.
        forks, spans = split_reports
        result = made_up_result(70)
        want = serial_bytes(result, target, tmp_path)
        spans.clear()
        monkeypatch.setattr(peaksig_io, "_beside_child", child_parts(edit))
        assert report_bytes(result, target, tmp_path) == want
        assert len(forks) == 1, fork_state()
        assert spans == [(0, 35), (35, 70)]
        assert_no_child()

    def test_child_reaped_on_keyboard_interrupt(self, tmp_path, split_reports, monkeypatch):
        src = tmp_path / "input.txt"
        src.write_bytes(b"0.5\n")

        def interrupted(path):  # the parent hashes; the child formats on
            raise KeyboardInterrupt

        monkeypatch.setattr(peaksig_io, "file_sha256", interrupted)
        # A slow child is killed, not waited for.
        monkeypatch.setattr(
            peaksig_io, "_beside_child", child_parts(lambda parts: time.sleep(60) or parts)
        )
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            write_detection_report(made_up_result(70), tmp_path / "r.json", input_path=str(src))
        assert time.monotonic() - start < 30
        assert len(split_reports[0]) == 1, fork_state()
        assert_no_child()

    def test_child_reaped_on_broken_output(self, tmp_path, split_reports):
        class Broken(io.StringIO):
            def write(self, text):
                if self.tell() > 200:
                    raise BrokenPipeError("reader went away")
                return super().write(text)

        with pytest.raises(BrokenPipeError):
            write_detection_report(made_up_result(70), Broken())
        assert len(split_reports[0]) == 1, fork_state()
        assert_no_child()

    def test_no_split_beside_another_thread(self, tmp_path, split_reports):
        result = made_up_result(70)
        want = serial_bytes(result, "json file", tmp_path)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            got = report_bytes(result, "json file", tmp_path)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert split_reports[0] == [], fork_state()
        assert got == want

    def test_no_split_with_sigchld_ignored(self, tmp_path, split_reports):
        result = made_up_result(70)
        want = serial_bytes(result, "json file", tmp_path)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            got = report_bytes(result, "json file", tmp_path)
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert split_reports[0] == [], fork_state()
        assert got == want

    def test_unflushed_stdout_written_once(self, split_reports, monkeypatch, capfd):
        result = made_up_result(70)
        out = io.TextIOWrapper(open(os.dup(1), "wb"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", out)
        sys.stdout.write("written before the report\n")
        write_detection_report(result, sys.stdout)
        out.close()
        assert len(split_reports[0]) == 1, fork_state()
        text = capfd.readouterr().out
        assert text.count("written before the report") == 1
        report = json.loads(text.split("\n", 1)[1])
        assert report == json.loads(json.dumps(detection_report_dict(result)))

    def test_no_warning_escapes(self, tmp_path, split_reports, monkeypatch):
        # Python >= 3.12 warns on fork in a process with threads, such as
        # numpy's OpenBLAS pool; the wrapper warns as it would.
        fork = os.fork

        def warning_fork():
            pid = fork()
            if pid:
                warnings.warn("this process is multi-threaded", DeprecationWarning)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report_bytes(made_up_result(70), "json file", tmp_path)
        assert len(split_reports[0]) == 1, fork_state()


@pytest.mark.parametrize("gamma", ["1e6", "1e15", "1e308"])
@pytest.mark.parametrize(
    "command", [["detect", "--noise-sigma", "1"], ["estimate-moments"]], ids=lambda c: c[0]
)
def test_huge_bandwidth_refused_before_any_kernel(tmp_path, capsys, command, gamma):
    # A 1e6 bandwidth would build 8e6 taps (64 MB), 1e15 more than any
    # address space holds, 1e308 an infinite reach: all are refused first.
    # At 1e308 the noise model's moments leave the float range, which detect
    # refuses even before it reads the input.
    refusal = "series too short for the requested kernel"
    if command[0] == "detect" and gamma == "1e308":
        refusal = "put the model moments outside the float range"
    src = tmp_path / "series.txt"
    write_noise_file(src, n=300)
    tracemalloc.start()
    try:
        code = main([command[0], str(src), "--gamma", gamma, *command[1:]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert refusal in capsys.readouterr().err
    assert peak < 8 << 20


@pytest.mark.parametrize(
    "study, flags",
    [
        ({"design": {"num_peaks": 2}, "gammas": [3.0]}, ["--gammas", "1e9"]),
        ({"design": {"num_peaks": 2, "nu": 1e9}, "gammas": [3.0]}, []),
    ],
    ids=["gamma", "nu"],
)
def test_huge_simulation_bandwidth_refused_before_any_kernel(tmp_path, capsys, study, flags):
    # Either kernel, 8e9 taps wide, and the padded draws would need ~60 GiB.
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps(study))
    tracemalloc.start()
    try:
        code = main(["simulate", "--config", str(cfg), "--seed", "1", *flags])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "grid too short for the requested kernel" in capsys.readouterr().err
    assert peak < 8 << 20


class TestDetectionReports:
    def test_json_roundtrip_is_exact(self, tmp_path):
        result, _ = small_result()
        out = tmp_path / "report.json"
        write_detection_report(result, out, fmt="json")
        loaded = json.loads(out.read_text())
        c = result.candidates
        assert loaded["num_maxima"] == len(c)
        assert loaded["num_rejected"] == int(np.count_nonzero(c.rejected))
        assert loaded["decision"]["p_threshold"] == result.decision.p_threshold
        assert loaded["decision"]["rejected_indices"] == list(
            result.decision.rejected_indices
        )
        assert [row["time"] for row in loaded["maxima"]] == c.time.tolist()
        assert [row["height"] for row in loaded["maxima"]] == c.height.tolist()
        assert [row["p_value"] for row in loaded["maxima"]] == c.p_value.tolist()
        assert loaded["tool"] == "peaksig"
        assert loaded["config"]["gamma"] == 3.0

    def test_infinite_threshold_roundtrips(self, tmp_path):
        # m = 0 gives an infinite p-threshold; stdlib JSON carries it.
        flat = detect(synthesize_noise(NoiseSpec(), Grid(400), seed=3), KNOWN)
        report = detection_report_dict(flat)
        if math.isfinite(report["decision"]["p_threshold"]):
            report["decision"]["p_threshold"] = math.inf
        text = json.dumps(report)
        assert json.loads(text)["decision"]["p_threshold"] == math.inf

    def test_csv_with_manifest(self, tmp_path):
        result, series = small_result()
        src = tmp_path / "input.txt"
        src.write_text("".join(f"{v!r}\n" for v in series.values.tolist()))
        out = tmp_path / "report.csv"
        write_detection_report(result, out, fmt="csv", input_path=str(src))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,time,height,p_value,rejected"
        assert len(lines) == 1 + len(result.candidates)
        # Values reparse exactly: repr round-trips doubles.
        first = lines[1].split(",")
        assert float(first[2]) == result.candidates.height[0]
        assert float(first[3]) == result.candidates.p_value[0]
        manifest = json.loads((tmp_path / "report.csv.manifest.json").read_text())
        assert manifest["tool"] == "peaksig"
        assert manifest["version"]
        assert manifest["created_utc"]
        assert manifest["input"]["sha256"] == file_sha256(src)
        assert manifest["config"]["method"] == "bh"
        assert "maxima" not in manifest

    def test_unknown_format(self, tmp_path):
        result, _ = small_result()
        with pytest.raises(ValueError):
            write_detection_report(result, tmp_path / "x", fmt="yaml")


class TestSimReports:
    CONFIG = standard_design(num_peaks=2, replications=4, base_seed=11)

    def test_json_roundtrip(self, tmp_path):
        report = run_simulation(self.CONFIG)
        out = tmp_path / "sim.json"
        write_sim_report(report, out)
        loaded = json.loads(out.read_text())
        assert loaded["seed"] == 11
        assert len(loaded["cells"]) == 2
        for row, cell in zip(loaded["cells"], report.cells):
            assert row["gamma"] == cell.gamma
            assert row["method"] == cell.method
            assert row["power"] == cell.power
            assert row["fwer"] == cell.fwer

    def test_json_to_stream_equals_file(self, tmp_path):
        report = run_simulation(self.CONFIG)
        out, stream = tmp_path / "sim.json", io.StringIO()
        write_sim_report(report, out)
        write_sim_report(report, stream)
        assert _CREATED.sub(b"", stream.getvalue().encode()) == _CREATED.sub(b"", out.read_bytes())

    def test_csv_to_stream_refused(self):
        # The manifest goes beside the file, and a stream has no path.
        stream = io.StringIO()
        with pytest.raises(TypeError):
            write_sim_report(run_simulation(self.CONFIG), stream, fmt="csv")
        assert stream.getvalue() == ""

    def test_csv_rows_per_cell(self, tmp_path):
        report = run_simulation(self.CONFIG)
        out = tmp_path / "sim.csv"
        write_sim_report(report, out, fmt="csv")
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("gamma,method,fwer")
        assert len(lines) == 1 + len(report.cells)
        manifest = json.loads((tmp_path / "sim.csv.manifest.json").read_text())
        assert manifest["config"]["replications"] == 4


class TestFileSha256:
    def test_matches_hashlib(self, tmp_path):
        import hashlib

        f = tmp_path / "blob.bin"
        f.write_bytes(b"peak heights\n" * 100)
        assert file_sha256(f) == hashlib.sha256(f.read_bytes()).hexdigest()


def json_number(lo, hi):
    """A JSON number in ``[lo, hi]``: a float, or an integer."""
    return st.one_of(st.floats(lo, hi), st.integers(math.ceil(lo), math.floor(hi)))


# Accepted detect configs, one per moment source: an estimator, a noise
# model and an explicit triple (lambda4 from sigma2 * lambda4 > lambda2^2).
DETECT_CONFIGS = st.fixed_dictionaries(
    {
        "gamma": json_number(0.5, 8),
        "moments_source": st.one_of(
            st.sampled_from(sorted(ESTIMATORS)),
            st.fixed_dictionaries({"sigma": json_number(0.1, 10)}, optional={"nu": json_number(0, 3)}),
            st.builds(
                lambda s2, l2, excess: {"sigma2": s2, "lambda2": l2, "lambda4": l2 * l2 / s2 * excess},
                json_number(0.1, 10), json_number(0.01, 5), st.floats(1.01, 100),
            ),
        ),
        "kernel_truncation": json_number(1, 6),
        "subtract_mean": st.booleans(),
    },
    optional={"alpha": st.floats(0.001, 0.5), "method": st.sampled_from(sorted(_METHODS))},
)


# Accepted studies, with JSON integers in float fields: the fields both
# layouts share, then a stock design or an explicit layout of one or two
# peaks, on a grid short enough for a few replications to take milliseconds.
SIM_FIELDS = st.fixed_dictionaries(
    {"gammas": st.lists(json_number(1, 4), min_size=1, max_size=2), "replications": st.integers(2, 5)},
    optional={
        "alpha": st.floats(0.01, 0.2),
        "methods": st.sampled_from([["bh"], ["bonferroni"], ["bonferroni", "bh"]]),
        "kernel_truncation": json_number(3, 5),
    },
)
SIM_DESIGNS = st.fixed_dictionaries(
    {"num_peaks": st.integers(1, 3)},
    optional={"amplitude": json_number(2, 12), "nu": json_number(0, 1), "peak_spacing": json_number(40, 120)},
).map(lambda design: {"design": design})
SIM_LAYOUTS = st.fixed_dictionaries(
    {
        "signal": st.fixed_dictionaries(
            {"peaks": st.lists(st.tuples(json_number(1, 12), json_number(40, 200)), min_size=1, max_size=2)},
            optional={"peak_scale": json_number(1, 4)},
        ),
        "noise": st.fixed_dictionaries({}, optional={"sigma": json_number(0.5, 2), "nu": json_number(0, 1)}),
        "grid": st.fixed_dictionaries({"length": st.integers(240, 320)}, optional={"origin": json_number(-5, 5)}),
    },
)
SIM_STUDIES = st.builds(lambda fields, layout: {**fields, **layout}, SIM_FIELDS, st.one_of(SIM_DESIGNS, SIM_LAYOUTS))


class TestCliDetect:
    def test_json_to_stdout(self, tmp_path, capsys):
        src = tmp_path / "series.txt"
        write_noise_file(src)
        code = main(
            ["detect", str(src), "--gamma", "3", "--noise-sigma", "1.0"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["num_maxima"] > 0
        assert report["config"]["method"] == "bh"

    def test_output_file_with_config(self, tmp_path):
        src = tmp_path / "series.txt"
        write_noise_file(src)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "gamma": 3.0,
                    "alpha": 0.05,
                    "method": "bonferroni",
                    "moments_source": {"sigma": 1.0, "nu": 0.0},
                }
            )
        )
        out = tmp_path / "report.json"
        code = main(["detect", str(src), "--config", str(cfg), "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["config"]["method"] == "bonferroni"

    def test_flag_overrides_config(self, tmp_path, capsys):
        src = tmp_path / "series.txt"
        write_noise_file(src)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 3.0, "method": "bonferroni"}))
        code = main(
            ["detect", str(src), "--config", str(cfg), "--method", "bh",
             "--noise-sigma", "1.0"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["config"]["method"] == "bh"

    def test_unknown_config_key(self, tmp_path, capsys):
        src = tmp_path / "series.txt"
        write_noise_file(src)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 3.0, "bandwidth": 2.0}))
        assert main(["detect", str(src), "--config", str(cfg)]) == 1

    @pytest.mark.parametrize(
        "source, message",
        [
            ({"sigma": 1, "Nu": 2}, "unknown moments_source keys: ['Nu']"),
            ({"sigma2": 0.1, "lambda2": 0.01}, "must be given together"),
            ({"sigma2": 0.1, "lambda2": 0.01, "lambda4": 0.002, "sigma": 1}, "together"),
        ],
        ids=["typo", "incomplete", "mixed"],
    )
    def test_moments_source_refused(self, tmp_path, capsys, monkeypatch, source, message):
        src = tmp_path / "series.txt"
        write_noise_file(src)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 3.0, "moments_source": source}))
        monkeypatch.setattr(cli, "load_series", refuse)
        assert main(["detect", str(src), "--config", str(cfg)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"gamma": True}, "detector config key 'gamma' must be a number, got true"),
            ({"gamma": "3"}, 'detector config key \'gamma\' must be a number, got "3"'),
            ({"alpha": False}, "detector config key 'alpha' must be a number, got false"),
            ({"kernel_truncation": "4"}, "'kernel_truncation' must be a number"),
            ({"moments_source": {"sigma": True}}, "moments_source key 'sigma' must be a number"),
            ({"moments_source": {"nu": "1"}}, "moments_source key 'nu' must be a number"),
            (
                {"moments_source": {"sigma2": 0.1, "lambda2": "0.01", "lambda4": 0.002}},
                "moments_source key 'lambda2' must be a number",
            ),
        ],
        ids=["gamma true", "gamma string", "alpha", "truncation", "sigma", "nu", "triple"],
    )
    def test_non_number_refused(self, tmp_path, capsys, monkeypatch, settings, message):
        # A JSON bool or string is not a number; a JSON integer is.
        src = tmp_path / "series.txt"
        write_noise_file(src)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 3, "moments_source": {"sigma": 1}, **settings}))
        monkeypatch.setattr(cli, "load_series", refuse)
        assert main(["detect", str(src), "--config", str(cfg)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"subtract_mean": "false"}, "detector config key 'subtract_mean' must be a boolean, got \"false\""),
            ({"subtract_mean": 0}, "detector config key 'subtract_mean' must be a boolean, got 0"),
            ({"method": ["bh"]}, "detector config key 'method' must be a string, got [\"bh\"]"),
            ({"moments_source": 3}, "key 'moments_source' must be a JSON object or a string, got 3"),
        ],
        ids=["subtract_mean string", "subtract_mean integer", "method list", "moments_source number"],
    )
    def test_wrong_json_type_refused(self, tmp_path, capsys, monkeypatch, settings, message):
        # A boolean or a string field is read only from its own JSON type.
        src = tmp_path / "series.txt"
        write_noise_file(src)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 3, "moments_source": {"sigma": 1}, **settings}))
        monkeypatch.setattr(cli, "load_series", refuse)
        assert main(["detect", str(src), "--config", str(cfg)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source",
        [
            ["--noise-sigma", "2", "--noise-nu", "0.5"],
            ["--sigma2", "0.094", "--lambda2", "0.0052", "--lambda4", "0.00087"],
            ["--moments", "var"],
        ],
        ids=["noise", "moments", "estimator"],
    )
    def test_report_config_rebuilds_config(self, tmp_path, source):
        src = tmp_path / "series.txt"
        write_noise_file(src)
        argv = ["detect", str(src), "--gamma", "3", "--method", "bonferroni",
                "--kernel-truncation", "3.5", "--no-subtract-mean", *source]
        first = tmp_path / "first.json"
        assert main([*argv, "--output", str(first)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(json.loads(first.read_text())["config"]))
        rebuilt = cli._detector_config(parsed(["detect", str(src), "--config", str(cfg)]))
        assert rebuilt == cli._detector_config(parsed(argv))

        # Whole floats written as JSON integers are echoed as the flags echo them.
        def as_ints(value):
            if isinstance(value, dict):
                return {k: as_ints(v) for k, v in value.items()}
            return int(value) if isinstance(value, float) and value.is_integer() else value

        echo = json.loads(first.read_text())["config"]
        cfg.write_text(json.dumps(as_ints(echo)))
        second = tmp_path / "second.json"
        assert main(["detect", str(src), "--config", str(cfg), "--output", str(second)]) == 0
        assert json.dumps(json.loads(second.read_text())["config"]) == json.dumps(echo)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(config=DETECT_CONFIGS)
    def test_report_config_round_trips(self, tmp_path, config):
        src = tmp_path / "series.txt"
        if not src.exists():
            write_noise_file(src, n=200)
        cfg, first, second = (tmp_path / name for name in ("cfg.json", "first.json", "second.json"))
        cfg.write_text(json.dumps(config))
        assume(main(["detect", str(src), "--config", str(cfg), "--output", str(first)]) == 0)
        cfg.write_text(json.dumps(json.loads(first.read_text())["config"]))
        assert main(["detect", str(src), "--config", str(cfg), "--output", str(second)]) == 0
        assert _CREATED.sub(b"", second.read_bytes()) == _CREATED.sub(b"", first.read_bytes())

    @pytest.mark.parametrize(
        "source, named",
        [
            (["--noise-sigma", "1"], "--noise-sigma"),
            (["--noise-sigma", "1", "--noise-nu", "0.5"], "--noise-nu, --noise-sigma"),
            (["--sigma2", "0.094", "--lambda2", "0.0052", "--lambda4", "0.00087"],
             "--lambda2, --lambda4, --sigma2"),
        ],
        ids=["noise sigma", "noise model", "moments"],
    )
    def test_estimator_with_moment_flags_refused(self, tmp_path, capsys, monkeypatch, source, named):
        # Moments come from one source; the estimator is not silently dropped.
        src = tmp_path / "series.txt"
        write_noise_file(src)
        monkeypatch.setattr(cli, "load_series", refuse)
        assert main(["detect", str(src), "--gamma", "3", "--moments", "var", *source]) == 1
        assert f"--moments cannot be combined with {named}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "in_file, flags, used",
        [
            ("var", ["--noise-sigma", "2"], {"sigma": 2.0, "nu": 0.0}),
            ({"sigma": 2}, ["--moments", "var"], "var"),
        ],
        ids=["noise flag", "estimator flag"],
    )
    def test_moment_flags_override_config(self, tmp_path, capsys, in_file, flags, used):
        src = tmp_path / "series.txt"
        write_noise_file(src)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 3, "moments_source": in_file}))
        assert main(["detect", str(src), "--config", str(cfg), *flags]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["moments_source"] == used

    def test_missing_gamma(self, tmp_path):
        src = tmp_path / "series.txt"
        write_noise_file(src)
        assert main(["detect", str(src)]) == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (
                ["--gamma", "3", "--noise-sigma", "1e200"],
                "sigma=1e+200, nu=0.0 and gamma=3.0 put the model moments outside the float range",
            ),
            (
                ["--gamma", "3", "--noise-nu", "1e300"],
                "sigma=1.0, nu=1e+300 and gamma=3.0 put the model moments outside the float range",
            ),
            (
                ["--gamma", "1e-300", "--noise-sigma", "1"],
                "sigma=1.0, nu=0.0 and gamma=1e-300 put the model moments outside the float range",
            ),
            # 1e308 + 399 * 1e306 is past the largest double: no time may read Infinity.
            (
                ["--gamma", "3", "--noise-sigma", "1", "--origin", "1e308", "--spacing", "1e306"],
                "series times overflow: origin + spacing * (length - 1) is not finite",
            ),
        ],
    )
    def test_outside_float_range_refused(self, tmp_path, capsys, flags, message):
        src = tmp_path / "series.txt"
        write_noise_file(src)
        assert main(["detect", str(src), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_model_moments_refused_before_input_is_read(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_series", refuse)
        argv = ["detect", str(tmp_path / "series.txt"), "--gamma", "3", "--noise-sigma", "1e200"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: sigma=1e+200, nu=0.0 and gamma=3.0 put the model moments outside the float range\n"
        )

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--sigma2", "1", "--lambda2", "1", "--lambda4", "1"],
             "sigma2 * lambda4 - lambda2^2 must be positive"),
            (["--sigma2", "1e-310", "--lambda2", "1e-311", "--lambda4", "1e-310"],
             "sigma2 must be a positive normal float, got 1e-310"),
        ],
        ids=["infeasible", "subnormal"],
    )
    def test_explicit_moments_refused_before_input_is_read(
        self, tmp_path, capsys, monkeypatch, flags, message
    ):
        monkeypatch.setattr(cli, "load_series", refuse)
        assert main(["detect", str(tmp_path / "nope.txt"), "--gamma", "3", *flags]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--gamma", "inf"], "gamma must be positive and finite"),
            (["--gamma", "3", "--noise-sigma", "inf"], "noise sigma must be positive and finite"),
            (
                ["--gamma", "3", "--noise-sigma", "1", "--kernel-truncation", "-1"],
                "kernel truncation must be positive and finite",
            ),
            (["--gamma", "3", "--kernel-truncation", "nan"], "kernel truncation must be positive and finite"),
        ],
    )
    def test_scale_refused_before_input_is_read(self, tmp_path, capsys, monkeypatch, flags, message):
        monkeypatch.setattr(cli, "load_series", refuse)
        assert main(["detect", str(tmp_path / "series.txt"), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_json_integer_past_float_range_refused_by_name(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 10**400}))
        monkeypatch.setattr(cli, "load_series", refuse)
        assert main(["detect", str(tmp_path / "series.txt"), "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "error: detector config key 'gamma' is too large: it does not fit in a float\n"
        )

    def test_underflowing_bandwidth_refused_by_name(self, tmp_path, capsys):
        # At gamma 1e-320 the kernel's peak density 1 / (gamma sqrt(2 pi))
        # is inf: the bandwidth is refused, not the input for the NaN kernel.
        src = tmp_path / "series.txt"
        write_noise_file(src)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["detect", str(src), "--gamma", "1e-320", "--moments", "mad"]) == 1
        assert capsys.readouterr().err == (
            "error: kernel bandwidth 1e-320 is too small: its peak density overflows\n"
        )

    @pytest.mark.parametrize("command", [
        ["detect", "--moments", "mad"], ["estimate-moments", "--estimator", "mad"],
    ])
    def test_unnormalizable_kernel_refused_by_name(self, tmp_path, capsys, command):
        # The kernel's one weight, 4e299, times the spacing overflows.
        src = tmp_path / "series.txt"
        write_noise_file(src)
        argv = [command[0], str(src), "--gamma", "1e-300", "--spacing", "1e10", *command[1:]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: kernel bandwidth 1e-300 and spacing 10000000000.0 give kernel "
            "weights that cannot be normalized\n"
        )

    @pytest.mark.parametrize("command", [
        ["detect", "--moments", "mad"], ["estimate-moments", "--estimator", "mad"],
    ])
    def test_smoothing_overflow_refused_by_name(self, tmp_path, capsys, command):
        # Values near 1e10 are finite; kernel weights near 1e300 smooth them
        # past the float range.
        src = tmp_path / "series.txt"
        values = 1e10 * np.random.default_rng(0).normal(size=2000)
        src.write_text("".join(f"{v!r}\n" for v in values.tolist()))
        argv = [command[0], str(src), "--gamma", "1e-300", "--spacing", "1e-300", *command[1:]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: smoothing at bandwidth 1e-300 and spacing 1e-300 "
            "takes the series past the float range\n"
        )

    @pytest.mark.parametrize(
        "command, code",
        [
            (["detect", "--gamma", "3", "--noise-sigma", "1"], 0),
            (["detect", "--gamma", "3", "--moments", "mad"], 3),
            (["detect", "--gamma", "3", "--no-subtract-mean", "--moments", "mad"], 3),
            (["estimate-moments"], 3),
            (["estimate-moments", "--estimator", "crossing"], 3),
            (["estimate-moments", "--gamma", "3"], 3),
        ],
    )
    def test_values_near_the_float_range(self, tmp_path, capsys, command, code):
        # 1.5e308 + 1e306 N(0, 1): the sum and a median's two-value mean
        # overflow unless taken on scaled values; the mad variance then
        # leaves the float range, a degenerate estimate.
        src = tmp_path / "series.txt"
        values = 1.5e308 + 1e306 * np.random.default_rng(1).normal(size=2000)
        src.write_text("".join(f"{v!r}\n" for v in values.tolist()))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command[0], str(src), *command[1:]]) == code
        err = capsys.readouterr().err
        assert "RuntimeWarning" not in err and "Traceback" not in err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["detect", str(tmp_path / "nope.txt"), "--gamma", "3"]) == 2

    def test_malformed_input_exit_2(self, tmp_path, capsys):
        src = tmp_path / "series.txt"
        src.write_text("1\nbogus\n")
        assert main(["detect", str(src), "--gamma", "3"]) == 2
        src.write_text("1 2 3\n")
        assert main(["detect", str(src), "--gamma", "0.5", "--noise-sigma", "1"]) == 2
        assert "line 1: expected one number, got '1 2 3'" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "1e400"])
    def test_non_finite_plain_exit_2(self, tmp_path, capsys, bad):
        src = tmp_path / "series.txt"
        write_noise_file(src)
        with open(src, "a", encoding="utf-8") as fh:
            fh.write(f"{bad}\n")
        assert main(["detect", str(src), "--gamma", "3", "--noise-sigma", "1"]) == 2
        assert "line 401: non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "1e400"])
    def test_non_finite_csv_exit_2(self, tmp_path, capsys, bad):
        src = tmp_path / "series.csv"
        src.write_text("".join(f"{i},0.5\n" for i in range(50)) + f"50,{bad}\n")
        code = main(
            ["detect", str(src), "--format", "csv", "--gamma", "3", "--noise-sigma", "1"]
        )
        assert code == 2
        assert "line 51: non-finite" in capsys.readouterr().err

    def test_csv_to_stdout_is_usage_error(self, tmp_path, monkeypatch):
        src = tmp_path / "series.txt"
        write_noise_file(src)
        # The usage error comes before the input is read.
        monkeypatch.setattr(cli, "load_series", refuse)
        code = main(
            ["detect", str(src), "--gamma", "3", "--noise-sigma", "1", "--output-format", "csv"]
        )
        assert code == 1

    def test_degenerate_estimate_exit_3(self, tmp_path, capsys):
        # The refusal names validate()'s reason, then the estimator's diagnostics.
        cases = [
            ([2.0] * 100, "3", "sigma2 must be a positive normal float, got 0.0; {'n': 76}"),
            (np.random.default_rng(0).normal(size=2000) * 1e-160, "3",
             "sigma2 must be a positive normal float, got 9.04e-322; {'n': 1976}"),
            (np.random.default_rng(21).normal(size=300), "10",
             "sigma2 * lambda4 - lambda2^2 must be positive; {'n': 220}"),
        ]
        src = tmp_path / "series.txt"
        for values, gamma, reason in cases:
            src.write_text("".join(f"{x!r}\n" for x in np.asarray(values).tolist()))
            assert main(["detect", str(src), "--gamma", gamma, "--moments", "mad"]) == 3
            assert capsys.readouterr().err == f"error: moment estimation (mad) degenerate: {reason}\n"

    def test_incomplete_moment_triple(self, tmp_path):
        src = tmp_path / "series.txt"
        write_noise_file(src)
        assert main(["detect", str(src), "--gamma", "3", "--sigma2", "0.1"]) == 1

    @pytest.mark.parametrize("command", ["detect", "estimate-moments"])
    @pytest.mark.parametrize(
        "flags, named",
        [(["--spacing", "7"], "--spacing"), (["--spacing", "7", "--origin", "100"], "--origin, --spacing")],
        ids=["spacing", "spacing and origin"],
    )
    def test_grid_flags_refused_with_csv(self, tmp_path, capsys, command, flags, named):
        # A csv file carries its own times; the flags are not silently dropped.
        src = tmp_path / "series.csv"
        src.write_text("".join(f"{i},0.5\n" for i in range(50)))
        moments = ["--noise-sigma", "1"] if command == "detect" else []
        assert main([command, str(src), "--format", "csv", "--gamma", "3", *moments, *flags]) == 1
        assert f"--format csv cannot be combined with {named}" in capsys.readouterr().err

    def test_csv_output_writes_manifest(self, tmp_path):
        src = tmp_path / "series.txt"
        write_noise_file(src)
        out = tmp_path / "rep.csv"
        code = main(
            ["detect", str(src), "--gamma", "3", "--noise-sigma", "1.0",
             "--output", str(out), "--output-format", "csv"]
        )
        assert code == 0
        assert out.exists()
        assert (tmp_path / "rep.csv.manifest.json").exists()

    @pytest.mark.parametrize("scale", [1e-60, 1e90])
    def test_scaled_data_gives_unscaled_rejections(self, tmp_path, capsys, scale):
        # Each moment of the scaled data is a normal float, though products
        # of two are not: the default mad run rejects the same maxima.
        values = np.random.default_rng(0).normal(size=2000)
        rejected = []
        for name, v in (("base", values), ("scaled", values * scale)):
            src = tmp_path / f"{name}.txt"
            src.write_text("".join(f"{x!r}\n" for x in v.tolist()))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main(["detect", str(src), "--gamma", "3"]) == 0
            report = json.loads(capsys.readouterr().out)
            rejected.append([m["index"] for m in report["maxima"] if m["rejected"]])
        assert rejected[1] == rejected[0] != []

    @pytest.mark.parametrize(
        "values, flags, code",
        [
            ([0.0] * 500 + [1e170] + [0.0] * 499, ["--noise-sigma", "1"], 0),
            (np.random.default_rng(0).normal(size=1000) * 1e200, ["--moments", "mad"], 3),
            (np.random.default_rng(0).normal(size=1000) * 1e200, ["--moments", "crossing"], 3),
            (np.random.default_rng(0).normal(size=1000) * 1e200, ["--moments", "var"], 3),
            (np.random.default_rng(0).normal(size=1000),
             ["--moments", "mad", "--spacing", "1e-200", "--gamma", "1e-200"], 3),
            # Normal data whose moments (sigma2 ~ 1e-321) are subnormal.
            (np.random.default_rng(0).normal(size=2000) * 1e-160, ["--moments", "mad"], 3),
            (np.random.default_rng(0).normal(size=2000) * 1e-160, ["--moments", "crossing"], 3),
            (np.random.default_rng(0).normal(size=2000) * 1e-160, ["--moments", "var"], 3),
            # The kernel's outer offsets lie 1e300 bandwidths out: squared, they overflow.
            (np.round(np.random.default_rng(0).normal(size=400)),
             ["--gamma", "1e-300", "--kernel-truncation", "1e300"], 0),
        ],
        ids=["huge height", "mad past the float range", "crossing past the float range",
             "var past the float range", "quotients past the float range",
             "mad subnormal", "crossing subnormal", "var subnormal",
             "kernel offsets past the float range"],
    )
    def test_huge_values_warn_nothing(self, tmp_path, capsys, values, flags, code):
        src = tmp_path / "series.txt"
        src.write_text("".join(f"{x!r}\n" for x in np.asarray(values).tolist()))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["detect", str(src), "--gamma", "3", *flags]) == code


class TestCliSimulate:
    def test_design_config(self, tmp_path, capsys):
        cfg = tmp_path / "study.json"
        cfg.write_text(
            json.dumps(
                {
                    "design": {"num_peaks": 2, "amplitude": 10.0},
                    "replications": 4,
                    "gammas": [3.0],
                    "methods": ["bh"],
                }
            )
        )
        code = main(["simulate", "--config", str(cfg), "--seed", "5"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 5
        assert len(report["cells"]) == 1
        assert report["config"]["grid"]["length"] == 200

    def test_explicit_config_and_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "study.json"
        cfg.write_text(
            json.dumps(
                {
                    "signal": {"peaks": [[10.0, 50.0]], "peak_scale": 3.0},
                    "noise": {"sigma": 1.0},
                    "grid": {"length": 120},
                }
            )
        )
        code = main(
            ["simulate", "--config", str(cfg), "--seed", "1",
             "--replications", "3", "--gammas", "2.0,3.0", "--methods", "bh"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert [c["gamma"] for c in report["cells"]] == [2.0, 3.0]
        assert report["config"]["replications"] == 3

    def test_csv_to_stdout_is_usage_error(self, tmp_path, monkeypatch):
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps({"design": {"num_peaks": 2}, "gammas": [3.0]}))
        # The usage error comes before the study runs.
        monkeypatch.setattr(cli, "run_simulation", refuse)
        code = main(
            ["simulate", "--config", str(cfg), "--seed", "1", "--output-format", "csv"]
        )
        assert code == 1

    def test_seed_required(self, tmp_path):
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps({"design": {"num_peaks": 2}}))
        assert main(["simulate", "--config", str(cfg)]) == 1

    def test_output_csv(self, tmp_path):
        cfg = tmp_path / "study.json"
        cfg.write_text(
            json.dumps({"design": {"num_peaks": 2}, "replications": 2, "gammas": [3.0]})
        )
        out = tmp_path / "sim.csv"
        code = main(
            ["simulate", "--config", str(cfg), "--seed", "2",
             "--output", str(out), "--output-format", "csv"]
        )
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 3  # header + 2 methods

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "no.json"), "--seed", "1"]) == 2

    @pytest.mark.parametrize("layout", ["design", "explicit"])
    def test_workers_precedence(self, tmp_path, monkeypatch, layout):
        # --workers, then the file's workers, then PEAKSIG_WORKERS, then 1.
        def workers(in_file, flag, env):
            study = {"design": {"num_peaks": 2}} if layout == "design" else explicit_study()
            if in_file is not None:
                study["workers"] = in_file
            cfg = tmp_path / "study.json"
            cfg.write_text(json.dumps(study))
            monkeypatch.delenv("PEAKSIG_WORKERS", raising=False)
            if env is not None:
                monkeypatch.setenv("PEAKSIG_WORKERS", env)
            argv = ["simulate", "--config", str(cfg), "--seed", "1", "--gammas", "3"]
            if flag is not None:
                argv += ["--workers", flag]
            return cli._sim_config(parsed(argv)).workers

        assert workers(None, None, None) == 1
        assert workers(None, None, "3") == 3
        assert workers(2, None, "3") == 2
        assert workers(2, "4", "3") == 4
        # PEAKSIG_WORKERS is read only when neither the flag nor the file sets workers.
        assert workers(None, "1", "two") == 1
        assert workers(2, None, "two") == 2
        with pytest.raises(ValueError, match="PEAKSIG_WORKERS must be an integer, got 'two'"):
            workers(None, None, "two")

    @pytest.mark.parametrize(
        "block, key",
        [
            (None, "replicatons"), ("signal", "peak_scal"), ("noise", "Nu"), ("grid", "lenght"),
            # The spacing of a design is a layout parameter, not a study field.
            (None, "peak_spacing"),
        ],
    )
    def test_unknown_key_refused(self, tmp_path, capsys, monkeypatch, block, key):
        study = explicit_study()
        (study if block is None else study[block])[key] = 5
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps(study))
        monkeypatch.setattr(cli, "run_simulation", refuse)
        assert main(["simulate", "--config", str(cfg), "--seed", "1"]) == 1
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("grid", {"length": 100}), ("signal", {"peak_scale": 3}), ("num_peak", 2)],
    )
    def test_design_key_refused(self, tmp_path, capsys, monkeypatch, key, value):
        # A layout field clashes with the design; an unknown key is no SimConfig field.
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps({"design": {"num_peaks": 2}, "gammas": [3], key: value}))
        monkeypatch.setattr(cli, "run_simulation", refuse)
        assert main(["simulate", "--config", str(cfg), "--seed", "1"]) == 1
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "layout, block, key, value, named",
        [
            ("design", None, "replications", True, "simulation config key 'replications'"),
            ("explicit", None, "replications", True, "simulation config key 'replications'"),
            ("design", None, "gammas", [True], "simulation config key 'gammas[0]'"),
            ("explicit", None, "gammas", [3, "6"], "simulation config key 'gammas[1]'"),
            ("explicit", None, "gammas", 3, "simulation config key 'gammas' must be a list"),
            ("explicit", None, "alpha", "0.05", "simulation config key 'alpha'"),
            ("design", None, "kernel_truncation", True, "simulation config key 'kernel_truncation'"),
            ("explicit", None, "workers", True, "simulation config key 'workers'"),
            ("design", "design", "num_peaks", True, "design key 'num_peaks'"),
            ("design", "design", "peak_spacing", "100", "design key 'peak_spacing'"),
            ("design", "design", "gammas", [3, False], "design key 'gammas[1]'"),
            ("explicit", "signal", "peaks", [[10, True]], "signal key 'peaks[0][1]'"),
            ("explicit", "noise", "sigma", True, "noise key 'sigma'"),
            ("explicit", "grid", "length", True, "grid key 'length'"),
        ],
    )
    def test_non_number_refused(self, tmp_path, capsys, monkeypatch, layout, block, key, value, named):
        # A JSON bool or string is not a number, at any level or list depth.
        study = {"design": {"num_peaks": 2}, "gammas": [3]} if layout == "design" else explicit_study()
        (study if block is None else study[block])[key] = value
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps(study))
        monkeypatch.setattr(cli, "run_simulation", refuse)
        assert main(["simulate", "--config", str(cfg), "--seed", "1"]) == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "layout, block, key, value, message",
        [
            ("design", None, "methods", "bh", "simulation config key 'methods' must be a list, got \"bh\""),
            ("explicit", None, "methods", [1], "simulation config key 'methods[0]' must be a string, got 1"),
            (
                "explicit", "signal", "peaks", [[1, 2, 3]],
                "signal key 'peaks[0]' must be a list of 2 items, got [1, 2, 3]",
            ),
        ],
        ids=["methods string", "methods item", "peaks triple"],
    )
    def test_wrong_json_type_refused(
        self, tmp_path, capsys, monkeypatch, layout, block, key, value, message
    ):
        study = {"design": {"num_peaks": 2}, "gammas": [3]} if layout == "design" else explicit_study()
        (study if block is None else study[block])[key] = value
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps(study))
        monkeypatch.setattr(cli, "run_simulation", refuse)
        assert main(["simulate", "--config", str(cfg), "--seed", "1"]) == 1
        assert message in capsys.readouterr().err

    def test_design_layout_echoes_floats(self, tmp_path, capsys):
        # The design's float keys and the study's are read as floats, so JSON
        # integers echo as the same study spelled with floats does.
        def config(study):
            cfg = tmp_path / "study.json"
            cfg.write_text(json.dumps(study))
            assert main(["simulate", "--config", str(cfg), "--seed", "1"]) == 0
            out = capsys.readouterr().out
            return out[out.index('"config"'):out.index('"cells"')]

        ints = config(
            {"design": {"num_peaks": 2, "peak_spacing": 100, "sigma": 2}, "gammas": [3],
             "kernel_truncation": 4, "replications": 2}
        )
        floats = config(
            {"design": {"num_peaks": 2, "peak_spacing": 100.0, "sigma": 2.0}, "gammas": [3.0],
             "kernel_truncation": 4.0, "replications": 2}
        )
        assert ints == floats
        assert '"sigma": 2.0' in ints and '"kernel_truncation": 4.0' in ints

    @pytest.mark.parametrize("block, key", [(None, "signal"), ("grid", "length")])
    def test_missing_key_named(self, tmp_path, capsys, monkeypatch, block, key):
        study = explicit_study()
        del (study if block is None else study[block])[key]
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps(study))
        monkeypatch.setattr(cli, "run_simulation", refuse)
        assert main(["simulate", "--config", str(cfg), "--seed", "1"]) == 1
        assert f"missing key: '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("layout", ["design", "explicit"])
    @pytest.mark.parametrize(
        "key, value", [("replications", 4.5), ("replications", math.inf), ("workers", 1.5)]
    )
    def test_non_integer_count_refused(self, tmp_path, capsys, monkeypatch, layout, key, value):
        study = {"design": {"num_peaks": 2}, "gammas": [3]} if layout == "design" else explicit_study()
        study[key] = value
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps(study))
        monkeypatch.setattr(cli, "run_simulation", refuse)
        assert main(["simulate", "--config", str(cfg), "--seed", "1"]) == 1
        assert f"{key} must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("layout", ["design", "explicit"])
    def test_negative_seed_refused(self, tmp_path, capsys, monkeypatch, layout):
        study = {"design": {"num_peaks": 2}, "gammas": [3]} if layout == "design" else explicit_study()
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps(study))
        monkeypatch.setattr(cli, "run_simulation", refuse)
        assert main(["simulate", "--config", str(cfg), "--seed", "-1"]) == 1
        assert "base_seed must be an integer >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("num_peaks", 2.5, "num_peaks must be an integer >= 1"),
            ("num_peaks", 0, "num_peaks must be an integer >= 1"),
            ("num_peaks", -1, "num_peaks must be an integer >= 1"),
            ("signal_fraction", 0, "signal_fraction must lie in (0, 1]"),
            ("signal_fraction", 2, "signal_fraction must lie in (0, 1]"),
            ("signal_fraction", math.nan, "signal_fraction must lie in (0, 1]"),
            ("spacing", 0, "spacing must be positive and finite"),
            ("peak_spacing", -5, "peak_spacing must be positive and finite"),
            ("peak_spacing", math.inf, "peak_spacing must be positive and finite"),
            ("peak_scale", 0, "peak_scale must be positive and finite"),
            ("peak_truncation", -1, "peak_truncation must be positive and finite"),
            ("signal_fraction", 0.5, "the grid window drops 15 of 20 peaks"),
            ("peak_spacing", 200.0, "the grid window drops 10 of 20 peaks"),
            (
                "sigma", 1e200,
                "sigma=1e+200, nu=0.0 and gamma=3.0 put the model moments outside the float range",
            ),
        ],
    )
    def test_bad_design_refused_by_name(self, tmp_path, capsys, monkeypatch, key, value, message):
        # One error line and no traceback: no division by zero, no window
        # that drops peaks, no grid-length text for a layout key, no model
        # moments outside the float range.
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps({"design": {key: value}, "gammas": [3.0], "replications": 2}))
        monkeypatch.setattr(cli, "run_simulation", refuse)
        assert main(["simulate", "--config", str(cfg), "--seed", "1"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("gammas", ["nan", "inf", "3,-1"])
    def test_bad_gamma_refused_by_name(self, tmp_path, capsys, monkeypatch, gammas):
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps({"design": {}, "replications": 2}))
        monkeypatch.setattr(cli, "run_simulation", refuse)
        assert main(["simulate", "--config", str(cfg), "--seed", "1", "--gammas", gammas]) == 1
        assert capsys.readouterr().err == "error: gammas must be positive and finite\n"

    @pytest.mark.parametrize(
        "flag, name", [("--seed", "base_seed"), ("--replications", "replications")]
    )
    def test_integer_flag_past_float_range_refused_by_name(
        self, tmp_path, capsys, monkeypatch, flag, name
    ):
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps(explicit_study()))
        monkeypatch.setattr(cli, "run_simulation", refuse)
        argv = ["simulate", "--config", str(cfg), "--seed", "1", flag, str(10**400)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"error: {name} is too large: it does not fit in a float\n"
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_model_moments_outside_float_range_refused(self, tmp_path, capsys, monkeypatch, workers):
        # The explicit layout is refused as the design is: before any process starts.
        study = explicit_study()
        study.update(noise={"sigma": 1e200, "nu": 1}, workers=workers)
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps(study))
        monkeypatch.setattr(cli, "run_simulation", refuse)
        assert main(["simulate", "--config", str(cfg), "--seed", "1"]) == 1
        assert capsys.readouterr().err == (
            "error: sigma=1e+200, nu=1.0 and gamma=3.0 put the model moments outside the float range\n"
        )

    def test_explicit_peak_outside_grid_refused(self, tmp_path, capsys, monkeypatch):
        study = explicit_study()
        study["signal"]["peaks"].append([5, 500])
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps(study))
        monkeypatch.setattr(cli, "run_simulation", refuse)
        assert main(["simulate", "--config", str(cfg), "--seed", "1"]) == 1
        assert capsys.readouterr().err == "error: the grid window drops 1 of 3 peaks\n"

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(num_peaks=st.integers(1, 5), seed=st.integers(0, 2**32))
    def test_whole_float_num_peaks_runs_as_int(self, tmp_path, capsys, num_peaks, seed):
        def report(count):
            cfg = tmp_path / "study.json"
            cfg.write_text(json.dumps(
                {"design": {"num_peaks": count}, "gammas": [3.0], "replications": 2}
            ))
            assert main(["simulate", "--config", str(cfg), "--seed", str(seed)]) == 0
            return json.loads(capsys.readouterr().out)

        as_int, as_float = report(num_peaks), report(float(num_peaks))
        assert as_float["cells"] == as_int["cells"]
        assert as_float["config"] == as_int["config"]

    def test_report_config_rebuilds_study(self, tmp_path, monkeypatch):
        monkeypatch.delenv("PEAKSIG_WORKERS", raising=False)
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps({**explicit_study(), "workers": 2}))
        first = tmp_path / "first.json"
        assert main(["simulate", "--config", str(cfg), "--seed", "9", "--output", str(first)]) == 0
        report = json.loads(first.read_text())
        echoed = report["config"]
        # JSON integers in float fields come back as floats.
        signal, noise, grid = echoed["signal"], echoed["noise"], echoed["grid"]
        floats = [signal["peak_scale"], signal["peak_truncation"], noise["sigma"],
                  noise["nu"], grid["spacing"], grid["origin"]]
        assert all(isinstance(v, float) for v in floats)
        back = tmp_path / "back.json"
        back.write_text(json.dumps(echoed))
        argv = ["simulate", "--config", str(back), "--seed", str(report["seed"])]
        config = cli._sim_config(parsed(argv))
        assert config == cli._sim_config(parsed(["simulate", "--config", str(cfg), "--seed", "9"]))
        assert (config.workers, config.noise.nu) == (2, 1.0)
        second = tmp_path / "second.json"
        assert main([*argv, "--output", str(second)]) == 0
        assert json.loads(second.read_text())["cells"] == report["cells"]


    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(study=SIM_STUDIES, seed=st.integers(0, 2**32))
    def test_report_config_round_trips(self, tmp_path, monkeypatch, study, seed):
        monkeypatch.delenv("PEAKSIG_WORKERS", raising=False)
        cfg, first, second = (tmp_path / name for name in ("cfg.json", "first.json", "second.json"))
        argv = ["simulate", "--config", str(cfg), "--seed", str(seed)]
        cfg.write_text(json.dumps(study))
        assume(main([*argv, "--output", str(first)]) == 0)
        cfg.write_text(json.dumps(json.loads(first.read_text())["config"]))
        assert main([*argv, "--output", str(second)]) == 0
        assert _CREATED.sub(b"", second.read_bytes()) == _CREATED.sub(b"", first.read_bytes())


class TestCliEstimateMoments:
    def test_smooth_then_estimate(self, tmp_path, capsys):
        src = tmp_path / "series.txt"
        write_noise_file(src, n=5000, seed=7)
        code = main(["estimate-moments", str(src), "--estimator", "mad",
                     "--gamma", "1.5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["estimator"] == "mad"
        assert not payload["degenerate"] and payload["reason"] is None
        assert payload["moments"]["sigma2"] == pytest.approx(0.188, rel=0.25)

    def test_degenerate_exit_3_with_payload(self, tmp_path, capsys):
        src = tmp_path / "series.txt"
        src.write_text("5.0\n" * 50)
        code = main(["estimate-moments", str(src), "--estimator", "mad"])
        assert code == 3
        out, err = capsys.readouterr()
        reason = "sigma2 must be a positive normal float, got 0.0"
        assert json.loads(out)["degenerate"] is True and json.loads(out)["reason"] == reason
        assert err == f"error: degenerate moment estimate: {reason}\n"

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(60, 300),
        offset=st.floats(-1e6, 1e6),
        scale=st.floats(1e-3, 1e3),
        gamma=st.sampled_from(["1.5", "3"]),
        estimator=st.sampled_from(["mad", "var", "crossing"]),
    )
    def test_moments_equal_detect_report(
        self, tmp_path, capsys, seed, n, offset, scale, gamma, estimator
    ):
        # With --gamma the command runs detect's own centering, smoothing
        # and estimate, so it prints the moments detect uses, bit for bit.
        src = tmp_path / "series.txt"
        values = offset + scale * np.random.default_rng(seed).normal(size=n)
        src.write_text("".join(f"{v!r}\n" for v in values.tolist()))
        code = main(["estimate-moments", str(src), "--gamma", gamma, "--estimator", estimator])
        printed = json.loads(capsys.readouterr().out)["moments"]
        assert main(["detect", str(src), "--gamma", gamma, "--moments", estimator]) == code
        report = capsys.readouterr().out
        if code == 0:
            assert json.loads(report)["moments"] == printed

    def test_subnormal_estimate_exit_3_with_payload(self, tmp_path, capsys):
        # The moments of N(0, 1) data at 1e-160 are subnormal: printed, then refused.
        src = tmp_path / "tiny.txt"
        values = np.random.default_rng(0).normal(size=2000) * 1e-160
        src.write_text("".join(f"{x!r}\n" for x in values.tolist()))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["estimate-moments", str(src), "--gamma", "3"]) == 3
        out, err = capsys.readouterr()
        payload = json.loads(out)
        assert payload["degenerate"] is True and 0.0 < payload["moments"]["sigma2"] < 1e-308
        reason = "sigma2 must be a positive normal float, got 9.04e-322"
        assert payload["reason"] == reason
        assert err == f"error: degenerate moment estimate: {reason}\n"

    @pytest.mark.parametrize("gamma", ["-1", "0", "inf", "nan"])
    def test_bad_gamma_refused_before_input(self, tmp_path, capsys, monkeypatch, gamma):
        # detect's settings, with its wording, before the input is read.
        monkeypatch.setattr(cli, "load_series", refuse)
        assert main(["estimate-moments", str(tmp_path / "nope.txt"), "--gamma", gamma]) == 1
        assert capsys.readouterr().err == "error: gamma must be positive and finite\n"

    def test_var_on_three_interior_samples(self, tmp_path, capsys):
        # 27 samples smoothed at gamma 3 (half-width 12) leave 3 interior ones.
        src = tmp_path / "series.txt"
        write_noise_file(src, n=27)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["estimate-moments", str(src), "--gamma", "3", "--estimator", "var"])
        assert code == 1
        err = capsys.readouterr().err
        assert "need at least 4 samples" in err and "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_acf_needs_gamma(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "series.txt"
        write_noise_file(src, n=500, seed=8)
        assert main(["estimate-moments", str(src), "--estimator", "acf", "--gamma", "1.5"]) == 0
        assert json.loads(capsys.readouterr().out)["diagnostics"]["lag_window"] == 5
        # The usage error comes before the input is read.
        monkeypatch.setattr(cli, "load_series", refuse)
        assert main(["estimate-moments", str(src), "--estimator", "acf"]) == 1
        assert capsys.readouterr().err == "error: the acf estimator needs --gamma\n"
        # The window follows from --gamma; the flag that set it is gone.
        assert main(["estimate-moments", str(src), "--estimator", "acf", "--lag-window", "5"]) == 1


class TestCliPvalueTable:
    def test_forward_table(self, capsys):
        code = main(["pvalue-table", "--gamma", "3", "--heights", "0.0"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "height,p_value"
        h, p = lines[1].split(",")
        assert float(h) == 0.0
        assert float(p) == pytest.approx(0.5 + 0.5 / math.sqrt(3.0), abs=1e-12)

    def test_grid_table(self, capsys):
        code = main(
            ["pvalue-table", "--gamma", "3", "--min", "0", "--max", "1", "--num", "5"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        ps = [float(line.split(",")[1]) for line in lines[1:]]
        assert ps == sorted(ps, reverse=True)

    def test_grid_past_memory_refused(self, capsys):
        # 10^15 heights need 7.1 PiB, past the address space, so the
        # allocation fails at once: one error line, no traceback.
        argv = ["pvalue-table", "--gamma", "3", "--min", "0", "--max", "1", "--num", "1000000000000000"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1

    def test_inverse_table_roundtrips(self, capsys):
        from peaksig import gaussian_model_moments, peak_height_right_cdf

        code = main(["pvalue-table", "--gamma", "3", "--pvalues", "0.05,0.001"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "p_value,height"
        m = gaussian_model_moments(NoiseSpec(), 3.0)
        for line, want in zip(lines[1:], (0.05, 0.001)):
            p, u = (float(x) for x in line.split(","))
            assert p == want
            assert peak_height_right_cdf(m, u) == pytest.approx(want, abs=1e-12)

    def test_pvalues_conflicts_with_heights(self):
        assert (
            main(["pvalue-table", "--gamma", "3", "--pvalues", "0.05",
                  "--heights", "1.0"])
            == 1
        )

    @pytest.mark.parametrize(
        "grid",
        [
            ["--heights", "nan,1"],
            ["--heights", "1,inf"],
            ["--min", "0", "--max", "inf"],
            ["--min", "nan", "--max", "1"],
            ["--min=-1e308", "--max", "1e308"],
        ],
    )
    def test_non_finite_heights_refused(self, capsys, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["pvalue-table", "--gamma", "3", *grid]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "must be finite" in captured.err

    @pytest.mark.parametrize(
        "grid", [["--min", "0"], ["--max", "1"], ["--min", "0", "--max", "1"]]
    )
    def test_heights_conflicts_with_grid(self, capsys, grid):
        assert main(["pvalue-table", "--gamma", "3", "--heights", "1.0", *grid]) == 1
        assert "--heights cannot be combined with --min/--max" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid", [["--pvalues", "0.05"], ["--heights", "1.0"], ["--min", "0"], ["--max", "1"]]
    )
    def test_num_needs_min_and_max(self, capsys, grid):
        # --num sizes the --min/--max grid; anywhere else it would be ignored.
        assert main(["pvalue-table", "--gamma", "3", "--num", "7", *grid]) == 1
        assert "--num needs --min and --max" in capsys.readouterr().err

    def test_explicit_moment_triple(self, capsys):
        code = main(
            ["pvalue-table", "--sigma2", "0.094", "--lambda2", "0.0052",
             "--lambda4", "0.00087", "--heights", "0.5"]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("height,p_value")

    def test_gamma_with_moment_triple_refused(self, capsys):
        # Explicit moments are already smoothed; a bandwidth would be ignored.
        argv = ["pvalue-table", "--sigma2", "1", "--lambda2", "1", "--lambda4", "3"]
        assert main([*argv, "--gamma", "5", "--pvalues", "0.05"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--sigma2/--lambda2/--lambda4 cannot be combined with --gamma" in captured.err

    @pytest.mark.parametrize("gamma, sigma, nu", [(3.0, 1.0, 0.0), (2.5, 2.0, 0.7), (6.5, 0.3, 1.5)])
    @pytest.mark.parametrize("table", [["--pvalues", "0.05,0.001"], ["--min", "0", "--max", "4"]])
    def test_closed_form_equals_its_triple(self, capsys, gamma, sigma, nu, table):
        from peaksig import gaussian_model_moments

        m = gaussian_model_moments(NoiseSpec(sigma, nu), gamma)
        model = ["--gamma", repr(gamma), "--sigma", repr(sigma), "--nu", repr(nu)]
        assert main(["pvalue-table", *model, *table]) == 0
        by_model = capsys.readouterr().out
        triple = ["--sigma2", repr(m.sigma2), "--lambda2", repr(m.lambda2), "--lambda4", repr(m.lambda4)]
        assert main(["pvalue-table", *triple, *table]) == 0
        assert capsys.readouterr().out == by_model

    @pytest.mark.parametrize(
        "model, named",
        [
            (["--gamma", "1e-300"], "sigma=1.0, nu=0.0 and gamma=1e-300"),
            (["--gamma", "1e300"], "sigma=1.0, nu=0.0 and gamma=1e+300"),
            (["--gamma", "3", "--sigma", "1e200"], "sigma=1e+200, nu=0.0 and gamma=3.0"),
            (["--gamma", "3", "--nu", "1e300"], "sigma=1.0, nu=1e+300 and gamma=3.0"),
        ],
    )
    def test_model_moments_outside_float_range_refused(self, capsys, model, named):
        assert main(["pvalue-table", *model, "--pvalues", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {named} put the model moments outside the float range\n"

    @pytest.mark.parametrize(
        "moments",
        [
            # Products of two moments overflow (sigma2 * lambda4 = 1e400).
            ["--sigma2", "1e200", "--lambda2", "1e100", "--lambda4", "1e200"],
            # kappa^2 = 1e-400 underflows: the mixture term drops out.
            ["--sigma2", "1", "--lambda2", "1e-200", "--lambda4", "1"],
            # sigma2 * lambda4 underflows to 0, though each moment is a normal float.
            ["--gamma", "1e60"],
        ],
        ids=["product overflow", "mixture underflow", "product underflow"],
    )
    def test_feasible_moments_past_product_range(self, capsys, moments):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["pvalue-table", *moments, "--pvalues", "0.5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        p, u = (float(x) for x in lines[1].split(","))
        assert lines[0] == "p_value,height" and p == 0.5 and math.isfinite(u)

    def test_huge_height_warns_nothing(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["pvalue-table", "--gamma", "3", "--heights=1e160,-1e308,1e308"]) == 0
        assert capsys.readouterr().out == "height,p_value\n1e+160,0.0\n-1e+308,1.0\n1e+308,0.0\n"

    def test_infeasible_moments_exit_3(self):
        assert (
            main(["pvalue-table", "--sigma2", "1.0", "--lambda2", "2.0",
                  "--lambda4", "1.0", "--heights", "0.5"])
            == 3
        )

    def test_requires_some_moments(self):
        assert main(["pvalue-table", "--heights", "1.0"]) == 1

    def test_output_file(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main(
            ["pvalue-table", "--gamma", "3", "--heights", "0,1",
             "--output", str(out)]
        )
        assert code == 0
        assert out.read_text().startswith("height,p_value")


class TestCliTopLevel:
    def test_version_exits_zero(self):
        assert main(["--version"]) == 0

    def test_no_arguments_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1
