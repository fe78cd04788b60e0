"""Tests for file formats, report writing, and the command line."""

import hashlib
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

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
        "peak_spacing": 70,
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


@pytest.mark.parametrize("gamma", ["1e6", "1e15", "1e308"])
@pytest.mark.parametrize(
    "command", [["detect", "--noise-sigma", "1"], ["estimate-moments"]], ids=lambda c: c[0]
)
def test_huge_bandwidth_refused_before_any_kernel(tmp_path, capsys, command, gamma):
    # A 1e6 bandwidth would build 8e6 taps (64 MB), 1e15 more than any
    # address space holds, 1e308 an infinite reach: all are refused first.
    src = tmp_path / "series.txt"
    write_noise_file(src, n=300)
    tracemalloc.start()
    try:
        code = main([command[0], str(src), "--gamma", gamma, *command[1:]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "series too short for the requested kernel" in capsys.readouterr().err
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
        flat = detect(
            synthesize_noise(NoiseSpec(), Grid(400), seed=3).crop(0, 400), KNOWN
        )
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

    def test_missing_gamma(self, tmp_path):
        src = tmp_path / "series.txt"
        write_noise_file(src)
        assert main(["detect", str(src)]) == 1

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["detect", str(tmp_path / "nope.txt"), "--gamma", "3"]) == 2

    def test_malformed_input_exit_2(self, tmp_path):
        src = tmp_path / "series.txt"
        src.write_text("1\nbogus\n")
        assert main(["detect", str(src), "--gamma", "3"]) == 2

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

    def test_degenerate_estimate_exit_3(self, tmp_path):
        src = tmp_path / "series.txt"
        src.write_text("2.0\n" * 100)
        assert main(["detect", str(src), "--gamma", "3", "--moments", "mad"]) == 3

    def test_incomplete_moment_triple(self, tmp_path):
        src = tmp_path / "series.txt"
        write_noise_file(src)
        assert main(["detect", str(src), "--gamma", "3", "--sigma2", "0.1"]) == 1

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

    @pytest.mark.parametrize(
        "block, key",
        [(None, "replicatons"), ("signal", "peak_scal"), ("noise", "Nu"), ("grid", "lenght")],
    )
    def test_unknown_key_refused(self, tmp_path, capsys, monkeypatch, block, key):
        study = explicit_study()
        (study if block is None else study[block])[key] = 5
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps(study))
        monkeypatch.setattr(cli, "run_simulation", refuse)
        assert main(["simulate", "--config", str(cfg), "--seed", "1"]) == 1
        assert f"'{key}'" in capsys.readouterr().err

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
                  noise["nu"], grid["spacing"], grid["origin"], echoed["peak_spacing"]]
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


class TestCliEstimateMoments:
    def test_smooth_then_estimate(self, tmp_path, capsys):
        src = tmp_path / "series.txt"
        write_noise_file(src, n=5000, seed=7)
        code = main(["estimate-moments", str(src), "--estimator", "mad",
                     "--gamma", "1.5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["estimator"] == "mad"
        assert not payload["degenerate"]
        assert payload["moments"]["sigma2"] == pytest.approx(0.188, rel=0.25)

    def test_degenerate_exit_3_with_payload(self, tmp_path, capsys):
        src = tmp_path / "series.txt"
        src.write_text("5.0\n" * 50)
        code = main(["estimate-moments", str(src), "--estimator", "mad"])
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["degenerate"] is True

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

    def test_acf_needs_window_or_gamma(self, tmp_path, monkeypatch):
        src = tmp_path / "series.txt"
        write_noise_file(src, n=500, seed=8)
        assert (
            main(["estimate-moments", str(src), "--estimator", "acf",
                  "--lag-window", "5"])
            == 0
        )
        # The usage error comes before the input is read.
        monkeypatch.setattr(cli, "load_series", refuse)
        assert main(["estimate-moments", str(src), "--estimator", "acf"]) == 1


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

    def test_explicit_moment_triple(self, capsys):
        code = main(
            ["pvalue-table", "--sigma2", "0.094", "--lambda2", "0.0052",
             "--lambda4", "0.00087", "--heights", "0.5"]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("height,p_value")

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
