"""Tests for file formats, report writing, and the command line."""

import json
import math

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
    load_detection_report,
    load_series,
    load_sim_report,
    run_simulation,
    standard_design,
    synthesize_noise,
    write_detection_report,
    write_sim_report,
)
from peaksig.cli import main

KNOWN = DetectorConfig(gamma=3.0, method="bh", moments_source=NoiseSpec())


def small_result(seed=2):
    series = synthesize_noise(NoiseSpec(), Grid(400), seed=seed)
    return detect(series, KNOWN), series


def write_noise_file(path, n=400, seed=2):
    series = synthesize_noise(NoiseSpec(), Grid(n), seed=seed)
    path.write_text("".join(f"{v!r}\n" for v in series.values.tolist()))
    return series


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


class TestDetectionReports:
    def test_json_roundtrip_is_exact(self, tmp_path):
        result, _ = small_result()
        out = tmp_path / "report.json"
        write_detection_report(result, out, fmt="json")
        loaded = load_detection_report(out)
        assert loaded["num_maxima"] == len(result.maxima)
        assert loaded["num_rejected"] == sum(1 for m in result.maxima if m.rejected)
        assert loaded["decision"]["p_threshold"] == result.decision.p_threshold
        assert loaded["decision"]["rejected_indices"] == list(
            result.decision.rejected_indices
        )
        for row, mx in zip(loaded["maxima"], result.maxima):
            assert row["time"] == mx.time
            assert row["height"] == mx.height
            assert row["p_value"] == mx.p_value
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
        assert len(lines) == 1 + len(result.maxima)
        # Values reparse exactly: repr round-trips doubles.
        first = lines[1].split(",")
        assert float(first[2]) == result.maxima[0].height
        assert float(first[3]) == result.maxima[0].p_value
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
        loaded = load_sim_report(out)
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
        assert load_detection_report(out)["config"]["method"] == "bonferroni"

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

    def test_csv_to_stdout_is_usage_error(self, tmp_path):
        src = tmp_path / "series.txt"
        write_noise_file(src)
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

    def test_acf_needs_window_or_gamma(self, tmp_path):
        src = tmp_path / "series.txt"
        write_noise_file(src, n=500, seed=8)
        assert main(["estimate-moments", str(src), "--estimator", "acf"]) == 1
        assert (
            main(["estimate-moments", str(src), "--estimator", "acf",
                  "--lag-window", "5"])
            == 0
        )


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
        from peaksig import GaussianModelParams, gaussian_model_moments, \
            peak_height_right_cdf

        code = main(["pvalue-table", "--gamma", "3", "--pvalues", "0.05,0.001"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "p_value,height"
        m = gaussian_model_moments(GaussianModelParams(gamma=3.0))
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
