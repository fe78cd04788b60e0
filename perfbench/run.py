"""peaksig benchmark: three seeded workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload detect-dense --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Workloads (closed loop, one job at a time, one worker process):

    detect-dense  ``peaksig detect --gamma 3 --noise-sigma 1 --method bh`` on a
                  10^6-sample plain file, JSON report
    detect-wide   ``--format csv --gamma 0.1 (100 samples) --moments mad
                  --method bonferroni --output-format csv`` on a 10^6-row
                  ``time,value`` CSV on a relative time axis
    sim-stock     ``run_simulation`` at the stock design (a = 10, gammas 3 and
                  6.5, both methods, workers = 1), one study of
                  ``worker.SIM_REPLICATIONS`` replications per job

Each run: time fresh-interpreter imports of peaksig (``setup_s``), write the
seeded inputs, then run the worker process for ``--seconds``. Outputs are
checked outside the timed region. The metric names and units come from
``BENCHMARK.json``. With ``--trace 0`` the last line carries the end-to-end
metrics; with ``--trace 1`` the per-layer metrics from a run whose odd jobs
are traced. ``--out FILE`` appends a full record per workload for
``compare.py``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
import reference
import worker
from tracing import job_layers

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("detect-dense", "detect-wide", "sim-stock")
SETUP_REPEATS = 3  # timed imports on each side of the worker
RUN_LIMIT_S = 160.0
COVERAGE_MIN = 0.99
TAIL_MIN_JOBS = 20
# Every run prints these; BENCHMARK.json gates on some of them.
SUMMARY_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "job_s_tail": "s",
    "reps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(workdir: Path, repeats: int) -> list[float]:
    """Wall times of fresh interpreters importing peaksig."""
    cmd = [sys.executable, "-c", "import peaksig"]
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        # No timeout: with one, subprocess polls the child every 50 ms and
        # the measured time snaps to that grid.
        subprocess.run(cmd, env=child_env(), cwd=workdir, check=True)
        times.append(perf_counter() - t0)
    return times


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten jobs beyond it, as (value, percentile).

    Below 20 jobs that percentile would fall under the median, so the
    maximum is returned instead, labelled percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < TAIL_MIN_JOBS:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


# ---------------------------------------------------------------------------
# Output checks


def read_report(workload: str, path: str) -> dict:
    """Counts and candidate arrays of one report, as the benchmark sees them."""
    if workload == "detect-dense":
        with open(path, encoding="utf-8") as fh:
            rep = json.load(fh)
        rows = rep["maxima"]
        index = np.array([r["index"] for r in rows], dtype=int)
        p_value = np.array([r["p_value"] for r in rows], dtype=float)
        rejected = np.array([bool(r["rejected"]) for r in rows], dtype=bool)
        meta = rep
    else:
        with open(path + ".manifest.json", encoding="utf-8") as fh:
            meta = json.load(fh)
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["index", "time", "height", "p_value", "rejected"]:
            raise ValueError(f"unexpected CSV header {rows[0]}")
        body = rows[1:]
        index = np.array([int(r[0]) for r in body], dtype=int)
        p_value = np.array([float(r[3]) for r in body], dtype=float)
        rejected = np.array([r[4] == "1" for r in body], dtype=bool)
    m = meta["moments"]
    return {
        "counts": (
            meta["num_maxima"],
            meta["num_rejected"],
            int(index.size),
            int(rejected.sum()),
            meta["decision"]["num_tests"],
            len(meta["decision"]["rejected_indices"]),
        ),
        "sha256": meta["input"]["sha256"],
        "moments": (m["sigma2"], m["lambda2"], m["lambda4"]),
        "index": index,
        "p_value": p_value,
        "rejected": rejected,
    }


def check_detect(workload, values, info, report_dir, jobs) -> tuple[list[str], list[bool]]:
    """Reference check on the warm-up report, then every timed job's report
    against it. Returns run-level problems and a per-job pass flag."""
    problems = []
    try:
        first = read_report(workload, worker.report_path(report_dir, workload, "warmup"))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"warm-up report unreadable: {exc!r}"], [False] * len(jobs)
    if first["counts"][0] != first["counts"][2] or first["counts"][1] != first["counts"][3]:
        problems.append(f"report counts disagree with its own rows: {first['counts']}")
    if first["sha256"] != info["sha256"]:
        problems.append("report input sha256 differs from the generated file")
    if workload == "detect-dense":
        problems += reference.check_detection(
            values, 1.0, 3.0, ("noise", 1.0), "bh", first
        )
    else:
        problems += reference.check_detection(
            values, inputs.WIDE_SPACING, worker.WIDE_GAMMA, ("mad",), "bonferroni", first
        )
    ok = []
    for job in jobs:
        good = job["error"] is None
        path = worker.report_path(report_dir, workload, job["job"])
        if good:
            try:
                rep = read_report(workload, path)
                good = rep["counts"] == first["counts"] and rep["sha256"] == first["sha256"]
            except (OSError, ValueError, KeyError, IndexError) as exc:
                print(f"{workload}: job {job['job']} report unreadable: {exc}", file=sys.stderr)
                good = False
        ok.append(good and not problems)
    return problems, ok


def check_sim(result, jobs) -> tuple[list[str], list[bool]]:
    if "cells" not in result:
        return ["warm-up study failed"], [False] * len(jobs)
    limit = reference.rate_limit(result["replications"])
    cells = {(c["gamma"], c["method"]): c for c in result["cells"]}
    problems = []
    fwer = cells[(3.0, "bonferroni")]["fwer"]
    fdr = cells[(3.0, "bh")]["fdr"]
    if not fwer <= limit:
        problems.append(f"Bonferroni FWER at gamma 3 is {fwer:.4f} > {limit:.4f}")
    if not fdr <= limit:
        problems.append(f"BH FDR at gamma 3 is {fdr:.4f} > {limit:.4f}")
    return problems, [job["error"] is None and not problems for job in jobs]


# ---------------------------------------------------------------------------
# One workload


def run_workload(name: str, seed: int, seconds: int, trace: bool, bench: dict) -> dict:
    started = perf_counter()
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))
    try:
        # The first import writes the bytecode cache and is not counted. Half
        # the timed imports run before the worker and half after it, so
        # setup_s samples the machine at two moments about half a minute apart.
        measure_setup(workdir, 1)
        setup = measure_setup(workdir, SETUP_REPEATS)
        values, info = None, None
        if name == "detect-dense":
            info, values = inputs.write_dense(workdir / "dense.txt", seed)
        elif name == "detect-wide":
            info, values = inputs.write_wide(workdir / "wide.csv", seed)
        report_dir = workdir / "reports"
        report_dir.mkdir()
        spec = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "input": info["path"] if info else None,
            "report_dir": str(report_dir),
            "result": str(workdir / "worker.json"),
        }
        (workdir / "spec.json").write_text(json.dumps(spec))
        budget = RUN_LIMIT_S - (perf_counter() - started)
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("worker.py")), str(workdir / "spec.json")],
            env=child_env(),
            cwd=workdir,
            check=True,
            timeout=budget,
            stdout=subprocess.DEVNULL,
        )
        setup += measure_setup(workdir, SETUP_REPEATS)
        result = json.loads((workdir / "worker.json").read_text())
        jobs = result["jobs"]
        if "warmup_error" in result:
            print(f"{name}: warm-up job failed:\n{result['warmup_error']}", file=sys.stderr)
        for job in jobs:
            if job["error"]:
                print(f"{name}: job {job['job']} failed:\n{job['error']}", file=sys.stderr)
        if name == "sim-stock":
            problems, ok = check_sim(result, jobs)
        else:
            problems, ok = check_detect(name, values, info, str(report_dir), jobs)
        record = summarise(name, seed, seconds, trace, bench, setup, info, result, ok, problems)
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def summarise(name, seed, seconds, trace, bench, setup, info, result, ok, problems) -> dict:
    jobs = result["jobs"]
    times = [j["seconds"] for j in jobs]
    per_job = result.get("replications", 1)
    failed = sum(1 for good in ok if not good)
    done = len(jobs) - failed
    t_value, t_pct = tail(times)
    measured = {
        "setup_s": (statistics.median(setup), len(setup), f"median of {len(setup)} fresh imports"),
        "job_s": (statistics.median(times), len(times), f"median of {len(times)} jobs"),
        "job_s_tail": (t_value, len(times), f"p{t_pct:.0f} of {len(times)} jobs"
                       + ("" if len(times) >= TAIL_MIN_JOBS else " (max: under 20 jobs)")),
        "reps_per_s": (done * per_job / result["elapsed"], done,
                       f"{done * per_job} reps in {result['elapsed']:.2f} s"),
        "peak_rss_mb": (result["rss_kb"] / 1024.0, 1, "worker process"),
        "failed_frac": (failed / len(jobs), len(jobs), f"{failed} of {len(jobs)} jobs"),
    }
    summary = {
        k: {"value": v[0], "unit": SUMMARY_UNITS[k], "n": v[1], "note": v[2]}
        for k, v in measured.items()
    }
    if trace:
        source, problems = layer_metrics(result, problems)
        wanted = bench["per_layer"]
    else:
        source, wanted = measured, bench["end_to_end"]
    metrics = {}
    for spec in wanted:
        value, n, note = source.get(spec["name"], (0, 0, "not exercised by this workload"))
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"], "n": n, "note": note}
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not problems and failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "problems": problems,
        "input": {k: v for k, v in (info or {}).items() if k != "path"},
        "job_seconds": times,
        "setup_seconds": setup,
        "metrics": metrics,
        "summary": summary,
    }


def layer_metrics(result, problems):
    """Per-layer medians over the traced jobs, and the tracing overhead."""
    jobs = result["jobs"]
    traced = [j for j in jobs if j["traced"]]
    plain = [j for j in jobs if not j["traced"]]
    rows = job_layers(result["spans"])
    problems = list(problems)
    if not traced or not plain:
        return {}, problems + ["traced run needs at least one traced and one untraced job"]
    coverage = []
    per_job = []
    for j in traced:
        row = rows.get(j["job"], {})
        coverage.append(row.get("top_span_s", 0.0) / j["seconds"])
        tests = row.get("mtp.num_tests", 0)
        row["mtp.rejected_frac"] = row.get("mtp.rejections", 0) / tests if tests else 0.0
        per_job.append(row)
    if min(coverage) < COVERAGE_MIN or max(coverage) > 1.0:
        problems.append(f"spans cover {min(coverage):.4f}..{max(coverage):.4f} of the jobs")
    n = len(per_job)
    out = {}
    keys = set().union(*per_job) - {"top_span_s"}
    for key in keys:
        out[key] = (statistics.median(r.get(key, 0) for r in per_job), n, f"median of {n} traced jobs")
    t_plain = statistics.median(j["seconds"] for j in plain)
    t_traced = statistics.median(j["seconds"] for j in traced)
    out["trace.job_s_untraced"] = (t_plain, len(plain), f"median of {len(plain)} untraced jobs")
    out["trace.job_s_traced"] = (t_traced, n, f"median of {n} traced jobs")
    out["trace.overhead_frac"] = (t_traced / t_plain - 1.0, n, "traced / untraced job_s - 1")
    out["trace.coverage"] = (min(coverage), n, "least share of a traced job inside its top span")
    return out, problems


# ---------------------------------------------------------------------------
# Output


def print_record(rec: dict) -> None:
    mode = "traced" if rec["trace"] else "untraced"
    print(f"== {rec['workload']}  seed {rec['seed']}  {rec['seconds']} s  {mode} ==")
    if rec["input"]:
        i = rec["input"]
        print(f"input: {i['samples']} samples, {i['bytes'] / 2**20:.1f} MB, "
              f"{i['planted_peaks']} planted peaks, sha256 {i['sha256'][:16]}")
    rows = dict(rec["summary"]) if not rec["trace"] else {}
    rows.update(rec["metrics"])
    job = rec["metrics"].get("trace.job_s_traced", {}).get("value")
    for key, m in rows.items():
        unit = m["unit"]
        share = ""
        if job and key.endswith("_s") and not key.startswith("trace."):
            share = f"  ({100 * m['value'] / job:.1f} % of traced job)"
        print(f"  {key:24s} {m['value']:14.6g} {unit:6s} {m['note']}{share}")
    verdict = "ok" if rec["correct"] else "FAILED: " + "; ".join(rec["problems"])
    print(f"  checks: {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append one JSON record per workload to this file")
    args = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "peaksig" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"error: no peaksig sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = [
        run_workload(name, args.seed, args.seconds, bool(args.trace), bench) for name in names
    ]
    for rec in records:
        print_record(rec)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
    prefix = len(records) > 1
    line = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (f"{r['workload']}/{k}" if prefix else k): {"value": m["value"], "unit": m["unit"]}
            for r in records
            for k, m in r["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
