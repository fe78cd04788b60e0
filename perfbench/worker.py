"""Timed job loop, run in its own process so its peak RSS is the workload's.

Usage: python3 worker.py SPEC.json

The spec names the workload, the input file, the report directory and
the run length. The worker runs one untimed warm-up job, then jobs back
to back (closed loop, one at a time) until the run length is spent, and
writes the per-job times, its peak RSS and, in a traced run, the spans to
``result`` in the spec. In a traced run, odd jobs are traced and even
jobs are not, so both halves see the same machine drift.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

SIM_REPLICATIONS = 100  # per study; a study is one sim-stock job
SIM_GAMMAS = (3.0, 6.5)
SIM_METHODS = ("bonferroni", "bh")
WIDE_GAMMA = 0.1  # 100 samples at spacing 1e-3


def detect_argv(workload: str, input_path: str, report: str) -> list[str]:
    if workload == "detect-dense":
        return [
            "detect", input_path, "--gamma", "3", "--noise-sigma", "1",
            "--method", "bh", "--output", report,
        ]
    return [
        "detect", input_path, "--format", "csv", "--gamma", repr(WIDE_GAMMA),
        "--moments", "mad", "--method", "bonferroni",
        "--output", report, "--output-format", "csv",
    ]


def report_path(report_dir: str, workload: str, job: int | str) -> str:
    suffix = "json" if workload == "detect-dense" else "csv"
    return str(Path(report_dir) / f"job-{job}.{suffix}")


def sim_config(seed: int):
    from peaksig import standard_design

    return standard_design(
        amplitude=10.0,
        gammas=SIM_GAMMAS,
        methods=SIM_METHODS,
        replications=SIM_REPLICATIONS,
        base_seed=seed,
        workers=1,
    )


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    workload, traced_run = spec["workload"], bool(spec["trace"])

    from peaksig import cli, run_simulation

    from tracing import Tracer, replications

    tracer = Tracer()
    if workload == "sim-stock":
        config = sim_config(spec["seed"])

        def make(run):
            return lambda job: run(config).cells

        plain = make(run_simulation)
        traced = make(tracer.wrap("evaluation.run_simulation", run_simulation, replications))
    else:

        def make(main_fn):
            def job_fn(job):
                report = report_path(spec["report_dir"], workload, job)
                code = main_fn(detect_argv(workload, spec["input"], report))
                if code != 0:
                    raise RuntimeError(f"peaksig exited with code {code}")

            return job_fn

        plain = make(cli.main)
        traced = make(tracer.wrap("cli.main", cli.main))

    result = {}
    try:
        first_cells = plain("warmup")
    except Exception:  # reported by the output checks
        first_cells = None
        result["warmup_error"] = traceback.format_exc(limit=3)
    jobs = []
    deadline = perf_counter() + spec["seconds"]
    t_start = perf_counter()
    job = 0
    while perf_counter() < deadline:
        use_trace = traced_run and job % 2 == 1
        if use_trace:
            tracer.job = job
            tracer.install()
        error = None
        t0 = perf_counter()
        try:
            cells = (traced if use_trace else plain)(job)
        except Exception:  # a failed job is counted, not fatal
            cells = None
            error = traceback.format_exc(limit=3)
        t1 = perf_counter()
        if use_trace:
            tracer.uninstall()
        if error is None and workload == "sim-stock" and cells != first_cells:
            error = "study cells differ from the first study with the same seed"
        jobs.append({"job": job, "seconds": t1 - t0, "traced": use_trace, "error": error})
        job += 1
    t_end = perf_counter()

    result.update(
        jobs=jobs,
        elapsed=t_end - t_start,
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        spans=tracer.spans,
    )
    if workload == "sim-stock" and first_cells is not None:
        result["cells"] = [asdict(c) for c in first_cells]
        result["replications"] = SIM_REPLICATIONS
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
