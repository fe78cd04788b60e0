"""Compare two sets of benchmark results, metric by metric.

Usage: python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records ``run.py --out`` appends, one per run and
workload. For every (workload, end-to-end metric) pair the table shows
both sides' median, quartiles and run count, the change as a share of
the base median, the bound from ``BENCHMARK.json``, and a verdict:

- ``unresolved``: fewer than two runs on a side, or a side's spread
  (quartile distance over median) exceeds the bound, unless every new
  run beats every base run (``better``) or loses to it (``worse``);
- ``worse``: the new median is worse than the base median by more than
  the bound;
- ``better``: the new median is better by more than the base's spread
  and the new side wins at least nine tenths of the paired runs (paired
  by seed where both sides have it, else by order);
- ``unchanged``: otherwise.

``job_s`` and ``reps_per_s`` are compared too, with the bounds in
``REPORTED`` below: the run prints them and keeps them in its records,
but ``BENCHMARK.json`` does not gate on them (see README.md,
"Sizing and steadiness"). Per-layer metrics from traced runs are listed
side by side with no verdict; they have no bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# End-to-end metrics every run reports but BENCHMARK.json does not gate.
REPORTED = [
    {"name": "job_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "reps_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def load(path: str) -> dict:
    """{(workload, trace): {metric: [(seed, value), ...]}}"""
    out: dict = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                metrics = rec["metrics"] if rec["trace"] else rec["summary"]
                for name, m in metrics.items():
                    out[(rec["workload"], rec["trace"])][name].append((rec["seed"], m["value"]))
    return out


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def pairs(base, new):
    by_seed = dict(base)
    if all(seed in by_seed for seed, _ in new):
        return [(by_seed[seed], v) for seed, v in new]
    return list(zip((v for _, v in base), (v for _, v in new)))


def verdict(base, new, bound: float, lower: bool) -> str:
    a = [v for _, v in base]
    b = [v for _, v in new]
    ma, qa1, qa3 = spread(a)
    mb, qb1, qb3 = spread(b)
    sign = 1.0 if lower else -1.0
    change = sign * (mb - ma) / ma  # > 0 means worse
    better_all = max(b) < min(a) if lower else min(b) > max(a)
    worse_all = min(b) > max(a) if lower else max(b) < min(a)
    if len(a) < 2 or len(b) < 2:
        return "unresolved"
    if max((qa3 - qa1) / ma, (qb3 - qb1) / mb) > bound:
        return "better" if better_all else "worse" if worse_all else "unresolved"
    if change > bound:
        return "worse"
    won = [sign * (y - x) < 0 for x, y in pairs(base, new)]
    if -change * ma > (qa3 - qa1) and won and sum(won) >= 0.9 * len(won):
        return "better"
    return "unchanged"


def fmt(values) -> str:
    med, q1, q3 = spread([v for _, v in values])
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads(BENCH.read_text())
    base, new = load(argv[0]), load(argv[1])
    print(f"{'workload':13s} {'metric':24s} {'base median [q1, q3]':34s} "
          f"{'new median [q1, q3]':34s} {'change':>8s} {'bound':>6s}  verdict")
    print("(change: new median / base median - 1)")
    for (workload, trace) in sorted(set(base) | set(new)):
        specs = bench["per_layer"] if trace else bench["end_to_end"] + REPORTED
        for spec in specs:
            a = base.get((workload, trace), {}).get(spec["name"], [])
            b = new.get((workload, trace), {}).get(spec["name"], [])
            if not a or not b:
                continue
            ma, mb = spread([v for _, v in a])[0], spread([v for _, v in b])[0]
            change = f"{(mb - ma) / ma:+.1%}" if ma else "-"
            if trace:
                tag, bound = "per-layer, no bound", "-"
            else:
                tag = verdict(a, b, spec["bound"], spec["better"] == "lower")
                bound = f"{spec['bound']:.2f}"
            print(f"{workload:13s} {spec['name']:24s} {fmt(a):34s} {fmt(b):34s} "
                  f"{change:>8s} {bound:>6s}  {tag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
