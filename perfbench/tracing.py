"""Spans around calls into peaksig's layers, recorded from outside.

The traced run rebinds the names that ``peaksig.cli``, ``peaksig.detector``
and ``peaksig.evaluation`` look up when they call into another layer, so
every call crosses a wrapper that records a span. The dispatch tables
``detector._METHODS``, ``evaluation._METHODS`` and ``detector.ESTIMATORS``
hold the imported ``mtp`` and ``moments_est`` functions, so they are
replaced by tables of wrapped functions. Nothing under ``src/`` changes,
and :meth:`Tracer.uninstall` restores every original binding.

A span is ``[name, start, end, parent, job, counts]``; spans live in
memory until the run ends. A layer's self time is its span's duration
minus the time its child spans cover (spans nest, one thread).
"""

from __future__ import annotations

import os
from time import perf_counter

# Per-layer metric fed by each span's self time.
SELF_TIME_METRICS = {
    "cli.main": "cli.self_s",
    "io.load": "io.load_s",
    "io.report": "io.report_s",
    "detector.detect": "detector.self_s",
    "smoothing.convolve": "smoothing.convolve_s",
    "moments_est.estimate": "moments_est.estimate_s",
    "maxima.find": "maxima.find_s",
    "nulldist.pvalue": "nulldist.pvalue_s",
    "mtp.decide": "mtp.decide_s",
    "model.noise": "model.noise_s",
    "evaluation.run_simulation": "evaluation.self_s",
}

_MB = 1024.0 * 1024.0


def _input_mb(args, kwargs, out):
    return {"io.input_mb": os.path.getsize(args[0]) / _MB}


def _report_mb(args, kwargs, out):
    path = str(args[1])
    size = os.path.getsize(path)
    if os.path.exists(path + ".manifest.json"):
        size += os.path.getsize(path + ".manifest.json")
    return {"io.report_mb": size / _MB}


def _kernel_taps(args, kwargs, out):
    return {"smoothing.kernel_taps": int(out.weights.size)}


def _candidates(args, kwargs, out):
    return {"maxima.candidates": len(out)}


def _decision(args, kwargs, out):
    return {"mtp.num_tests": out.num_tests, "mtp.rejections": len(out.rejected_indices)}


def _noise_samples(args, kwargs, out):
    return {"model.noise_samples": int(out.values.size)}


def replications(args, kwargs, out):
    return {"evaluation.replications": args[0].replications}


# (module, name it looks up, span name, counter) for each rebound function.
FUNCTIONS = [
    ("cli", "load_series", "io.load", _input_mb),
    ("cli", "detect", "detector.detect", None),
    ("cli", "write_detection_report", "io.report", _report_mb),
    ("detector", "make_gaussian_kernel", "smoothing.kernel", _kernel_taps),
    ("detector", "convolve", "smoothing.convolve", None),
    ("detector", "find_local_maxima", "maxima.find", _candidates),
    ("detector", "assign_pvalues", "nulldist.pvalue", None),
    ("detector", "estimate_moments_acf", "moments_est.estimate", None),
    ("evaluation", "make_gaussian_kernel", "smoothing.kernel", _kernel_taps),
    ("evaluation", "synthesize_noise", "model.noise", _noise_samples),
    ("evaluation", "local_max_indices", "maxima.find", _candidates),
    ("evaluation", "peak_height_right_cdf", "nulldist.pvalue", None),
]
# Dispatch tables whose every entry is wrapped.
TABLES = [
    ("detector", "ESTIMATORS", "moments_est.estimate", None),
    ("detector", "_METHODS", "mtp.decide", _decision),
    ("evaluation", "_METHODS", "mtp.decide", _decision),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.job, None]
            stack.append(len(spans))
            spans.append(record)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[1], record[2] = start, perf_counter()
                stack.pop()
            if count is not None:
                record[5] = count(args, kwargs, out)
            return out

        return traced

    def _rebind(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self):
        """Rebind the cross-layer names to span-recording wrappers."""
        from peaksig import cli, detector, evaluation

        modules = {"cli": cli, "detector": detector, "evaluation": evaluation}
        for module, attr, name, count in FUNCTIONS:
            fn = getattr(modules[module], attr)
            self._rebind(modules[module], attr, self.wrap(name, fn, count))
        for module, attr, name, count in TABLES:
            table = getattr(modules[module], attr)
            wrapped = {key: self.wrap(name, fn, count) for key, fn in table.items()}
            self._rebind(modules[module], attr, wrapped)

    def uninstall(self):
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)


def job_layers(spans) -> dict[object, dict[str, float]]:
    """Per job: self time of each layer metric and summed counts."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, job, counts in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[object, dict[str, float]] = {}
    for sid, (name, start, end, parent, job, counts) in enumerate(spans):
        row = out.setdefault(job, {})
        metric = SELF_TIME_METRICS.get(name)
        if metric is not None:
            row[metric] = row.get(metric, 0.0) + (end - start) - child_time[sid]
        for key, value in (counts or {}).items():
            row[key] = row.get(key, 0) + value
        if parent is None:
            row["top_span_s"] = row.get("top_span_s", 0.0) + (end - start)
    return out
