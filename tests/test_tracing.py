"""The benchmark tracer's contract with peaksig's module layout.

``perfbench/tracing.py`` times the layers by rebinding the names that
``cli``, ``detector`` and ``evaluation`` call through, and reads
counters off the values those calls return. This test installs it
around a small ``detect`` and ``simulate`` run, so renaming one of
those names, or changing what it returns, fails here and not only in a
traced benchmark run.
"""

from pathlib import Path

import numpy as np

from peaksig import cli, detector, evaluation, standard_design

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_reports_every_layer_and_restores_bindings(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import FUNCTIONS, TABLES, Tracer, job_layers

    modules = {"cli": cli, "detector": detector, "evaluation": evaluation}
    names = [(module, attr) for module, attr, _, _ in FUNCTIONS + TABLES]
    before = {key: getattr(modules[key[0]], key[1]) for key in names}
    src = tmp_path / "series.txt"
    values = np.random.default_rng(3).standard_normal(2000)
    values[990:1010] += 8.0
    src.write_text("".join(f"{v!r}\n" for v in values.tolist()))

    tracer = Tracer()
    tracer.install()
    try:
        assert all(getattr(modules[m], a) is not before[m, a] for m, a in names)
        for job, flags in (("known", ["--noise-sigma", "1"]), ("acf", ["--moments", "acf"])):
            tracer.job = job
            out = tmp_path / f"{job}.json"
            argv = ["detect", str(src), "--gamma", "3", *flags, "--output", str(out)]
            assert cli.main(argv) == 0
        tracer.job = "sim"
        evaluation.run_simulation(standard_design(num_peaks=2, replications=3))
    finally:
        tracer.uninstall()

    assert all(getattr(modules[m], a) is before[m, a] for m, a in names)
    layers = job_layers(tracer.spans)
    for job in ("known", "acf"):
        assert {"maxima.find_s", "nulldist.pvalue_s", "mtp.decide_s"} <= set(layers[job])
        assert layers[job]["maxima.candidates"] > 0
        assert layers[job]["mtp.num_tests"] == layers[job]["maxima.candidates"]
        assert layers[job]["io.input_mb"] > 0 and layers[job]["io.report_mb"] > 0
    assert "moments_est.estimate_s" in layers["acf"]
    assert "moments_est.estimate_s" not in layers["known"]
    sim = layers["sim"]
    assert {"model.noise_s", "maxima.find_s", "nulldist.pvalue_s"} <= set(sim)
    assert sim["model.noise_samples"] > 3 * 200
    assert sim["maxima.candidates"] > 0
