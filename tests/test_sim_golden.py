"""Golden simulation cells.

``tests/golden/sim_*.json`` hold ``run_simulation(...).cells`` for three
small seeded designs: the stock design at gammas 3 and 6.5 with both
methods, overlapping supports (``peak_spacing=9``) and autocorrelated
noise (``nu=1``). Truth accounting is integer work, so any change to the
harness's internals must reproduce every cell exactly; floats are stored
by ``repr`` through ``json`` and compared with ``==``.

The harness must run the pipeline of ``detect``: on one seeded
replication of each design (and of a design on an offset, non-unit
grid), ``detect`` on the same padded draw, restricted to the window
interior and decided again, gives the harness's candidates, p-values,
rejections and per-replication tallies.

Regenerate only on a deliberate change of the estimates:

    PYTHONPATH=src python tests/test_sim_golden.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from peaksig import (
    Candidates,
    DetectorConfig,
    Grid,
    SampledSeries,
    classify,
    detect,
    evaluation,
    replication_seed,
    run_simulation,
    standard_design,
    synthesize_noise,
)
from peaksig.mtp import _METHODS

GOLDEN = Path(__file__).parent / "golden"

DESIGNS = {
    "sim_stock": dict(gammas=(3.0, 6.5), methods=("bonferroni", "bh"), base_seed=31),
    "sim_overlap": dict(peak_spacing=9.0, gammas=(3.2,), base_seed=32),
    "sim_nu1": dict(nu=1.0, gammas=(2.0, 4.0), base_seed=33),
}
REPLICATIONS = 150


def config(name: str, workers: int = 1):
    return standard_design(replications=REPLICATIONS, workers=workers, **DESIGNS[name])


def cells(name: str, workers: int = 1) -> list[dict]:
    report = run_simulation(config(name, workers))
    return [dataclasses.asdict(cell) for cell in report.cells]


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_cells_match_golden(name):
    want = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert cells(name) == want


def test_cells_match_golden_with_two_workers():
    want = json.loads((GOLDEN / "sim_stock.json").read_text(encoding="utf-8"))
    assert cells("sim_stock", workers=2) == want


def odd_grid_config():
    # Non-unit spacing, an origin off the grid of the peak centers, and a
    # 105-tap kernel at gamma 6.5, which smooths by the FFT path.
    base = standard_design(num_peaks=4, peak_spacing=20.0, spacing=0.5, gammas=(1.6, 6.5))
    grid = Grid(base.grid.length, 0.5, -0.3)
    return dataclasses.replace(base, grid=grid, replications=1, base_seed=35)


def recording(calls, fn):
    def record(*args):
        out = fn(*args)
        calls.append((args, out))
        return out

    return record


@pytest.mark.parametrize("name", sorted(DESIGNS) + ["odd_grid"])
@pytest.mark.parametrize("rep", [0, 7])
def test_harness_matches_detect(name, rep, monkeypatch):
    cfg = odd_grid_config() if name == "odd_grid" else config(name)
    maxima, decisions = [], []
    for name_, calls in (("local_max_indices", maxima), ("reject_rows", decisions)):
        monkeypatch.setattr(evaluation, name_, recording(calls, getattr(evaluation, name_)))
    counts = evaluation._run_block((cfg, rep, rep + 1))
    assert len(maxima) == len(cfg.gammas)
    assert len(decisions) == len(cfg.gammas) * len(cfg.methods)

    margin, padded, signal, _, _, regions, _ = evaluation._sim_context(cfg)
    noise = synthesize_noise(cfg.noise, padded, replication_seed(cfg.base_seed, rep))
    draw = SampledSeries(signal + noise.values, padded.spacing, padded.origin)
    length = cfg.grid.length
    for gi, gamma in enumerate(cfg.gammas):
        result = detect(
            draw,
            DetectorConfig(
                gamma,
                cfg.alpha,
                moments_source=cfg.noise,
                kernel_truncation=cfg.kernel_truncation,
                subtract_mean=False,
            ),
        )
        c = result.candidates
        interior = (c.index > margin) & (c.index < margin + length - 1)
        index, p = c.index[interior] - margin, c.p_value[interior]
        assert index.tolist() == maxima[gi][1].tolist()
        for mi, method in enumerate(cfg.methods):
            args, (_, rejected) = decisions[gi * len(cfg.methods) + mi]
            method_, p_rule, sizes, alpha = args
            assert (method_, sizes.tolist(), alpha) == (method, [index.size], cfg.alpha)
            assert p_rule.tobytes() == p.tobytes()
            decision = _METHODS[method](p, cfg.alpha)
            assert np.flatnonzero(rejected).tolist() == sorted(decision.rejected_indices)
            mask = np.zeros(index.size, dtype=bool)
            mask[list(decision.rejected_indices)] = True
            times = cfg.grid.times()[index]
            restricted = Candidates(index, times, c.height[interior], p, mask)
            rc = classify(dataclasses.replace(result, candidates=restricted), regions[gi])
            assert counts[0, gi, mi].tolist() == list(dataclasses.astuple(rc))


def _regenerate() -> None:
    for name in sorted(DESIGNS):
        text = json.dumps(cells(name), indent=2) + "\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"wrote {name}.json")


if __name__ == "__main__":
    sys.exit(_regenerate())
