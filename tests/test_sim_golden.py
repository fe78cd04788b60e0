"""Golden simulation cells.

``tests/golden/sim_*.json`` hold ``run_simulation(...).cells`` for three
small seeded designs: the stock design at gammas 3 and 6.5 with both
methods, overlapping supports (``peak_spacing=9``) and autocorrelated
noise (``nu=1``). Truth accounting is integer work, so any change to the
harness's internals must reproduce every cell exactly; floats are stored
by ``repr`` through ``json`` and compared with ``==``.

Regenerate only on a deliberate change of the estimates:

    PYTHONPATH=src python tests/test_sim_golden.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from peaksig import run_simulation, standard_design

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


def _regenerate() -> None:
    for name in sorted(DESIGNS):
        text = json.dumps(cells(name), indent=2) + "\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"wrote {name}.json")


if __name__ == "__main__":
    sys.exit(_regenerate())
