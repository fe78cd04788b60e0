"""The fixed mutant table in ``tests/mutants.py`` still targets the code:
each old text occurs exactly once in its file. The mutants themselves are
run by ``python tests/mutants.py``, not here."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("name, file, old, new", mutants.MUTANTS, ids=[m[0] for m in mutants.MUTANTS])
def test_old_text_occurs_once(name, file, old, new):
    text = (mutants.ROOT / "src" / "peaksig" / file).read_text(encoding="utf-8")
    assert text.count(old) == 1
    assert new != old


def test_names_are_unique_and_equivalents_listed():
    names = [m[0] for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    assert set(mutants.EQUIVALENT) <= set(names)
