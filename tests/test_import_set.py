"""``import peaksig`` loads numpy and peaksig's own modules, and of the
standard library only what every command uses: each other module is
imported by the code that needs it, so a process that never starts a
pool, hashes a file or writes a CSV does not pay to load one.

Run as a script (``python tests/test_import_set.py``), this checks the
peaksig that the interpreter imports, such as an installed package.
"""

import os
import subprocess
import sys
from pathlib import Path

import peaksig

# Beyond numpy's modules: the ``from __future__`` lines, dataclasses (which
# loads copy) and the json package.
ALLOWED = {"__future__", "copy", "dataclasses", "json", "_json"}

# Taken in one interpreter, so the baseline is the numpy of the Python at hand.
_NEW_MODULES = """
import sys
import numpy
before = set(sys.modules)
import peaksig
print(*sorted(set(sys.modules) - before), sep="\\n")
"""


def modules_beyond_numpy() -> list[str]:
    """Modules a fresh ``import peaksig`` loads beyond those of ``import numpy``,
    in an interpreter that imports the same peaksig as this one."""
    src = str(Path(peaksig.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _NEW_MODULES],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return out.stdout.split()


def outside_allowed(names) -> list[str]:
    return [
        n
        for n in names
        if n not in ALLOWED and n != "peaksig" and not n.startswith(("json.", "peaksig."))
    ]


def test_import_loads_no_other_standard_module():
    assert outside_allowed(modules_beyond_numpy()) == []


if __name__ == "__main__":
    extra = outside_allowed(modules_beyond_numpy())
    if extra:
        sys.exit(f"import peaksig loads modules beyond numpy, {sorted(ALLOWED)} and json.*: {extra}")
    print("import peaksig loads only numpy, peaksig and", ", ".join(sorted(ALLOWED)))
