"""Every exported name resolves, so ``from peaksig import *`` cannot fail
on a name a deletion left behind."""

import importlib
import pkgutil

import pytest

import peaksig

MODULES = ["peaksig"] + [f"peaksig.{m.name}" for m in pkgutil.iter_modules(peaksig.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_exports_each_name_once():
    assert len(peaksig.__all__) == len(set(peaksig.__all__))
