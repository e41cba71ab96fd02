"""Every exported name resolves, so a deletion cannot leave a dangling
``__all__`` entry behind (``from relspin.x import *`` would fail on it)."""

import importlib
import pkgutil

import pytest

import relspin

_MODULES = [relspin] + [importlib.import_module(f"relspin.{m.name}")
                        for m in pkgutil.iter_modules(relspin.__path__)]


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(module, n)] == []


def test_package_exports_declared():
    assert relspin.__all__
