"""Every name a module exports resolves, so deleting a function cannot
leave a stale entry in its module's ``__all__``."""

import importlib
import pkgutil

import pytest

import conehelly

MODULES = sorted(info.name for info in pkgutil.iter_modules(conehelly.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"conehelly.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    assert [n for n in exported if not hasattr(module, n)] == []
