"""Every name a module exports resolves, so deleting a function cannot
leave a stale entry in its module's ``__all__``; and every memo is a
module attribute that can be emptied."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import conehelly

from conftest import CACHES

MODULES = sorted(info.name for info in pkgutil.iter_modules(conehelly.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"conehelly.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_every_memo_can_be_emptied():
    # Each memo decorator makes a module attribute with cache_clear, which
    # the test fixture and the benchmark empty between calls, so no
    # answer outlives one test or one benchmark operation.
    decorators = sum(
        len(re.findall(r"^\s*@(?:lru_cache|rows_memo)\b", path.read_text(), re.M))
        for path in Path(conehelly.__file__).parent.glob("*.py"))
    assert decorators == len(CACHES)
