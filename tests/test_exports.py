"""Every name a module exports resolves, so deleting a function cannot
leave a stale entry in its module's ``__all__``; every memo is a module
attribute that can be emptied; the LP and the certificate checks stay
behind their one boundary in ``cone``; every row update is the one
pivot step of ``ratlin``; no module imports a name it
never reads; and one pass of each benchmark workload still runs clean,
as the benchmark reads library names the tests do not."""

import ast
import importlib
import json
import pkgutil
import re
import subprocess
import sys
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


def _imports(path):
    """(module, name) for each name that the file at path imports, with
    the module written as in the source, "" for "from . import"."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            yield from ((node.module or "", alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, "") for alias in node.names)


def test_certificates_have_one_boundary():
    # Only cone and the CLI reach the LP, and posbasis takes from cone no
    # private name but the drop-one test, so the checked sign-then-LP
    # step cannot be written a second time outside cone unnoticed.
    paths = sorted(Path(conehelly.__file__).parent.glob("*.py"))
    lp_users = {path.stem for path in paths for module, name in _imports(path)
                if module in ("lp", "conehelly.lp")
                or (module in ("", "conehelly") and name == "lp")}
    assert "cone" in lp_users and lp_users <= {"cone", "cli"}
    posbasis = next(path for path in paths if path.stem == "posbasis")
    assert {name for _, name in _imports(posbasis) if name.startswith("_")} \
        == {"_in_pos_of_rest"}


def test_one_pivot_step():
    # Every integer row update is ratlin._pivot, taken by the forward
    # elimination, Gauss-Jordan and the simplex only, so no elimination
    # can be written a second time beside them unnoticed.
    users = set()
    for path in Path(conehelly.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            owner = getattr(node, "name", "module")
            for sub in ast.walk(node):
                if isinstance(sub, ast.ImportFrom) and any(
                        alias.name == "_pivot" for alias in sub.names):
                    users.add((path.stem, "import"))
                elif ((isinstance(sub, ast.Name) and sub.id == "_pivot")
                      or (isinstance(sub, ast.Attribute) and sub.attr == "_pivot")):
                    users.add((path.stem, owner))
    assert users == {("ratlin", "independent_rows"), ("ratlin", "_gauss_jordan"),
                     ("lp", "nonneg_combination"), ("lp", "import")}


@pytest.mark.parametrize("workload", ["pos_helly", "cone_helly", "cli"])
def test_benchmark_pass_is_correct(workload):
    # perfbench imports library functions and reads report fields by
    # name, so a rename can break it while every other test passes.  One
    # pass writes only under the git-ignored perfbench-out/.
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "0"],
                          cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stdout + proc.stderr


def _unread_imports(path):
    """Names that the file at path imports, other than from __future__,
    and never reads."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


@pytest.mark.parametrize("path", [
    *(p for p in sorted(Path(conehelly.__file__).parent.glob("*.py")) if p.name != "__init__.py"),
    *sorted(Path(__file__).resolve().parent.glob("*.py")),
], ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unread_import(path):
    # An import that nothing reads is dead weight a reader must still
    # check; __init__.py is left out, as its imports are the package's
    # exports.
    assert _unread_imports(path) == []
