"""Every name a module exports resolves, so deleting a function cannot
leave a stale entry in its module's ``__all__``; every memo is a module
attribute that can be emptied; the LP and the certificate checks stay
behind their one boundary in ``cone``; and one pass of each benchmark
workload still runs clean, as the benchmark reads library names the
tests do not."""

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
