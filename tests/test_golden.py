"""Golden CLI corpus: recorded invocations replayed byte for byte.

``fixtures/golden_cli.json`` was recorded with the Fraction arithmetic
kernels, before elimination and the simplex moved to integers.  Each
entry holds argv, stdin, the exit code and the exact stdout.  A
``--verify`` entry names the entry whose stdout is its report
(``report_of``); that report is written to a file and the ``{report}``
placeholder in argv replaced by its path.  Identical stdout pins the
pivot sequences as well as the results: every witness, membership
combination, Farkas separator and extracted generator is printed.

Entry 1059, ``flat-helly`` on 25 normals, was re-recorded from exit 3 to
its report when ``flat-helly``, which scans no subsets, stopped being
gated on input size.  The 22 feasible ``extract-cone`` reports on
instances with a nonzero relative interior point were re-recorded, by
``rerecord_golden.py extract-cone --write``, when that point came to be
folded from the deflation's separators instead of solved for by an LP:
their generators start from the new point.  The script checked every
other entry byte-identical and every new report verified.  Entries 566
and 568, ``extract-cone --k 1`` and ``--k 2`` on the normals
[[1, -3], [-3, -2], [0, -1], [-3, 2], [-1, -2]], were re-recorded by
the same script when a deflation round stopped trying an obtuse-angle
functional between its sign certificate and its LP: the first round's
separator became the LP's (1, 1), in place of (3, 2), and so did x0
and the generators built from it.  The reversible set is unique, so no
other entry changed.
"""

import io
from collections import defaultdict

import pytest

import conehelly
from conehelly import cli, cone, helly, posbasis, ratlin
from conehelly.cli import run
from conehelly.fuzzing import run_trial_checks, trial_instance

from conftest import CACHES, CONE_FUZZ, GOLDEN as ENTRIES

BY_COMMAND = defaultdict(list)
for _i, _entry in enumerate(ENTRIES):
    BY_COMMAND[_entry["argv"][0]].append(_i)


def test_corpus_covers_the_cli():
    assert {e["exit"] for e in ENTRIES} == {0, 2, 3}
    assert any("--pretty" in e["argv"] for e in ENTRIES)
    assert any('"member": true' in e["stdout"] for e in ENTRIES)
    assert any('"member": false' in e["stdout"] for e in ENTRIES)
    assert sum('"verified": true' in e["stdout"] for e in ENTRIES) > 400
    # Each command that scans for a minimal witness keeps a case past the
    # capacity gate.
    for command in ("helly-pos", "helly-cone", "corollary"):
        assert any(ENTRIES[i]["exit"] == 3 for i in BY_COMMAND[command]), command


def _replay(commands, capsys, monkeypatch, tmp_path):
    """Replay every entry of the commands; returns the mismatches.  Every
    memo is emptied before each entry, so each one runs cold, as in a
    fresh process, and shares no answer with an entry on the same
    instance."""
    report = tmp_path / "report.json"
    mismatches = []
    for i in (i for command in commands for i in BY_COMMAND[command]):
        entry = ENTRIES[i]
        argv = entry["argv"]
        if "report_of" in entry:
            report.write_text(ENTRIES[entry["report_of"]]["stdout"], encoding="utf-8")
            argv = [str(report) if a == "{report}" else a for a in argv]
        monkeypatch.setattr("sys.stdin", io.StringIO(entry["stdin"] or ""))
        for cache in CACHES:
            cache.cache_clear()
        code = run(argv)
        out = capsys.readouterr().out
        if code != entry["exit"] or out != entry["stdout"]:
            mismatches.append((i, entry["argv"], code, entry["exit"]))
    return mismatches


@pytest.mark.parametrize("command", sorted(BY_COMMAND))
def test_replay(command, capsys, monkeypatch, tmp_path):
    assert not _replay([command], capsys, monkeypatch, tmp_path)


def test_elimination_takes_integer_rows(capsys, monkeypatch, tmp_path):
    # Elimination divides exactly by floor division, so a non-integer
    # Fraction reaching it would give a wrong answer, not an error.  Every
    # module that binds an elimination entry point gets a version that
    # asserts int entries, and the commands and fuzz checks that rank
    # normals, positive bases and cones and build their subspaces run
    # through them.
    calls = defaultdict(int)

    def integer_rows_only(name):
        eliminate = getattr(ratlin, name)

        def checked(rows, ncols):
            rows = list(rows)
            assert all(type(x) is int for r in rows for x in r), (name, rows)
            calls[name] += 1
            return eliminate(rows, ncols)

        return checked

    for name in ("rank_of_rows", "span_basis", "kernel_basis"):
        checked = integer_rows_only(name)
        for module in (conehelly, ratlin, cone, posbasis, helly, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, checked)
    assert not _replay(["lineality", "polar-lineality", "flat-helly", "posbasis",
                        "reay", "extract-cone"], capsys, monkeypatch, tmp_path)
    for i in range(20):
        run_trial_checks(trial_instance(CONE_FUZZ, i)[1], CONE_FUZZ.checks)
    assert calls["rank_of_rows"] > 1000
    assert calls["span_basis"] > 100 and calls["kernel_basis"] > 100
