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
other entry byte-identical and every new report verified.
"""

import io
import json
import os
from collections import defaultdict

import pytest

from conehelly.cli import run

with open(os.path.join(os.path.dirname(__file__), "fixtures", "golden_cli.json"),
          encoding="utf-8") as _fh:
    ENTRIES = json.load(_fh)

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


@pytest.mark.parametrize("command", sorted(BY_COMMAND))
def test_replay(command, capsys, monkeypatch, tmp_path):
    report = tmp_path / "report.json"
    mismatches = []
    for i in BY_COMMAND[command]:
        entry = ENTRIES[i]
        argv = entry["argv"]
        if "report_of" in entry:
            report.write_text(ENTRIES[entry["report_of"]]["stdout"], encoding="utf-8")
            argv = [str(report) if a == "{report}" else a for a in argv]
        monkeypatch.setattr("sys.stdin", io.StringIO(entry["stdin"] or ""))
        code = run(argv)
        out = capsys.readouterr().out
        if code != entry["exit"] or out != entry["stdout"]:
            mismatches.append((i, entry["argv"], code, entry["exit"]))
    assert not mismatches
