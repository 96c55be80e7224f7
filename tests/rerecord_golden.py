"""Replay the golden CLI corpus and re-record the entries of named commands.

    PYTHONPATH=src python tests/rerecord_golden.py extract-cone [--write]

Every entry is replayed as ``test_golden.py`` replays it, a ``--verify``
entry against the new stdout of the entry it names.  The script refuses
when an entry of another command changes, when an exit code changes, or
when a changed report differs from its recording in anything but its
``result``; every changed report must also verify ``true`` through
``--verify``.  A changed ``extract-cone`` report must be feasible, on
an instance with a nonzero relative interior point, and its generators
must pass ``verify_cone_generators``.  It prints what changed, and with
``--write`` writes the corpus back in its recorded layout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from collections import Counter

from conehelly.cli import run
from conehelly.cone import HalfspaceSystem, complementary_point, verify_cone_generators
from conehelly.ratlin import VectorSet, vec

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", "golden_cli.json")


def replay(argv, stdin, report_text=None):
    """(exit code, stdout) of one in-process CLI run; ``{report}`` in argv
    becomes a file holding report_text."""
    with tempfile.TemporaryDirectory() as tmp:
        if report_text is not None:
            path = os.path.join(tmp, "report.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(report_text)
            argv = [path if a == "{report}" else a for a in argv]
        out = io.StringIO()
        old_stdin, sys.stdin = sys.stdin, io.StringIO(stdin or "")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run(argv)
        finally:
            sys.stdin = old_stdin
    return code, out.getvalue()


def check_changed(entry, new_stdout) -> list[str]:
    """Problems with one re-recorded report; empty when it may replace the
    recorded one."""
    argv = entry["argv"]
    if "--pretty" in argv:
        # The pretty layout is not JSON: compare the text above "result:",
        # and check the JSON report of the same run.
        same_head = new_stdout.split("\nresult:")[0] == entry["stdout"].split("\nresult:")[0]
        new_stdout = replay([a for a in argv if a != "--pretty"], entry["stdin"])[1]
        new = json.loads(new_stdout)
    else:
        old, new = json.loads(entry["stdout"]), json.loads(new_stdout)
        same_head = ({k: v for k, v in old.items() if k != "result"}
                     == {k: v for k, v in new.items() if k != "result"})
    problems = [] if same_head else ["changed outside its result"]
    command = argv[0]
    code, out = replay([command, "--verify", "{report}"], None, new_stdout)
    if code != 0 or json.loads(out)["result"] != {"verified": True}:
        problems.append("does not verify through --verify")
    if command == "extract-cone":
        inputs = new["inputs"]
        h = HalfspaceSystem(VectorSet(inputs["d"], tuple(vec(v) for v in inputs["vectors"])))
        if not new["result"]["feasible"] or not any(complementary_point(h.normals)):
            problems.append("not a feasible report with a nonzero interior point")
        else:
            gens = VectorSet(inputs["d"], tuple(vec(g) for g in new["result"]["generators"]))
            if not verify_cone_generators(h, gens, inputs["k"]):
                problems.append("generators fail verify_cone_generators")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("commands", nargs="+", help="commands whose entries may change")
    parser.add_argument("--write", action="store_true", help="write the new corpus")
    args = parser.parse_args()
    with open(CORPUS, encoding="utf-8") as fh:
        entries = json.load(fh)
    new_stdout = {}
    changed = Counter()
    refused = []
    # Reports first, so that each --verify entry replays the new report.
    order = sorted(range(len(entries)), key=lambda i: "report_of" in entries[i])
    for i in order:
        entry = entries[i]
        report = new_stdout[entry["report_of"]] if "report_of" in entry else None
        code, out = replay(entry["argv"], entry["stdin"], report)
        new_stdout[i] = out
        if out == entry["stdout"] and code == entry["exit"]:
            continue
        command = entry["argv"][0]
        changed[command] += 1
        if command not in args.commands:
            refused.append((i, "a command not named"))
        elif code != entry["exit"]:
            refused.append((i, f"exit {entry['exit']} -> {code}"))
        elif "report_of" in entry:
            refused.append((i, "a --verify entry changed"))
        else:
            refused += [(i, p) for p in check_changed(entry, out)]
    same = len(entries) - sum(changed.values())
    print(f"{len(entries)} entries: {same} byte-identical, changed {dict(changed)}")
    for i, why in refused:
        print(f"entry {i} {entries[i]['argv']}: {why}")
    if refused:
        return 1
    if args.write:
        for i, entry in enumerate(entries):
            entry["stdout"] = new_stdout[i]
        with open(CORPUS, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(entries, indent=1) + "\n")
        print(f"wrote {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
