import copy
import io
import json
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conehelly.cli as cli
from conehelly.cli import (
    EXIT_CAPACITY,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    coord_from_json,
    frac_to_json,
    instance_from_json,
    instance_to_json,
    run,
)
from conehelly.errors import TheoremContradiction
from conehelly.fuzzing import trial_instance
from conehelly.gens import gen_axis_pairs, gen_random, gen_simplex_like
from conehelly.ratlin import VectorSet
from fractions import Fraction
from math import lcm

from conftest import GOLDEN, POS_FUZZ, fractions_built


def invoke(capsys, monkeypatch, argv, stdin=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


SIMPLEX2 = json.dumps({"d": 2, "role": "generators",
                       "vectors": [[1, 0], [0, 1], [-1, -1]]})
DEEP = "[" * 100_000 + "]" * 100_000  # past the JSON decoder's recursion limit


def gen_out(capsys, monkeypatch, argv):
    code, out, err = invoke(capsys, monkeypatch, argv)
    assert code == EXIT_OK, err
    return out


class TestSerialization:
    def test_frac_round_trip(self):
        for f in (Fraction(3), Fraction(-2, 7), Fraction(0)):
            assert coord_from_json(frac_to_json(f)) == f

    def test_string_integers_accepted(self):
        assert coord_from_json("4") == 4
        assert coord_from_json("-3/4") == Fraction(-3, 4)

    def test_floats_rejected(self):
        with pytest.raises(ValueError):
            coord_from_json(0.5)

    def test_instance_round_trip(self):
        vs = gen_random(3, 6, 3, 5)
        obj = instance_to_json(vs, "generators")
        again = json.loads(json.dumps(obj))
        vs2, role = instance_from_json(again)
        assert vs2 == vs and role == "generators"
        assert instance_to_json(vs2, role) == obj

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            instance_from_json({"d": 2, "role": "normals", "vectors": [[0, 0]]})

    def test_exponent_bound(self, monkeypatch):
        # An exponent may have as many digits as an int string may; past
        # that, Fraction would build 10**exponent before any check.
        limit = sys.get_int_max_str_digits()
        assert coord_from_json(f"1e{limit}") == 10**limit
        assert coord_from_json(f"1e-{limit}") == Fraction(1, 10**limit)
        for v in (f"1e{limit + 1}", f"1E-{limit + 1}", "0e99999999", " 2.5e+9_999_999 "):
            with pytest.raises(cli.InputError, match="exponent too large"):
                coord_from_json(v)
        # With no limit set there is none to enforce.
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        assert coord_from_json(f"1e{limit + 1}") == 10**(limit + 1)

    # (command, role, vectors, exit code, the echoed vectors on stdout or
    # the message on stderr), each recorded from the Fraction parser.
    PARSE_CASES = {
        "decimal string": ("lineality", "generators", [["1.5", 0], [-3, 0]], EXIT_OK,
                           '[["3/2", 0], [-3, 0]]'),
        "padded string": ("lineality", "generators", [[" 3", 1]], EXIT_OK, "[[3, 1]]"),
        "negative zero": ("maxcone", "normals", [["-0/1", 1]], EXIT_OK, "[[0, 1]]"),
        "unreduced strings": ("lineality", "generators", [["2/4", 1], [-1, "-2"]],
                              EXIT_OK, '[["1/2", 1], [-1, -2]]'),
        "integer string over a denominator": ("lineality", "generators",
                                              [["4/2", "1/3"]], EXIT_OK, '[[2, "1/3"]]'),
        "int above 2^64": ("lineality", "generators",
                           [[2**64 + 1, 1], [-(2**64 + 1), -1]], EXIT_OK,
                           "[[18446744073709551617, 1], [-18446744073709551617, -1]]"),
        "zero normal": ("maxcone", "normals", [[1, 0], ["0/5", 0]], EXIT_INPUT,
                        "error: zero vector not allowed among outer normals\n"),
        "zero generator as a normal": ("maxcone", "generators", [[1, 0], ["0/5", 0]],
                                       EXIT_INPUT, "error: zero outer normal at index 1\n"),
        "bool coordinate": ("lineality", "generators", [[True, 0]], EXIT_INPUT,
                            "error: coordinate True is not an integer or 'p/q' string\n"),
        "float coordinate": ("lineality", "generators", [[0.5, 0]], EXIT_INPUT,
                             "error: coordinate 0.5 is not an integer or 'p/q' string\n"),
    }

    @pytest.mark.parametrize("command, role, vectors, code, text",
                             PARSE_CASES.values(), ids=PARSE_CASES)
    def test_parse_case(self, capsys, monkeypatch, command, role, vectors, code, text):
        inst = json.dumps({"d": len(vectors[0]), "role": role, "vectors": vectors})
        got, out, err = invoke(capsys, monkeypatch, [command], stdin=inst)
        assert got == code
        if code == EXIT_OK:
            assert err == "" and f'"vectors": {text}}}' in out
        else:
            assert out == "" and err == text


@st.composite
def json_instances(draw):
    """An instance whose coordinates are JSON ints or "p/q" strings."""
    d = draw(st.integers(1, 4))
    coord = st.one_of(st.integers(-5, 5), st.builds(
        lambda p, q: f"{p}/{q}", st.integers(-5, 5), st.integers(1, 4)))
    rows = draw(st.lists(st.lists(coord, min_size=d, max_size=d), max_size=6))
    return {"d": d, "role": "generators", "vectors": rows}


class TestIntegerDecoding:
    """An all-int instance becomes its own integer form; any other goes
    through Fractions.  Both give the same vector set."""

    def test_all_int_instance_builds_no_fraction(self):
        inst = instance_to_json(gen_random(5, 8, 3, 1), "generators")
        assert fractions_built(instance_from_json, inst) == 0
        vs, _ = instance_from_json(inst)
        via_fractions = VectorSet(5, [tuple(map(Fraction, r)) for r in inst["vectors"]])
        assert vs == via_fractions and hash(vs) == hash(via_fractions)

    @settings(max_examples=100, deadline=None)
    @given(json_instances())
    def test_equals_the_fraction_path(self, inst):
        vs, _ = instance_from_json(inst)
        via_fractions = VectorSet(inst["d"], [tuple(map(Fraction, r))
                                              for r in inst["vectors"]])
        assert vs == via_fractions and hash(vs) == hash(via_fractions)
        assert instance_to_json(vs, "generators")["vectors"] == [
            [cli.frac_to_json(Fraction(c)) for c in r] for r in inst["vectors"]]


class TestFractionFree:
    # An all-integer instance reaches the integer kernels and its echo
    # with no Fraction built.  Seed 2 has max cone dimension 0, so both
    # witness searches run; seed 11 has 4.
    @pytest.mark.parametrize("seed", [2, 11])
    @pytest.mark.parametrize("argv", [["maxcone"], ["solution-rank"],
                                      ["helly-cone", "--k", "2"],
                                      ["corollary", "--k", "3"]], ids=" ".join)
    def test_integer_normals_build_no_fraction(self, capsys, monkeypatch, seed, argv):
        inst = instance_to_json(gen_random(4, 6, 3, seed), "normals")
        assert all(type(c) is int for row in inst["vectors"] for c in row)
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(inst)))
        codes = []
        assert fractions_built(lambda: codes.append(run(argv))) == 0
        assert codes == [EXIT_OK]
        rep = json.loads(capsys.readouterr().out)
        assert {k: rep["inputs"][k] for k in inst} == inst

    # The generators write integer rows straight into a vector set.
    @pytest.mark.parametrize("argv", [
        ["--example", "simplex", "--d", "5"],
        ["--example", "axis-pairs", "--k", "3", "--d", "5"],
        ["--example", "example2", "--d", "5", "--k", "2"],
        ["--example", "random", "--d", "6", "--n", "20", "--seed", "1"]], ids=" ".join)
    def test_gen_builds_no_fraction(self, capsys, argv):
        codes = []
        assert fractions_built(lambda: codes.append(run(["gen"] + argv))) == 0
        assert codes == [EXIT_OK]
        assert json.loads(capsys.readouterr().out)["vectors"]

    def test_fuzz_instances_build_no_fraction(self):
        for index in range(20):
            assert fractions_built(trial_instance, POS_FUZZ, index) == 0

    # An all-integer report, its instance, point and certificate all JSON
    # ints, is checked by integer substitution from end to end.
    @pytest.mark.parametrize("instance, point, field", [
        (gen_axis_pairs(2, 3), "1,2,3", "separator"),
        (gen_simplex_like(3), "1,2,3", "combination"),
    ], ids=["separator", "combination"])
    def test_integer_membership_verifies_with_no_fraction(self, capsys, monkeypatch,
                                                          tmp_path, instance, point,
                                                          field):
        monkeypatch.setattr("sys.stdin", io.StringIO(
            json.dumps(instance_to_json(instance, "generators"))))
        assert run(["membership", "--point", point]) == EXIT_OK
        out = capsys.readouterr().out
        cert = json.loads(out)["result"][field]
        assert all(type(c) is int for c in (cert if field == "separator"
                                            else [c for _, c in cert]))
        path = tmp_path / "report.json"
        path.write_text(out)
        codes = []
        assert fractions_built(
            lambda: codes.append(run(["membership", "--verify", str(path)]))) == 0
        assert codes == [EXIT_OK]
        assert json.loads(capsys.readouterr().out)["result"]["verified"] is True


class TestPipelines:
    def test_gen_axis_pairs(self, capsys, monkeypatch):
        out = gen_out(capsys, monkeypatch,
                      ["gen", "--example", "axis-pairs", "--k", "2", "--d", "3"])
        obj = json.loads(out)
        assert obj["d"] == 3 and len(obj["vectors"]) == 4

    def test_gen_then_lineality(self, capsys, monkeypatch):
        inst = gen_out(capsys, monkeypatch, ["gen", "--example", "simplex", "--d", "3"])
        code, out, _ = invoke(capsys, monkeypatch, ["lineality"], stdin=inst)
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["result"]["lineality"]["dim"] == 3
        assert len(rep["result"]["lineality"]["basis"]) == 3

    def test_helly_pos_on_axis_pairs(self, capsys, monkeypatch):
        inst = gen_out(capsys, monkeypatch,
                       ["gen", "--example", "axis-pairs", "--k", "2", "--d", "2"])
        code, out, _ = invoke(capsys, monkeypatch, ["helly-pos", "--k", "1"],
                              stdin=inst)
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["result"]["hypothesis"] is False
        assert len(rep["result"]["witness_enum"]["subset_indices"]) <= 4

    def test_membership(self, capsys, monkeypatch):
        inst = gen_out(capsys, monkeypatch, ["gen", "--example", "simplex", "--d", "2"])
        code, out, _ = invoke(capsys, monkeypatch,
                              ["membership", "--point", "0,1"], stdin=inst)
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["result"]["member"] is True

    def test_extract_cone_and_maxcone(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(
            {"d": 2, "role": "normals", "vectors": [[-1, 0]]}))
        code, out, _ = invoke(capsys, monkeypatch,
                              ["maxcone", "--input", str(path)])
        assert code == EXIT_OK
        assert json.loads(out)["result"]["max_cone_dim"] == 2
        code, out, _ = invoke(capsys, monkeypatch,
                              ["extract-cone", "--k", "2", "--input", str(path)])
        assert code == EXIT_OK
        assert json.loads(out)["result"]["feasible"] is True

    def test_solution_rank_polar_flat(self, capsys, monkeypatch):
        inst = gen_out(capsys, monkeypatch,
                       ["gen", "--example", "example2", "--d", "4", "--k", "2"])
        for argv, field, value in (
            (["solution-rank"], "rank", 1),
            (["polar-lineality"], None, None),
            (["flat-helly", "--k", "3"], None, None),
            (["corollary", "--k", "2"], "global_holds", False),
            (["helly-cone", "--k", "2"], "conclusion", False),
        ):
            code, out, err = invoke(capsys, monkeypatch, argv, stdin=inst)
            assert code == EXIT_OK, (argv, err)
            rep = json.loads(out)
            if field:
                assert rep["result"][field] == value

    def test_posbasis_and_reay(self, capsys, monkeypatch):
        inst = gen_out(capsys, monkeypatch,
                       ["gen", "--example", "axis-pairs", "--k", "2", "--d", "2"])
        code, out, _ = invoke(capsys, monkeypatch, ["posbasis"], stdin=inst)
        assert code == EXIT_OK
        assert json.loads(out)["result"]["element_indices"] == [0, 1, 2, 3]
        code, out, _ = invoke(capsys, monkeypatch, ["reay"], stdin=inst)
        assert code == EXIT_OK
        parts = json.loads(out)["result"]["parts"]
        assert sorted(len(p) for p in parts) == [2, 2]

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        for _ in range(3):
            gen_out(capsys, monkeypatch, ["gen", "--example", "simplex", "--d", "2"])
        assert built == [1]

    def test_pretty_mode_runs(self, capsys, monkeypatch):
        inst = gen_out(capsys, monkeypatch, ["gen", "--example", "simplex", "--d", "2"])
        code, out, _ = invoke(capsys, monkeypatch, ["lineality", "--pretty"],
                              stdin=inst)
        assert code == EXIT_OK
        assert "lineality" in out and "{" not in out.splitlines()[0]


def reference_parse(argv):
    """Every call through the full parser, as run parsed before it
    dispatched to the subcommand's parser."""
    return cli.build_parser().parse_args(argv)


# An empty string flag is refused by the parser, never taken for an absent
# flag: stdin, a fresh report, all checks or the working directory.
EMPTY_FLAGS = {
    "empty --input": (["lineality", "--input", ""], SIMPLEX2),
    "empty --point": (["membership", "--point", ""], SIMPLEX2),
    "empty --verify": (["lineality", "--verify", ""], SIMPLEX2),
    "empty --checks": (["fuzz", "--trials", "1", "--checks", ""], None),
    "empty --dump-dir": (["fuzz", "--trials", "1", "--dump-dir", ""], None),
}

# gen parses these flags, and the generator refuses their values.
GEN_RANGE_ERRORS = {
    "gen simplex with --d 0": (["gen", "--example", "simplex", "--d", "0"], None),
    "gen random with --n 0": (["gen", "--example", "random", "--d", "2", "--n", "0"],
                              None),
}

DISPATCH_CASES = {
    **{name: ([name] + (["--k", "1"] if cmd.k_min is not None else [])
              + (["--point", "1,1"] if cmd.point else []), SIMPLEX2)
       for name, cmd in cli.COMMANDS.items()},
    "gen": (["gen", "--example", "axis-pairs", "--k", "1", "--d", "2"], None),
    "verify-tightness": (["verify-tightness", "--example", "1", "--d", "2"], None),
    "fuzz": (["fuzz", "--trials", "2", "--d-max", "2", "--n-max", "3"], None),
    "--pretty and --k=1": (["helly-pos", "--pretty", "--k=1"], SIMPLEX2),
    "no arguments": ([], None),
    "unknown command": (["bogus"], None),
    "-h": (["-h"], None),
    "helly-pos -h": (["helly-pos", "-h"], None),
    "--k x": (["helly-pos", "--k", "x"], SIMPLEX2),
    "unrecognized flag": (["lineality", "--bogus"], SIMPLEX2),
    "extra positional": (["lineality", "extra"], SIMPLEX2),
    "gen without --example": (["gen", "--d", "2"], None),
    **GEN_RANGE_ERRORS,
    **EMPTY_FLAGS,
}


class TestArgvDispatch:
    @pytest.mark.parametrize("argv, stdin", DISPATCH_CASES.values(), ids=DISPATCH_CASES)
    def test_same_as_the_full_parser(self, capsys, monkeypatch, tmp_path, argv, stdin):
        monkeypatch.chdir(tmp_path)  # where a failing fuzz trial would dump
        got = invoke(capsys, monkeypatch, argv, stdin=stdin)
        monkeypatch.setattr(cli, "_parse_args", reference_parse)
        assert got == invoke(capsys, monkeypatch, argv, stdin=stdin)

    def test_instance_call_skips_the_top_level_parser(self, capsys, monkeypatch):
        parser = cli.build_parser()

        def refuse(*args, **kwargs):
            raise AssertionError("the top-level parser ran")

        monkeypatch.setattr(parser, "parse_known_args", refuse)
        monkeypatch.setattr(cli, "_parser", parser)
        code, out, err = invoke(capsys, monkeypatch, ["helly-pos", "--k", "1"],
                                stdin=SIMPLEX2)
        assert code == EXIT_OK and err == ""
        assert json.loads(out)["result"]["lineality_dim"] == 2


class TestExitCodes:
    def test_malformed_json(self, capsys, monkeypatch):
        code, _, err = invoke(capsys, monkeypatch, ["lineality"], stdin="{oops")
        assert code == EXIT_INPUT
        assert err

    def test_missing_field(self, capsys, monkeypatch):
        code, _, _ = invoke(capsys, monkeypatch, ["lineality"],
                            stdin=json.dumps({"d": 2, "vectors": []}))
        assert code == EXIT_INPUT

    def test_wrong_vector_length(self, capsys, monkeypatch):
        code, _, _ = invoke(capsys, monkeypatch, ["lineality"], stdin=json.dumps(
            {"d": 2, "role": "generators", "vectors": [[1, 2, 3]]}))
        assert code == EXIT_INPUT

    def test_capacity_exceeded(self, capsys, monkeypatch):
        # 25 generators, every one reversible, so the witness scan must run.
        vectors = [[[1, 0], [-1, 0], [0, 1], [0, -1]][i % 4] for i in range(25)]
        code, _, err = invoke(capsys, monkeypatch, ["helly-pos", "--k", "1"],
                              stdin=json.dumps({"d": 2, "role": "generators",
                                                "vectors": vectors}))
        assert code == EXIT_CAPACITY
        assert "cutoff" in err

    def test_past_the_cutoff_without_a_scan(self, capsys, monkeypatch):
        # A pointed set needs no witness; flat-helly scans no subsets.
        for argv, d, vectors in (
                (["helly-pos", "--k", "1"], 2, [[1, (i % 5) - 2] for i in range(25)]),
                (["flat-helly", "--k", "1"], 3,
                 [[(i % 5) - 2, (i // 5) - 2, 1] for i in range(25)])):
            code, out, err = invoke(capsys, monkeypatch, argv, stdin=json.dumps(
                {"d": d, "role": "generators", "vectors": vectors}))
            assert code == EXIT_OK, (argv, err)
            assert json.loads(out)["operation"] == argv[0]

    def test_no_vectors_in_a_huge_dimension(self, capsys, monkeypatch):
        # Elimination over no rows stops before it walks the columns.
        stdin = json.dumps({"d": 10**7, "role": "generators", "vectors": []})
        for argv, key, want in ((["lineality"], "lineality", {"dim": 0, "basis": []}),
                                (["helly-pos", "--k", "1"], "conclusion", True)):
            start = time.perf_counter()
            code, out, err = invoke(capsys, monkeypatch, argv, stdin=stdin)
            assert time.perf_counter() - start < 1, argv
            assert code == EXIT_OK, (argv, err)
            assert json.loads(out)["result"][key] == want

    def test_no_normals_in_a_large_dimension(self, capsys, monkeypatch):
        # Both build the 400 x 400 identity as a kernel basis and rank it.
        stdin = json.dumps({"d": 400, "role": "normals", "vectors": []})
        for argv, expected in (
                (["polar-lineality"], lambda r: r["lineality_of_polar"]["dim"] == 400),
                (["extract-cone", "--k", "1"], lambda r: len(r["generators"]) == 1)):
            start = time.perf_counter()
            code, out, err = invoke(capsys, monkeypatch, argv, stdin=stdin)
            assert time.perf_counter() - start < 1, argv
            assert code == EXIT_OK, (argv, err)
            assert expected(json.loads(out)["result"]), argv

    def test_boolean_d_rejected(self, capsys, monkeypatch):
        code, out, _ = invoke(capsys, monkeypatch, ["lineality"], stdin=json.dumps(
            {"d": True, "role": "generators", "vectors": [[1]]}))
        assert code == EXIT_INPUT and out == ""

    def _altered_report(self, capsys, monkeypatch, tmp_path, argv, stdin, field, value):
        code, out, err = invoke(capsys, monkeypatch, argv, stdin=stdin)
        assert code == EXIT_OK, err
        rep = json.loads(out)
        rep["inputs"][field] = value
        path = tmp_path / "report.json"
        path.write_text(json.dumps(rep))
        return invoke(capsys, monkeypatch, [argv[0], "--verify", str(path)])

    def test_boolean_k_in_report_rejected(self, capsys, monkeypatch, tmp_path):
        inst = gen_out(capsys, monkeypatch,
                       ["gen", "--example", "axis-pairs", "--k", "2", "--d", "2"])
        code, out, _ = self._altered_report(capsys, monkeypatch, tmp_path,
                                            ["helly-pos", "--k", "1"], inst, "k", True)
        assert code == EXIT_INPUT and out == ""

    def test_float_point_in_report_rejected(self, capsys, monkeypatch, tmp_path):
        inst = gen_out(capsys, monkeypatch, ["gen", "--example", "simplex", "--d", "2"])
        code, out, _ = self._altered_report(capsys, monkeypatch, tmp_path,
                                            ["membership", "--point", "1,1"], inst,
                                            "point", [1.5, 0])
        assert code == EXIT_INPUT and out == ""

    @pytest.mark.parametrize("d, vectors", [(1, "12"), (2, ["12", [0, 1]])])
    def test_string_vectors_rejected(self, capsys, monkeypatch, d, vectors):
        code, out, _ = invoke(capsys, monkeypatch, ["lineality"], stdin=json.dumps(
            {"d": d, "role": "generators", "vectors": vectors}))
        assert code == EXIT_INPUT and out == ""

    def test_string_point_in_report_rejected(self, capsys, monkeypatch, tmp_path):
        inst = gen_out(capsys, monkeypatch, ["gen", "--example", "simplex", "--d", "2"])
        code, out, _ = self._altered_report(capsys, monkeypatch, tmp_path,
                                            ["membership", "--point", "1,1"], inst,
                                            "point", "11")
        assert code == EXIT_INPUT and out == ""

    def test_unknown_command(self, capsys, monkeypatch):
        assert run(["frobnicate"]) == EXIT_INPUT

    def test_report_not_an_object(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "report.json"
        for text in ("[]", json.dumps({"operation": "lineality", "result": []})):
            path.write_text(text)
            code, _, err = invoke(capsys, monkeypatch,
                                  ["lineality", "--verify", str(path)])
            assert code == EXIT_INPUT and "result object" in err

    def test_reay_on_non_basis(self, capsys, monkeypatch):
        code, _, _ = invoke(capsys, monkeypatch, ["reay"], stdin=json.dumps(
            {"d": 2, "role": "generators", "vectors": [[1, 0], [0, 1]]}))
        assert code == EXIT_INPUT


# (argv, stdin) of malformed inputs; "{tmp}" is a fresh directory, so
# "{tmp}/missing.json" names no file, and "{tmp}/deep.json" holds DEEP.
INPUT_ERRORS = {
    "bad coordinate": (["lineality"], json.dumps(
        {"d": 1, "role": "generators", "vectors": [["1/x"]]})),
    "instance not an object": (["lineality"], "[]"),
    "unknown role": (["lineality"], json.dumps(
        {"d": 1, "role": "points", "vectors": []})),
    "unreadable report": (["lineality", "--verify", "{tmp}/missing.json"], None),
    "k missing": (["helly-pos"], SIMPLEX2),
    "k above d": (["helly-pos", "--k", "3"], SIMPLEX2),
    "k below its least value": (["helly-cone", "--k", "0"], SIMPLEX2),
    "point missing": (["membership"], SIMPLEX2),
    "point of the wrong length": (["membership", "--point", "1,2,3"], SIMPLEX2),
    "zero generator as a normal": (["maxcone"], json.dumps(
        {"d": 2, "role": "generators", "vectors": [[1, 0], [0, 0]]})),
    "gen simplex without --d": (["gen", "--example", "simplex"], None),
    "gen axis-pairs without --k": (["gen", "--example", "axis-pairs", "--d", "2"], None),
    "gen example2 without --d": (["gen", "--example", "example2", "--k", "1"], None),
    "gen random without --n": (["gen", "--example", "random", "--d", "2"], None),
    "gen unknown example": (["gen", "--example", "bogus", "--d", "2"], None),
    **GEN_RANGE_ERRORS,
    "tightness 1 without --d": (["verify-tightness", "--example", "1"], None),
    "tightness 2 without --k": (["verify-tightness", "--example", "2", "--d", "3"],
                                None),
    "fuzz unknown check": (["fuzz", "--trials", "1", "--checks", "bogus"], None),
    "fuzz repeated check": (["fuzz", "--trials", "3", "--checks",
                             "lineality,lineality"], None),
    "deep instance on stdin": (["lineality"], DEEP),
    "deep instance file": (["lineality", "--input", "{tmp}/deep.json"], None),
    "deep report": (["reay", "--verify", "{tmp}/deep.json"], None),
    "coordinate with a huge exponent": (["lineality"], json.dumps(
        {"d": 1, "role": "generators", "vectors": [["1e3000000"]]})),
    "coordinate with an exponent that is no number": (["lineality"], json.dumps(
        {"d": 1, "role": "generators", "vectors": [["1e"]]})),
    "point with a huge exponent": (["membership", "--point", "0e99999999,1"],
                                   SIMPLEX2),
    **EMPTY_FLAGS,
}


class TestInputErrors:
    @pytest.mark.parametrize("argv, stdin", INPUT_ERRORS.values(), ids=INPUT_ERRORS)
    def test_exits_input_with_empty_stdout(self, capsys, monkeypatch, tmp_path,
                                           argv, stdin):
        (tmp_path / "deep.json").write_text(DEEP, encoding="utf-8")
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        code, out, err = invoke(capsys, monkeypatch, argv, stdin=stdin)
        assert code == EXIT_INPUT and out == "" and err

    def test_theorem_contradiction_exits_internal(self, capsys, monkeypatch):
        def contradiction(x, p, certs):
            raise TheoremContradiction("synthetic contradiction")

        monkeypatch.setitem(cli.COMMANDS, "lineality",
                            cli.Command("generators", contradiction))
        code, out, err = invoke(capsys, monkeypatch, ["lineality"], stdin=SIMPLEX2)
        assert code == EXIT_INTERNAL and out == ""
        assert "synthetic contradiction" in err


# The searches of the report builders, as bound in cli.
SEARCHES = ("witness_lineality_enum", "witness_lineality_reay", "verify_cone_helly",
            "check_flat_helly", "extract_cone", "extract_positive_basis_indices",
            "reay_parts", "membership")


class TestTheoremChecks:
    # Computing, each library theorem check still runs where it can fire:
    # flat-helly's where its conclusion holds, the cone check's where it
    # fails.
    @pytest.mark.parametrize("search, gen, argv", [
        ("check_flat_helly", ["--example", "simplex", "--d", "2"],
         ["flat-helly", "--k", "2"]),
        ("verify_cone_helly", ["--example", "example2", "--d", "4", "--k", "2"],
         ["helly-cone", "--k", "2"]),
        ("verify_cone_helly", ["--example", "example2", "--d", "4", "--k", "2"],
         ["corollary", "--k", "2"]),
    ], ids=["flat-helly", "helly-cone", "corollary"])
    def test_compute_runs_the_check(self, capsys, monkeypatch, search, gen, argv):
        inst = gen_out(capsys, monkeypatch, ["gen"] + gen)

        def contradiction(*args):
            raise TheoremContradiction("synthetic contradiction")

        monkeypatch.setattr(cli, search, contradiction)
        code, out, err = invoke(capsys, monkeypatch, argv, stdin=inst)
        assert code == EXIT_INTERNAL and out == ""
        assert "synthetic contradiction" in err


class TestVerifyMode:
    def _report(self, capsys, monkeypatch, tmp_path, argv, stdin):
        code, out, err = invoke(capsys, monkeypatch, argv, stdin=stdin)
        assert code == EXIT_OK, err
        path = tmp_path / "report.json"
        path.write_text(out)
        return path, json.loads(out)

    def test_membership_report_verifies(self, capsys, monkeypatch, tmp_path):
        inst = gen_out(capsys, monkeypatch, ["gen", "--example", "simplex", "--d", "2"])
        path, _ = self._report(capsys, monkeypatch, tmp_path,
                               ["membership", "--point=-1,-1"], inst)
        code, out, _ = invoke(capsys, monkeypatch,
                              ["membership", "--verify", str(path)])
        assert code == EXIT_OK
        assert json.loads(out)["result"]["verified"] is True

    def test_tampered_membership_fails(self, capsys, monkeypatch, tmp_path):
        inst = gen_out(capsys, monkeypatch, ["gen", "--example", "simplex", "--d", "2"])
        path, rep = self._report(capsys, monkeypatch, tmp_path,
                                 ["membership", "--point", "1,1"], inst)
        rep["result"]["combination"] = [[0, 7]]
        path.write_text(json.dumps(rep))
        code, out, _ = invoke(capsys, monkeypatch,
                              ["membership", "--verify", str(path)])
        assert code == EXIT_INTERNAL
        assert json.loads(out)["result"]["verified"] is False

    def test_witness_reports_verify(self, capsys, monkeypatch, tmp_path):
        inst = gen_out(capsys, monkeypatch,
                       ["gen", "--example", "example2", "--d", "3", "--k", "1"])
        for argv in (["helly-cone", "--k", "1"], ["corollary", "--k", "1"],
                     ["flat-helly", "--k", "1"], ["maxcone"],
                     ["solution-rank"], ["polar-lineality"],
                     ["extract-cone", "--k", "0"], ["lineality"]):
            path, _ = self._report(capsys, monkeypatch, tmp_path, argv, inst)
            code, out, err = invoke(capsys, monkeypatch,
                                    argv[:1] + ["--verify", str(path)])
            assert code == EXIT_OK, (argv, err)
            assert json.loads(out)["result"]["verified"] is True, argv

    def test_posbasis_reay_helly_pos_verify(self, capsys, monkeypatch, tmp_path):
        inst = gen_out(capsys, monkeypatch,
                       ["gen", "--example", "axis-pairs", "--k", "2", "--d", "2"])
        for argv in (["posbasis"], ["reay"], ["helly-pos", "--k", "1"]):
            path, _ = self._report(capsys, monkeypatch, tmp_path, argv, inst)
            code, out, err = invoke(capsys, monkeypatch,
                                    argv[:1] + ["--verify", str(path)])
            assert code == EXIT_OK, (argv, err)
            assert json.loads(out)["result"]["verified"] is True, argv

    def _verify_altered(self, capsys, monkeypatch, tmp_path, argv, stdin, key, value):
        path, rep = self._report(capsys, monkeypatch, tmp_path, argv, stdin)
        rep["result"][key] = value(rep["result"][key])
        path.write_text(json.dumps(rep))
        return invoke(capsys, monkeypatch, [argv[0], "--verify", str(path)])

    def test_float_separator_rejected(self, capsys, monkeypatch, tmp_path):
        # The separator of (-1, 1) from pos{e1, e2} is (-1, 0); as JSON
        # floats it is malformed, like a float point or instance.
        plane = json.dumps({"d": 2, "role": "generators", "vectors": [[1, 0], [0, 1]]})
        code, out, _ = self._verify_altered(
            capsys, monkeypatch, tmp_path, ["membership", "--point=-1,1"], plane,
            "separator", lambda y: [float(c) for c in y])
        assert code == EXIT_INPUT and out == ""

    def test_float_generators_rejected(self, capsys, monkeypatch, tmp_path):
        quadrant = json.dumps({"d": 2, "role": "normals", "vectors": [[1, 0], [0, 1]]})
        code, out, _ = self._verify_altered(
            capsys, monkeypatch, tmp_path, ["extract-cone", "--k", "2"], quadrant,
            "generators", lambda gens: [[float(Fraction(c)) for c in g] for g in gens])
        assert code == EXIT_INPUT and out == ""

    def test_string_separator_rejected(self, capsys, monkeypatch, tmp_path):
        # "10" read digit by digit would be the separator (1, 0) of (1, 1)
        # from pos{-e1, -e2}; a vector is a JSON list, as in an instance.
        cone = json.dumps({"d": 2, "role": "generators", "vectors": [[-1, 0], [0, -1]]})
        code, out, _ = self._verify_altered(
            capsys, monkeypatch, tmp_path, ["membership", "--point", "1,1"], cone,
            "separator", lambda _: "10")
        assert code == EXIT_INPUT and out == ""

    def test_wrong_length_separator_rejected(self, capsys, monkeypatch, tmp_path):
        # A certificate vector is read at the instance's length, as a
        # generator row is: a separator with one coordinate too many is
        # malformed, not a false certificate.
        cone = json.dumps({"d": 2, "role": "generators", "vectors": [[-1, 0], [0, -1]]})
        code, out, _ = self._verify_altered(
            capsys, monkeypatch, tmp_path, ["membership", "--point", "1,1"], cone,
            "separator", lambda y: y + [0])
        assert code == EXIT_INPUT and out == ""

    @pytest.mark.parametrize("terms", [[[]], [{}], [[0]], [[0, 1, 1]], ["01"], {"0": 1}],
                             ids=["empty term", "object term", "one item",
                                  "three items", "string term", "object"])
    def test_malformed_combination_rejected(self, capsys, monkeypatch, tmp_path, terms):
        # Each term is a two-item JSON list [index, coefficient], as a
        # vector is a JSON list; anything else exits 2, never with a traceback.
        plane = json.dumps({"d": 2, "role": "generators", "vectors": [[1, 0], [0, 1]]})
        code, out, _ = self._verify_altered(
            capsys, monkeypatch, tmp_path, ["membership", "--point", "1,1"], plane,
            "combination", lambda _: terms)
        assert code == EXIT_INPUT and out == ""

    @pytest.mark.parametrize("terms", [[[0, 1], [1, 1], [1, 1]], [[0, 1], [1, 1], [-1, 1]],
                                       [[0, 1], [True, 1]]],
                             ids=["repeated index", "out-of-range index", "boolean index"])
    def test_combination_indices_checked(self, capsys, monkeypatch, tmp_path, terms):
        # Read as array positions, each of these would sum to the point
        # (1, 1) = e1 + e2; the indices must be a set of generators.
        plane = json.dumps({"d": 2, "role": "generators", "vectors": [[1, 0], [0, 1]]})
        code, out, _ = self._verify_altered(
            capsys, monkeypatch, tmp_path, ["membership", "--point", "1,1"], plane,
            "combination", lambda _: terms)
        assert code == EXIT_INTERNAL
        assert json.loads(out)["result"]["verified"] is False

    def test_string_generators_rejected(self, capsys, monkeypatch, tmp_path):
        # Read digit by digit, "10" and "01" would be e1 and e2, which do
        # span a 2-dimensional cone inside -x - y <= 0; the rows are
        # malformed all the same.
        halfplane = json.dumps({"d": 2, "role": "normals", "vectors": [[-1, -1]]})
        code, out, _ = self._verify_altered(
            capsys, monkeypatch, tmp_path, ["extract-cone", "--k", "2"], halfplane,
            "generators", lambda _: ["10", "01"])
        assert code == EXIT_INPUT and out == ""

    @pytest.mark.parametrize("parts", [[[False, 1, 2]], [[1, 0, 2]]],
                             ids=["boolean index", "unsorted part"])
    def test_reay_part_indices_checked(self, capsys, monkeypatch, tmp_path, parts):
        # Each part is a strictly increasing list of int indices, as
        # element indices and witness subsets are.
        inst = gen_out(capsys, monkeypatch, ["gen", "--example", "simplex", "--d", "2"])
        code, out, _ = self._verify_altered(capsys, monkeypatch, tmp_path, ["reay"],
                                            inst, "parts", lambda _: parts)
        assert code == EXIT_INTERNAL
        assert json.loads(out)["result"]["verified"] is False

    def test_verify_reruns_no_search(self, capsys, monkeypatch, tmp_path):
        # Genuine reports of all 12 instance commands, each certificate
        # field present, verify with every search bound in cli raising.
        cases = [
            (["--example", "axis-pairs", "--k", "2", "--d", "3"],
             [["lineality"], ["membership", "--point", "0,1,0"],
              ["membership", "--point", "0,0,1"], ["posbasis"], ["reay"],
              ["helly-pos", "--k", "1"]]),
            (["--example", "example2", "--d", "4", "--k", "2"],
             [["maxcone"], ["extract-cone", "--k", "1"], ["solution-rank"],
              ["polar-lineality"], ["helly-cone", "--k", "2"],
              ["corollary", "--k", "2"], ["flat-helly", "--k", "1"]]),
        ]
        reports = []
        for gen, argvs in cases:
            inst = gen_out(capsys, monkeypatch, ["gen"] + gen)
            for argv in argvs:
                code, out, err = invoke(capsys, monkeypatch, argv, stdin=inst)
                assert code == EXIT_OK, (argv, err)
                reports.append((argv[0], out))
        assert {op for op, _ in reports} == set(cli.COMMANDS)

        def search(*args):
            raise AssertionError("a search ran under --verify")

        for name in SEARCHES:
            monkeypatch.setattr(cli, name, search)
        path = tmp_path / "report.json"
        for op, out in reports:
            path.write_text(out)
            code, out, err = invoke(capsys, monkeypatch, [op, "--verify", str(path)])
            assert code == EXIT_OK, (op, err)
            assert json.loads(out)["result"]["verified"] is True, op

    def test_tampered_witness_fails(self, capsys, monkeypatch, tmp_path):
        inst = gen_out(capsys, monkeypatch,
                       ["gen", "--example", "example2", "--d", "3", "--k", "1"])
        path, rep = self._report(capsys, monkeypatch, tmp_path,
                                 ["helly-cone", "--k", "1"], inst)
        rep["result"]["witness"]["subset_indices"] = [0]
        path.write_text(json.dumps(rep))
        code, out, _ = invoke(capsys, monkeypatch,
                              ["helly-cone", "--verify", str(path)])
        assert code == EXIT_INTERNAL
        assert json.loads(out)["result"]["verified"] is False


# One golden report per instance command and last result field, so each
# optional certificate and witness field appears.
MALFORMED_BASES = {}
for _e in GOLDEN:
    if (_e["exit"] == 0 and _e["argv"][0] in cli.COMMANDS
            and "--verify" not in _e["argv"] and "--pretty" not in _e["argv"]):
        _rep = json.loads(_e["stdout"])
        MALFORMED_BASES.setdefault(f"{_e['argv'][0]} {list(_rep['result'])[-1]}", _rep)
MALFORMED_VALUES = [None, [], [[]], {}, "x", 1.5, True, [None], [[None]], [{}], -1, [[-1]]]


def malformed(report):
    """Copies of the report with one field set to each of MALFORMED_VALUES:
    each top-level field, each field of a top-level object and of an
    object inside one, and the first item of each nonempty list among them."""
    def paths(obj, prefix, depth):
        for key, value in obj.items():
            yield prefix + (key,)
            if isinstance(value, list) and value:
                yield prefix + (key, 0)
            if isinstance(value, dict) and depth < 2:
                yield from paths(value, prefix + (key,), depth + 1)

    for path in paths(report, (), 0):
        for value in MALFORMED_VALUES:
            bad = copy.deepcopy(report)
            holder = bad
            for step in path[:-1]:
                holder = holder[step]
            holder[path[-1]] = value
            yield path, value, bad


class TestMalformedReports:
    @pytest.mark.parametrize("report", MALFORMED_BASES.values(), ids=MALFORMED_BASES)
    def test_verify_never_crashes(self, capsys, tmp_path, report):
        # --verify on a report with any field malformed exits with a
        # documented code and raises nothing.
        path = tmp_path / "report.json"
        for field, value, bad in malformed(report):
            path.write_text(json.dumps(bad))
            code = run([report["operation"], "--verify", str(path)])
            capsys.readouterr()
            assert code in (EXIT_OK, EXIT_INPUT, EXIT_CAPACITY, EXIT_INTERNAL), (field, value)


# (gen arguments, command arguments, a result field the report must carry):
# small instances on which every optional field of every instance
# subcommand appears.
TAMPER_CASES = [
    (["--example", "simplex", "--d", "3"], ["lineality"], "lineality"),
    (["--example", "simplex", "--d", "2"], ["membership", "--point", "0,1"],
     "combination"),
    (["--example", "axis-pairs", "--k", "1", "--d", "2"],
     ["membership", "--point", "0,1"], "separator"),
    (["--example", "axis-pairs", "--k", "2", "--d", "3"], ["posbasis"],
     "element_indices"),
    (["--example", "axis-pairs", "--k", "2", "--d", "3"], ["reay"], "parts"),
    (["--example", "axis-pairs", "--k", "2", "--d", "3"], ["helly-pos", "--k", "1"],
     "witness_reay"),
    (["--example", "example2", "--d", "4", "--k", "2"], ["maxcone"], "lineality_dim"),
    (["--example", "example2", "--d", "4", "--k", "2"], ["extract-cone", "--k", "1"],
     "generators"),
    (["--example", "example2", "--d", "4", "--k", "2"], ["extract-cone", "--k", "2"],
     "lineality_dim"),
    (["--example", "example2", "--d", "4", "--k", "2"], ["solution-rank"], "rank"),
    (["--example", "example2", "--d", "4", "--k", "2"], ["polar-lineality"],
     "lineality_of_polar"),
    (["--example", "example2", "--d", "4", "--k", "2"], ["helly-cone", "--k", "2"],
     "witness"),
    (["--example", "example2", "--d", "4", "--k", "2"], ["corollary", "--k", "2"],
     "witness"),
    (["--example", "example2", "--d", "4", "--k", "2"], ["flat-helly", "--k", "1"],
     "witness"),
]


def tampered(report):
    """One copy of the report per result and bounds field, with that field
    made wrong."""
    fields = [("result", key) for key in report["result"]]
    fields += [("bounds", key) for key in report.get("bounds", {})]
    for section, key in fields:
        bad = copy.deepcopy(report)
        holder = bad[section]
        value = holder[key]
        if isinstance(value, bool):
            holder[key] = not value
        elif isinstance(value, int):
            holder[key] = value + 1
        elif key.startswith("witness"):
            del holder[key]
        elif isinstance(value, dict):  # a subspace: shrink it, or grow {0}
            d = report["inputs"]["d"]
            holder[key] = ({"dim": value["dim"] - 1, "basis": value["basis"][:-1]}
                           if value["dim"] else
                           {"dim": 1, "basis": [[int(j == 0) for j in range(d)]]})
        elif key == "combination":
            value[0][1] = frac_to_json(Fraction(value[0][1]) + 1)
        elif key == "separator":
            holder[key] = [frac_to_json(-Fraction(c)) for c in value]
        else:  # a list of indices, parts or generators
            holder[key] = value[:-1]
        yield f"{section}.{key}", bad


class TestTamper:
    def _verdict(self, capsys, monkeypatch, tmp_path, report):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        code, out, err = invoke(capsys, monkeypatch,
                                [report["operation"], "--verify", str(path)])
        assert out, err
        return code, json.loads(out)["result"]["verified"]

    @pytest.mark.parametrize("gen, argv, field", TAMPER_CASES,
                             ids=[f"{' '.join(c[1])} on {c[0][1]}" for c in TAMPER_CASES])
    def test_every_field_is_checked(self, capsys, monkeypatch, tmp_path,
                                    gen, argv, field):
        inst = gen_out(capsys, monkeypatch, ["gen"] + gen)
        code, out, err = invoke(capsys, monkeypatch, argv, stdin=inst)
        assert code == EXIT_OK, err
        report = json.loads(out)
        assert field in report["result"]
        assert self._verdict(capsys, monkeypatch, tmp_path, report) == (EXIT_OK, True)
        for name, bad in tampered(report):
            assert self._verdict(capsys, monkeypatch, tmp_path, bad) \
                == (EXIT_INTERNAL, False), name

    def test_posbasis_target_is_checked(self, capsys, monkeypatch, tmp_path):
        # +-e1 is a positive basis of span(e1), but the lineality space of
        # +-e1, +-e2 is the whole plane
        inst = gen_out(capsys, monkeypatch,
                       ["gen", "--example", "axis-pairs", "--k", "2", "--d", "2"])
        code, out, err = invoke(capsys, monkeypatch, ["posbasis"], stdin=inst)
        assert code == EXIT_OK, err
        report = json.loads(out)
        report["result"]["target"] = {"dim": 1, "basis": [[1, 0]]}
        report["result"]["element_indices"] = [0, 1]
        assert self._verdict(capsys, monkeypatch, tmp_path, report) \
            == (EXIT_INTERNAL, False)


# Non-integer instances of the golden corpus.  In both, the generator
# scales c_i (the lcm of each vector's denominators) are 2, 3, 4, 5, 1, 1
# and 4, so --verify must convert a certificate by them before its
# integer substitution.
FRACTIONAL3 = json.dumps({"d": 3, "role": "generators", "vectors": [
    [0, 1, "-1/2"], ["-2/3", 0, -2], ["-3/2", "-3/2", "9/4"], ["3/5", "1/5", "1/5"],
    [2, 2, 3], [-2, 2, -1], ["1/4", "3/4", "1/4"]]})
FRACTIONAL4 = json.dumps({"d": 4, "role": "generators", "vectors": [
    ["-1/2", "-1/2", "3/2", "-3/2"], ["4/3", "-4/3", 2, 0], ["-3/2", "9/4", "-3/2", "-9/4"],
    ["-1/5", 0, "-3/5", "2/5"], [-3, 1, 0, 0], [-2, 1, -1, 0], ["-1/4", "3/4", "1/2", "-3/4"]]})


class TestFractionalTamper:
    """Altered membership certificates on non-integer instances exit 4;
    the golden corpus replays only true reports on them."""

    def _verdict(self, capsys, monkeypatch, tmp_path, argv, stdin, alter):
        code, out, err = invoke(capsys, monkeypatch, argv, stdin=stdin)
        assert code == EXIT_OK, err
        report = json.loads(out)
        alter(report["result"], report["inputs"]["vectors"])
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        code, out, err = invoke(capsys, monkeypatch, ["membership", "--verify", str(path)])
        assert out, err
        return code, json.loads(out)["result"]["verified"]

    @pytest.mark.parametrize("entry", range(3))
    def test_coefficient_times_its_scale_fails(self, capsys, monkeypatch, tmp_path, entry):
        # (1/4, 7/4, -1/4) = 17/9 g_0 + 2/9 g_2 + 35/36 g_3, scales 2, 4, 5.
        def alter(res, vectors):
            i, c = res["combination"][entry]
            res["combination"][entry][1] = frac_to_json(
                Fraction(c) * lcm(*(Fraction(x).denominator for x in vectors[i])))

        assert self._verdict(capsys, monkeypatch, tmp_path,
                             ["membership", "--point=1/4,7/4,-1/4"], FRACTIONAL3,
                             lambda res, vectors: None) == (EXIT_OK, True)
        assert self._verdict(capsys, monkeypatch, tmp_path,
                             ["membership", "--point=1/4,7/4,-1/4"], FRACTIONAL3,
                             alter) == (EXIT_INTERNAL, False)

    @pytest.mark.parametrize("sign, want", [(1, (EXIT_OK, True)),
                                            (-1, (EXIT_INTERNAL, False))],
                             ids=["positive", "negative"])
    def test_negative_coefficient_fails(self, capsys, monkeypatch, tmp_path, sign, want):
        # The combination 1 g_1 + sign g_4 sums to the point exactly, so
        # only the sign of its second coefficient decides.
        g1, g4 = (-Fraction(2, 3), 0, -2), (2, 2, 3)
        point = ",".join(str(a + sign * b) for a, b in zip(g1, g4))

        def alter(res, vectors):
            res["combination"] = [[1, 1], [4, sign]]

        assert self._verdict(capsys, monkeypatch, tmp_path,
                             ["membership", f"--point={point}"], FRACTIONAL3,
                             alter) == want

    @pytest.mark.parametrize("j", range(4))
    def test_separator_with_a_coordinate_negated_fails(self, capsys, monkeypatch,
                                                       tmp_path, j):
        # The separator of (1/2, 1/2, -3/2, 3/2) is (1, 5/8, -1/4, 1/8).
        def alter(res, vectors):
            res["separator"][j] = frac_to_json(-Fraction(res["separator"][j]))

        assert self._verdict(capsys, monkeypatch, tmp_path,
                             ["membership", "--point=1/2,1/2,-3/2,3/2"], FRACTIONAL4,
                             alter) == (EXIT_INTERNAL, False)


class TestFuzzCommand:
    def test_zero_trials(self, capsys, monkeypatch, tmp_path):
        code, out, _ = invoke(capsys, monkeypatch,
                              ["fuzz", "--trials", "0", "--dump-dir", str(tmp_path)])
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["result"]["trials_run"] == 0
        assert rep["result"]["failures"] == []

    def test_fixed_seed_reproducible(self, capsys, monkeypatch, tmp_path):
        argv = ["fuzz", "--trials", "5", "--d-max", "3", "--n-max", "6",
                "--seed", "7", "--dump-dir", str(tmp_path)]
        code1, out1, _ = invoke(capsys, monkeypatch, argv)
        code2, out2, _ = invoke(capsys, monkeypatch, argv)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        # FuzzSummary's wall-clock fields stay out of the report.
        assert "seconds" not in out1

    def test_env_seed_override(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("CONEHELLY_SEED", "99")
        code, out, _ = invoke(capsys, monkeypatch,
                              ["fuzz", "--trials", "1", "--seed", "3",
                               "--dump-dir", str(tmp_path)])
        assert code == EXIT_OK
        assert json.loads(out)["inputs"]["seed"] == 99

    def test_bad_env_seed(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("CONEHELLY_SEED", "not-a-number")
        code, _, _ = invoke(capsys, monkeypatch,
                            ["fuzz", "--trials", "1", "--dump-dir", str(tmp_path)])
        assert code == EXIT_INPUT

    def test_capacity_refusal_is_not_a_failure(self, capsys, monkeypatch, tmp_path):
        # Trial 1 draws 58 vectors in R^2, all reversible, past the witness
        # scan's cutoff: fuzz refuses as every command does past the gate,
        # rather than filing the refusal as a theorem failure.
        code, out, err = invoke(capsys, monkeypatch,
                                ["fuzz", "--d-max", "4", "--n-max", "60", "--trials", "20",
                                 "--seed", "3", "--dump-dir", str(tmp_path)])
        assert (code, out) == (EXIT_CAPACITY, "")
        assert "enumeration cutoff" in err
        assert list(tmp_path.iterdir()) == []
