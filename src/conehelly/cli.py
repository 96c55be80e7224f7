"""Command line front end.

Instances and reports travel as JSON.  An instance file looks like

    {"d": 3, "role": "generators", "vectors": [[1, 0, 0], ["1/2", -1, 0]]}

with integer coordinates as JSON numbers (or strings) and non-integers as
strings "p/q" with positive q.  Every subcommand writes a report object
{"operation", "inputs", "result", ...} to stdout; the inputs echo the
full instance so a report is self-contained and can be re-verified later
with --verify.

Each instance subcommand is one entry of COMMANDS: the role its instance
takes, the function that builds its report, and the checker of the
certificates in that report.  A builder serves both modes: it recomputes
the cheap fields, and each certificate is the one fork (_cert), found by
its search when computing and copied from the given report under
--verify.  --verify requires the rebuilt report to equal the given one,
and checks every certificate on its own; it reruns no search.

Exit codes: 0 success, 2 malformed input, 3 enumeration capacity
exceeded, 4 internal-error signal (a theorem-backed assertion fired, or a
report failed re-verification) - the last one always deserves a bug
report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from math import lcm
from typing import Callable, NamedTuple

from . import lp
from .errors import CapacityError, TheoremContradiction
from .cone import (
    HalfspaceSystem,
    _certifies,
    _check_k,
    extract_cone,
    lineality_dim,
    lineality_of_polar,
    lineality_space,
    max_cone_dim,
    membership,
    verify_cone_generators,
)
from .fuzzing import ALL_CHECKS, FuzzConfig, run_fuzz
from .gens import (
    gen_axis_pairs,
    gen_example2,
    gen_random,
    gen_simplex_like,
    verify_tightness_example1,
    verify_tightness_example2,
)
from .helly import (
    HellyBounds,
    bound_h,
    bound_m,
    check_flat_helly,
    verify_cone_helly,
    witness_holds,
    witness_lineality_enum,
    witness_lineality_reay,
)
from .posbasis import (
    PositiveBasis,
    extract_positive_basis_indices,
    is_positive_basis,
    reay_parts,
    verify_reay,
)
from .ratlin import SubspaceBasis, VectorSet, int_row, is_index_set, rank_of_rows

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4


class InputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# JSON (de)serialization


def frac_to_json(x: Fraction | int):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def coord_from_json(v):
    """A JSON number as the library takes it: an int as it is, a string
    ("p/q", an integer, a decimal) as a Fraction; a float or bool is
    refused."""
    if type(v) is int:
        return v
    if isinstance(v, (bool, float)):
        raise InputError(f"coordinate {v!r} is not an integer or 'p/q' string")
    if isinstance(v, str) and _huge_exponent(v):
        # Fraction would build 10**exponent first, unbounded work for a
        # few bytes, and the echo could not print the result anyway.
        raise InputError(f"bad coordinate {v!r}: exponent too large")
    try:
        return Fraction(v)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"bad coordinate {v!r}: {exc}") from exc


def _huge_exponent(v: str) -> bool:
    """The exponent of a decimal string such as "1e3000000" exceeds, in
    magnitude, the digits an int may have as a string (no limit when 0)."""
    limit = sys.get_int_max_str_digits()
    _, e, exp = v.lower().partition("e")
    try:
        return bool(e and limit) and abs(int(exp)) > limit
    except ValueError:  # not an exponent; Fraction judges the form
        return False


def vector_to_json(v) -> list:
    return [frac_to_json(c) for c in v]


def rows_to_json(vs: VectorSet) -> list:
    """The vectors of a vector set or subspace basis, written from its
    integer rows: a row of scale 1 is its own JSON, and only other rows
    build Fractions."""
    return [list(r) if c == 1 else [frac_to_json(Fraction(a, c)) for a in r]
            for c, r in zip(vs.int_scales, vs.int_rows)]


def instance_to_json(vs: VectorSet, role: str) -> dict:
    return {"d": vs.ambient_dim, "role": role, "vectors": rows_to_json(vs)}


def row_from_json(row, d: int) -> tuple:
    """A vector: a JSON list of d coordinates, each read by
    coord_from_json.  Anything else, a string included, is refused."""
    if not isinstance(row, list):
        raise InputError(f"vector {row!r} is not a JSON list")
    if len(row) != d:
        raise InputError(f"vector {row!r} does not have length {d}")
    return tuple(map(coord_from_json, row))


def vectors_from_json(rows, d: int) -> VectorSet:
    """A JSON list of vectors of length d, each read by row_from_json.  An
    all-int list (bools are not ints here) is its own integer form."""
    if not isinstance(rows, list):
        raise InputError("vectors must be a JSON list")
    vectors = [row_from_json(row, d) for row in rows]
    if all(type(c) is int for v in vectors for c in v):
        return VectorSet.from_int_form(d, [(1, v) for v in vectors])
    return VectorSet(d, vectors)


def instance_from_json(obj) -> tuple[VectorSet, str]:
    if not isinstance(obj, dict):
        raise InputError("instance must be a JSON object")
    try:
        d = obj["d"]
        role = obj["role"]
        rows = obj["vectors"]
    except KeyError as exc:
        raise InputError(f"instance missing field {exc}") from exc
    if type(d) is not int or d < 1:
        raise InputError("d must be a positive integer")
    if role not in ("generators", "normals"):
        raise InputError(f"unknown role {role!r}")
    vs = vectors_from_json(rows, d)
    if role == "normals" and not all(map(any, vs.int_rows)):
        raise InputError("zero vector not allowed among outer normals")
    return vs, role


def subspace_to_json(s: SubspaceBasis) -> dict:
    return {"dim": s.dim, "basis": rows_to_json(s)}


def bounds_to_json(b) -> dict:
    return {"k": b.k, "d": b.d, "m": b.m, "h": b.h}


def make_report(operation: str, inputs: dict, result: dict, bounds=None) -> dict:
    rep = {"operation": operation, "inputs": inputs, "result": result}
    if bounds is not None:
        rep["bounds"] = bounds_to_json(bounds)
    return rep


def _render_pretty(obj, indent=0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for key, val in obj.items():
            if isinstance(val, (dict, list)) and val:
                lines.append(f"{pad}{key}:")
                lines.append(_render_pretty(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {json.dumps(val)}")
        return "\n".join(lines)
    if isinstance(obj, list):
        return "\n".join(f"{pad}- {json.dumps(item)}" for item in obj)
    return f"{pad}{json.dumps(obj)}"


def emit(report: dict, pretty: bool) -> None:
    if pretty:
        print(_render_pretty(report))
    else:
        print(json.dumps(report))


# ---------------------------------------------------------------------------
# Input plumbing


def _read_json(path: str | None, what: str):
    """The JSON value in the file at path, or on stdin if path is None;
    a file or JSON error is an InputError that names what was read."""
    try:
        if path is None:
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"cannot read {what}: {exc}") from exc


def load_instance(args) -> tuple[VectorSet, str]:
    """The instance at --input, or on stdin when --input is absent."""
    return instance_from_json(_read_json(args.input, "instance"))


def load_report(path: str) -> dict:
    rep = _read_json(path, "report")
    if not isinstance(rep, dict) or not isinstance(rep.get("result"), dict):
        raise InputError("a report must be a JSON object with a result object")
    return rep


# ---------------------------------------------------------------------------
# Report builders
#
# A builder gets the instance, the validated parameters and ``certs``, the
# result of the report being verified or None when computing.  It reads
# each certificate (witness subset, extracted indices, generators, Reay
# parts) through _cert, the one fork between the modes; membership keeps
# its own, as the kind of its certificate is its answer.  The searches
# raise TheoremContradiction where a theorem would fail.  Every other
# field is recomputed from the instance in both modes, each hypothesis
# flag from the theorem that equates it with its conclusion.


def _cert(certs: dict | None, key: str, find: Callable):
    """Certificate ``key``: ``find()`` computing, the report's verifying."""
    return find() if certs is None else certs.get(key)


def _witness(certs, key: str, find: Callable, prop: str, size_bound: int) -> dict:
    """A witness field: the certificate is the subset of the Witness that
    ``find()`` returns (None where the conclusion holds); its property and
    size bound follow from the theorem."""
    def found():
        w = find()
        return {"subset_indices": w and list(w.subset_indices)}

    w = _cert(certs, key, found)
    ids = w.get("subset_indices") if isinstance(w, dict) else None
    return {"subset_indices": ids, "property": prop, "size_bound": size_bound}


def _lineality(vs: VectorSet, p: dict, certs) -> dict:
    return {"lineality": subspace_to_json(lineality_space(vs))}


def _membership(vs: VectorSet, p: dict, certs) -> dict:
    if certs is None:
        cert = membership(tuple(map(coord_from_json, p["point"])), vs)
        if cert.is_member:
            certs = {"combination": [[i, frac_to_json(c)] for i, c in cert.combination]}
        else:
            certs = {"separator": vector_to_json(cert.separator)}
    if "combination" in certs:
        return {"member": True, "combination": certs["combination"]}
    return {"member": False, "separator": certs.get("separator")}


def _posbasis(vs: VectorSet, p: dict, certs) -> dict:
    return {
        "target": subspace_to_json(lineality_space(vs)),
        "element_indices": _cert(certs, "element_indices",
                                 lambda: list(extract_positive_basis_indices(vs))),
    }


def _reay(vs: VectorSet, p: dict, certs) -> dict:
    target = lineality_space(vs)

    def find():
        try:
            basis = PositiveBasis(target=target, elements=vs)
        except ValueError:
            raise InputError(
                "input is not a positive basis of its own lineality space") from None
        return [list(part) for part in reay_parts(basis)]

    return {"target": subspace_to_json(target), "parts": _cert(certs, "parts", find)}


def _maxcone(h: HalfspaceSystem, p: dict, certs) -> dict:
    return {
        "max_cone_dim": max_cone_dim(h),
        "lineality_dim": lineality_dim(h.normals),
    }


def _solution_rank(h: HalfspaceSystem, p: dict, certs) -> dict:
    return {"rank": max_cone_dim(h)}


def _polar_lineality(h: HalfspaceSystem, p: dict, certs) -> dict:
    return {"lineality_of_polar": subspace_to_json(lineality_of_polar(h))}


def _extract_cone(h: HalfspaceSystem, p: dict, certs) -> dict:
    k = p["k"]
    mcd = max_cone_dim(h)
    if k <= mcd:
        gens = _cert(certs, "generators", lambda: rows_to_json(extract_cone(h, k)))
        return {"feasible": True, "generators": gens}
    return {
        "feasible": False,
        "max_cone_dim": mcd,
        "lineality_dim": h.ambient_dim - mcd,
    }


def _helly_pos(vs: VectorSet, p: dict, certs) -> dict:
    k = p["k"]
    ldim = lineality_dim(vs)
    h = bound_h(k, vs.ambient_dim)
    result = {
        "hypothesis": ldim <= k,
        "conclusion": ldim <= k,
        "lineality_dim": ldim,
        "h": h,
    }
    if ldim > k:
        # The minimal-witness search is the enumerative witness, and it
        # raises if none exists within h(k,d): the hypothesis then fails
        # exactly when the conclusion does.
        for key, find in (("witness_enum", witness_lineality_enum),
                          ("witness_reay", witness_lineality_reay)):
            result[key] = _witness(certs, key, lambda: find(vs, k),
                                   "lineality_dim_exceeds", h)
    return result


def _helly_cone(h: HalfspaceSystem, p: dict, certs) -> dict:
    k = p["k"]
    mcd = max_cone_dim(h)
    result = {
        "hypothesis": mcd >= k,
        "conclusion": mcd >= k,
        "max_cone_dim": mcd,
        "lineality_dim": h.ambient_dim - mcd,
    }
    if mcd < k:
        # Where mcd >= k the search stops, with no check, at its first rank.
        result["witness"] = _witness(certs, "witness",
                                     lambda: verify_cone_helly(h, k).witness,
                                     "no_k_dim_cone", bound_m(k, h.ambient_dim))
    return result


def _corollary(h: HalfspaceSystem, p: dict, certs) -> dict:
    # The cone Helly report under other names, as helly.corollary_check.
    cone = _helly_cone(h, p, certs)
    result = {
        "rank": cone["max_cone_dim"],
        "global_holds": cone["conclusion"],
        "subsystems_hold": cone["hypothesis"],
    }
    if "witness" in cone:
        result["witness"] = cone["witness"] | {"property": "solution_rank_below_k"}
    return result


def _flat_helly(h: HalfspaceSystem, p: dict, certs) -> dict:
    k, d = p["k"], h.ambient_dim
    rank = rank_of_rows(h.normals.int_rows, d)
    # The greedy search runs on every compute: its theorem check compares
    # the polar kernel with the greedy independent set.
    witness = _witness(certs, "witness", lambda: check_flat_helly(h, k).witness,
                       "independent_normals", k + 1)
    result = {
        "polar_lineality_dim": d - rank,
        "normal_rank": rank,
        "subspace_conclusion": rank <= k,
        "all_small_subsets_dependent": rank <= k,
    }
    if rank > k:
        result["witness"] = witness
    return result


# ---------------------------------------------------------------------------
# Certificate checkers: each sees a report already equal to its rebuild,
# so its fields are present and its witnesses carry the right property
# and size bound.


def _check_membership(vs: VectorSet, inputs: dict, res: dict) -> bool:
    """The certificate in the integer form of the LP's answer on the rows
    r_i = c_i g_i and t = c_b b, put to the library's one substitution
    check: a separator y as int_row(y), a combination a as x / den with
    x_i / den = a_i c_b / c_i, so sum_i x_i r_i = den t iff sum_i a_i g_i = b."""
    cb, t = int_row(tuple(map(coord_from_json, inputs["point"])))
    if not res["member"]:
        y = int_row(row_from_json(res["separator"], vs.ambient_dim))[1]
        return _certifies(vs.int_rows, t, lp.LPResult(lp.INFEASIBLE, farkas=y))
    pairs = res["combination"]
    if not (isinstance(pairs, list)
            and all(isinstance(term, list) and len(term) == 2 for term in pairs)):
        raise InputError("a combination must be a JSON list of [index, coefficient] pairs")
    if not is_index_set([pair[0] for pair in pairs], len(vs)):
        return False
    coeffs = [(i, coord_from_json(a), vs.int_scales[i]) for i, a in pairs]
    den = lcm(*(a.denominator * c for _, a, c in coeffs))
    x = [0] * len(vs)
    for i, a, c in coeffs:
        x[i] = a.numerator * cb * (den // (a.denominator * c))
    return _certifies(vs.int_rows, t, lp.LPResult(lp.OPTIMAL, x=x, den=den))


def _check_posbasis(vs: VectorSet, inputs: dict, res: dict) -> bool:
    kept = res["element_indices"]
    return (is_index_set(kept, len(vs))
            and is_positive_basis(vs.subset(kept), lineality_space(vs)))


def _check_reay(vs: VectorSet, inputs: dict, res: dict) -> bool:
    return verify_reay(vs, res["parts"])


def _check_generators(h: HalfspaceSystem, inputs: dict, res: dict) -> bool:
    return not res["feasible"] or verify_cone_generators(
        h, vectors_from_json(res["generators"], h.ambient_dim), inputs["k"])


# ---------------------------------------------------------------------------
# The command table


class Command(NamedTuple):
    role: str  # "generators": any instance; "normals": a halfspace system
    build: Callable
    check: Callable | None = None
    k_min: int | None = None  # lowest --k accepted; None: no --k
    point: bool = False  # takes --point
    bounds: bool = False  # the report carries the Helly bounds of (k, d)


COMMANDS = {
    "lineality": Command("generators", _lineality),
    "membership": Command("generators", _membership, _check_membership,
                          point=True),
    "posbasis": Command("generators", _posbasis, _check_posbasis),
    "reay": Command("generators", _reay, _check_reay),
    "maxcone": Command("normals", _maxcone),
    "extract-cone": Command("normals", _extract_cone, _check_generators, k_min=0),
    "solution-rank": Command("normals", _solution_rank),
    "polar-lineality": Command("normals", _polar_lineality),
    "helly-pos": Command("generators", _helly_pos, k_min=1),
    "helly-cone": Command("normals", _helly_cone, k_min=1, bounds=True),
    "corollary": Command("normals", _corollary, k_min=1, bounds=True),
    "flat-helly": Command("normals", _flat_helly, k_min=0),
}


def _params(cmd: Command, d: int, raw: dict) -> dict:
    """The validated parameters beyond the instance, as the report echoes
    them; ``raw`` holds "k" and "point" from the flags or the report."""
    if cmd.k_min is not None:
        k = raw.get("k")
        if k is None:
            raise InputError("--k is required")
        if type(k) is not int:
            raise InputError(f"k must be an integer, got {k!r}")
        _check_k(k, d, cmd.k_min)
        return {"k": k}
    if cmd.point:
        if raw.get("point") is None:
            raise InputError("membership requires --point")
        return {"point": vector_to_json(row_from_json(raw["point"], d))}
    return {}


def _build_report(name: str, vs: VectorSet, role: str, raw: dict, certs):
    """(the instance the command works on, its report)."""
    cmd = COMMANDS[name]
    x = vs
    if cmd.role == "normals":
        try:
            x, role = HalfspaceSystem(vs), "normals"
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    params = _params(cmd, vs.ambient_dim, raw)
    result = cmd.build(x, params, certs)
    bounds = HellyBounds(params["k"], vs.ambient_dim) if cmd.bounds else None
    return x, make_report(name, instance_to_json(vs, role) | params, result, bounds)


def _verify_report(name: str, rep: dict) -> dict:
    """Rebuild the report from its echoed instance and certificates,
    require it to equal the given one, then check every certificate."""
    inputs = rep.get("inputs")
    x, expected = _build_report(name, *instance_from_json(inputs),
                                inputs, rep["result"])
    ok = json.dumps(expected, sort_keys=True) == json.dumps(rep, sort_keys=True)
    if ok:
        res = rep["result"]
        check = COMMANDS[name].check
        ok = all(witness_holds(x, inputs.get("k"), w["subset_indices"],
                               w["property"], w["size_bound"])
                 for key, w in res.items() if key.startswith("witness"))
        ok = ok and (check is None or check(x, inputs, res))
    return {
        "operation": "verify",
        "inputs": {"operation": rep.get("operation")},
        "result": {"verified": bool(ok)},
    }


def _required(args, *flags: str) -> dict:
    """{flag: value} for the named flags, each of which must be given."""
    missing = [f"--{f}" for f in flags if getattr(args, f) is None]
    if missing:
        raise InputError(f"{args.command} --example {args.example} requires "
                         + " and ".join(missing))
    return {f: getattr(args, f) for f in flags}


def cmd_gen(args) -> dict:
    name = args.example
    if name == "example2":
        return instance_to_json(gen_example2(**_required(args, "d", "k")).normals, "normals")
    if name == "simplex":
        vs = gen_simplex_like(**_required(args, "d"))
    elif name == "axis-pairs":
        vs = gen_axis_pairs(**_required(args, "k", "d"))
    else:  # "random", the one choice left
        vs = gen_random(**_required(args, "d", "n"), bound=args.bound, seed=args.seed)
    return instance_to_json(vs, "generators")


def cmd_verify_tightness(args) -> dict:
    if args.example == "1":
        inputs = _required(args, "d")
        holds = verify_tightness_example1(**inputs)
    else:  # "2", the one choice left
        inputs = _required(args, "d", "k")
        holds = verify_tightness_example2(**inputs)
    return make_report("verify-tightness", {"example": args.example} | inputs,
                       {"holds": holds})


def cmd_fuzz(args) -> tuple[dict, int]:
    seed = args.seed
    env = os.environ.get("CONEHELLY_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise InputError(f"bad CONEHELLY_SEED: {exc}") from exc
    checks = ALL_CHECKS if args.checks is None else tuple(args.checks.split(","))
    try:
        config = FuzzConfig(d_max=args.d_max, n_max=args.n_max,
                            bound=args.bound, trials=args.trials, seed=seed,
                            checks=checks)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    summary = run_fuzz(config)
    failures = []
    for f in summary.failures:
        failures.append({
            "trial": f.trial,
            "trial_seed": f.trial_seed,
            "check": f.check,
            "message": f.message,
            "instance": instance_to_json(f.instance, "generators"),
        })
        path = os.path.join(args.dump_dir,
                            f"fuzz_failure_trial{f.trial}_{f.check}.json")
        try:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(failures[-1], fh, indent=2)
        except OSError as exc:  # the report below still lists the failure
            print(f"error: cannot write failure dump {path}: {exc}", file=sys.stderr)
    report = make_report("fuzz", {
        "d_max": args.d_max, "n_max": args.n_max, "bound": args.bound,
        "trials": args.trials, "seed": seed, "checks": list(checks),
    }, {
        # wall-clock figures stay out of the report so equal seeds give
        # byte-identical output
        "trials_run": summary.trials_run,
        "checks_passed": summary.checks_passed,
        "failures": failures,
        "reay_bases": summary.checks_passed.get("posbasis", 0),
    })
    return report, (EXIT_INTERNAL if failures else EXIT_OK)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


def _nonempty(value: str) -> str:
    """A string flag's value: an empty one is refused, never taken for an
    absent flag."""
    if not value:
        raise argparse.ArgumentTypeError("must not be empty")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conehelly",
        description="Exact polyhedral-cone computations and Helly checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices  # name -> its parser, for run

    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", type=_nonempty,
                       help="instance JSON path (default: stdin)")
        p.add_argument("--k", type=int)
        p.add_argument("--point", type=_nonempty,
                       help="comma-separated rational coordinates")
        p.add_argument("--verify", type=_nonempty, metavar="REPORT",
                       help="re-verify an existing report instead of computing")

    p = sub.add_parser("gen")
    p.add_argument("--example", required=True,
                   choices=["simplex", "axis-pairs", "example2", "random"])
    p.add_argument("--d", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify-tightness")
    p.add_argument("--example", required=True, choices=["1", "2"])
    p.add_argument("--d", type=int)
    p.add_argument("--k", type=int)

    p = sub.add_parser("fuzz")
    p.add_argument("--d-max", type=int, default=4)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checks", type=_nonempty, help="comma-separated subset of "
                   + ",".join(ALL_CHECKS))
    p.add_argument("--dump-dir", type=_nonempty, default=".",
                   help="directory for failing-instance dumps")

    for p in sub.choices.values():
        p.add_argument("--pretty", action="store_true")
        p.add_argument("--json", action="store_true", help="JSON output (default)")
    return parser


_parser: argparse.ArgumentParser | None = None  # built on first use


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed as build_parser()'s parser parses it.  A call that
    names a subcommand goes straight to that subcommand's parser, which
    the full parser would hand the rest of argv to; the full parser runs
    only when argv[0] names no subcommand or arguments are left over, so
    help, usage and every error text are its own."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    sub = _parser.subcommands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return _parser.parse_args(argv)


def run(argv: list[str]) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        code = EXIT_OK
        if args.command == "gen":
            report = cmd_gen(args)
        elif args.command == "verify-tightness":
            report = cmd_verify_tightness(args)
        elif args.command == "fuzz":
            report, code = cmd_fuzz(args)
        elif args.verify is not None:
            report = _verify_report(args.command, load_report(args.verify))
            code = EXIT_OK if report["result"]["verified"] else EXIT_INTERNAL
        else:
            point = None if args.point is None else args.point.split(",")
            _, report = _build_report(args.command, *load_instance(args),
                                      {"k": args.k, "point": point}, None)
        emit(report, args.pretty)
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except TheoremContradiction as exc:
        print(f"internal error (please report): {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
