"""The three workloads: their inputs, ops and correctness checks.

Every workload builds a fixed list of ops in ``setup``.  A pass runs each
op once, in an order drawn from the run's seed; the program's lru_caches
are emptied before every op, so an op costs what a first call costs and
the order cannot change any result.

After the timed passes ``check`` collects the program's answers on every
input and checks them with :mod:`oracle`, which does not use conehelly's
linear algebra.  ``corruptions`` hands the same checker deliberately
wrong answers; each one must be reported, or the checker checks nothing.
"""

from __future__ import annotations

import copy
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import oracle


class Op:
    """One timed call into the program.  ``kind`` groups ops for the
    metrics; ``expect`` is False for a report altered to be wrong, whose
    verification must fail."""

    def __init__(self, kind: str, label: str, call, expect: bool = True,
                 index: int = 0):
        self.kind = kind
        self.label = label
        self.call = call
        self.expect = expect
        self.index = index


def clear_caches(ch) -> None:
    """Empty every lru_cache the program had when it was imported (today
    reversible_indices and positive_circuits)."""
    for cache in ch.caches:
        cache.cache_clear()


def _rows(vs) -> list[tuple]:
    return [tuple(v) for v in vs]


def _membership_oracle(ch):
    """The program's membership answer in the oracle's plain form."""
    def ask(point, rows):
        gens = ch.ratlin.VectorSet(len(point), tuple(tuple(r) for r in rows))
        cert = ch.cone.membership(tuple(point), gens)
        if cert.is_member:
            return "combination", list(cert.combination)
        return "separator", list(cert.separator)
    return ask


# ---------------------------------------------------------------------------
# Fuzz workloads: a fixed prefix of an acceptance fuzz stream


class FuzzWorkload:
    def __init__(self, config: dict, trials: int):
        self.config = config
        self.trials = trials

    def setup(self, ch) -> None:
        fz = ch.fuzzing
        cfg = fz.FuzzConfig(trials=self.trials, **self.config)
        self.checks = cfg.checks
        self.instances = [fz.trial_instance(cfg, i)[1] for i in range(self.trials)]
        self.ops = [Op("trial", f"trial {i}",
                       lambda vs=vs: ch.fuzzing.run_trial_checks(vs, self.checks))
                    for i, vs in enumerate(self.instances)]

    def after_op(self, op, output) -> bool:
        """An op succeeds when every requested check ran without raising."""
        return sorted(output) == sorted(self.checks)

    def after_pass(self, ch, first: bool) -> None:
        pass

    def check(self, ch) -> list[str]:
        self.lin = oracle.Lineality(_membership_oracle(ch))
        self.answers = [self.answer(ch, vs) for vs in self.instances]
        problems = []
        for i, (vs, ans) in enumerate(zip(self.instances, self.answers)):
            problems += self.problems(f"trial {i}", _rows(vs), ans)
        return problems


class PosHellyWorkload(FuzzWorkload):
    """POS_FUZZ prefix: the lineality Helly theorem, bound h(k,d)."""

    def answer(self, ch, vs) -> dict:
        hl = ch.helly
        ldim = ch.cone.lineality_space(vs).dim
        per_k = []
        for k in range(1, vs.ambient_dim + 1):
            entry = {"k": k, "hypothesis": hl.check_lineality_hypothesis(vs, k)}
            if ldim > k:
                entry["enum"] = list(hl.witness_lineality_enum(vs, k).subset_indices)
                entry["reay"] = list(hl.witness_lineality_reay(vs, k).subset_indices)
            per_k.append(entry)
        return {"lineality_dim": ldim, "per_k": per_k}

    def problems(self, where, rows, ans) -> list[str]:
        d = len(rows[0])
        ldim = self.lin.dim(rows)
        out = []
        if ans["lineality_dim"] != ldim:
            out.append(f"{where}: lineality dim {ans['lineality_dim']} != {ldim}")
        for e in ans["per_k"]:
            k = e["k"]
            at = f"{where} k={k}"
            if e["hypothesis"] != (ldim <= k):
                out.append(f"{at}: hypothesis differs from the conclusion")
            if ldim <= k:
                if "enum" in e or "reay" in e:
                    out.append(f"{at}: witness although the conclusion holds")
                continue
            if "enum" not in e or "reay" not in e:
                out.append(f"{at}: witness missing")
                continue
            for key in ("enum", "reay"):
                out += oracle.lineality_witness_problems(
                    self.lin, f"{at} {key}", rows, e[key], k, oracle.bound_h(k, d))
            if len(e["enum"]) > len(e["reay"]):
                out.append(f"{at}: enumerative witness larger than Reay witness")
        return out

    def corruptions(self):
        i, ans = next((i, a) for i, a in enumerate(self.answers)
                      if any("enum" in e for e in a["per_k"]))
        rows = _rows(self.instances[i])
        dropped = copy.deepcopy(ans)
        entry = next(e for e in dropped["per_k"] if "enum" in e)
        entry["enum"].pop()
        flipped = copy.deepcopy(ans)
        flipped["per_k"][0]["hypothesis"] = not flipped["per_k"][0]["hypothesis"]
        return [("witness index dropped", rows, dropped),
                ("Helly flag flipped", rows, flipped)]


class ConeHellyWorkload(FuzzWorkload):
    """CONE_FUZZ prefix with all five checks: the cone Helly theorem,
    bound m(k,d), with duality, extraction, interior point, corollary
    and Reay."""

    def answer(self, ch, vs) -> dict:
        cone, hl, pb_mod = ch.cone, ch.helly, ch.posbasis
        h = cone.HalfspaceSystem(vs)
        d = vs.ambient_dim
        ls = cone.lineality_space(vs)
        certs = []
        for w in ls.basis:
            for sign in (1, -1):
                point = tuple(sign * c for c in w)
                cert = cone.membership(point, vs)
                certs.append((point, list(cert.combination or [])))
        mcd = cone.max_cone_dim(h)
        above = cone.extract_cone(h, mcd + 1) if mcd < d else None
        per_k = []
        for k in range(1, d + 1):
            rep = hl.verify_cone_helly(h, k)
            cor = hl.corollary_check(h, k)
            per_k.append({
                "k": k, "hypothesis": rep.hypothesis, "conclusion": rep.conclusion,
                "m": rep.bounds.m, "h": rep.bounds.h,
                "witness": list(rep.witness.subset_indices) if rep.witness else None,
                "rank": cor.rank, "global_holds": cor.global_holds,
                "subsystems_hold": cor.subsystems_hold,
                "cor_witness": list(cor.witness.subset_indices) if cor.witness else None,
            })
        pb = pb_mod.extract_positive_basis(vs)
        part = pb_mod.reay_partition(pb)
        return {
            "lineality_basis": _rows(ls.basis), "certificates": certs,
            "max_cone_dim": mcd,
            "generators": _rows(cone.extract_cone(h, mcd)),
            "above_infeasible": None if above is None else (
                getattr(above, "max_dim", None) == mcd),
            "interior": tuple(cone.relative_interior_point(h)),
            "per_k": per_k,
            "basis_target_dim": pb.target.dim, "basis": _rows(pb.elements),
            "parts": [_rows(p) for p in part.parts],
        }

    def problems(self, where, rows, ans) -> list[str]:
        lin = self.lin
        d = len(rows[0])
        ldim = lin.dim(rows)
        mcd = d - ldim
        out = []
        basis = ans["lineality_basis"]
        if len(basis) != ldim or oracle.rank(basis) != ldim:
            out.append(f"{where}: lineality basis is not a basis of dimension {ldim}")
        for point, comb in ans["certificates"]:
            if not oracle.substitutes(comb, rows, point):
                out.append(f"{where}: lineality combination fails substitution")
        if ans["max_cone_dim"] != mcd:
            out.append(f"{where}: max cone dim {ans['max_cone_dim']} != {mcd}")
        gens = ans["generators"]
        if oracle.rank(gens) != mcd or not oracle.all_feasible(rows, gens):
            out.append(f"{where}: extracted generators not a feasible {mcd}-cone")
        if ans["above_infeasible"] is not (None if mcd == d else True):
            out.append(f"{where}: extraction above the maximum not infeasible")
        strict = set(range(len(rows))) - lin.implicit(rows)
        if not oracle.all_feasible(rows, [ans["interior"]], strict):
            out.append(f"{where}: interior point not strictly feasible")
        for e in ans["per_k"]:
            k = e["k"]
            at = f"{where} k={k}"
            conclusion = mcd >= k
            if (e["conclusion"], e["hypothesis"]) != (conclusion, conclusion):
                out.append(f"{at}: cone Helly hypothesis/conclusion wrong")
            if (e["m"], e["h"]) != (oracle.bound_m(k, d), oracle.bound_h(k, d)):
                out.append(f"{at}: bounds differ from the paper's formulas")
            if (e["rank"], e["global_holds"], e["subsystems_hold"]) != (
                    mcd, conclusion, conclusion):
                out.append(f"{at}: corollary report wrong")
            for key in ("witness", "cor_witness"):
                if conclusion != (e[key] is None):
                    out.append(f"{at}: {key} present iff the conclusion fails")
                elif e[key] is not None:
                    # no k-cone in a subfamily <=> its normals' lineality > d-k
                    out += oracle.lineality_witness_problems(
                        lin, f"{at} {key}", rows, e[key], d - k, oracle.bound_m(k, d))
        m = ans["basis_target_dim"]
        size = len(ans["basis"])
        if m != ldim or not (size == 0 if m == 0 else m + 1 <= size <= 2 * m):
            out.append(f"{where}: positive basis size {size} for dimension {m}")
        if sorted(ans["basis"]) != sorted(v for p in ans["parts"] for v in p) or \
                not all(v in rows for v in ans["basis"]):
            out.append(f"{where}: Reay parts do not cover the positive basis")
        out += oracle.positive_basis_problems(lin, f"{where} basis", ans["basis"], m)
        out += oracle.reay_problems(lin, f"{where} reay", ans["parts"])
        return out

    def corruptions(self):
        out = []
        i, ans = next((i, a) for i, a in enumerate(self.answers) if a["certificates"])
        rows = _rows(self.instances[i])
        bad = copy.deepcopy(ans)
        point, comb = bad["certificates"][0]
        comb[0] = (comb[0][0], comb[0][1] + 1)
        out.append(("combination coefficient changed", rows, bad))
        bad = copy.deepcopy(ans)
        bad["per_k"][0]["hypothesis"] = not bad["per_k"][0]["hypothesis"]
        out.append(("Helly flag flipped", rows, bad))
        i, ans = next((i, a) for i, a in enumerate(self.answers) if a["generators"])
        rows = _rows(self.instances[i])
        bad = copy.deepcopy(ans)
        bad["generators"][-1] = _outside(rows[0], bad["generators"][-1])
        out.append(("generator moved outside a halfspace", rows, bad))
        i, ans = next((i, a) for i, a in enumerate(self.answers)
                      if any(e["witness"] for e in a["per_k"]))
        rows = _rows(self.instances[i])
        bad = copy.deepcopy(ans)
        next(e for e in bad["per_k"] if e["witness"])["witness"].pop()
        out.append(("witness index dropped", rows, bad))
        return out


def _outside(normal, g) -> tuple:
    """g moved along the normal until normal.g > 0."""
    t = (abs(oracle.dot(normal, g)) + 1) / oracle.dot(normal, normal)
    return tuple(Fraction(x) + t * Fraction(a) for x, a in zip(g, normal))


# ---------------------------------------------------------------------------
# The CLI, called in-process


GENERATOR_COMMANDS = ("lineality", "membership", "posbasis", "helly-pos")
NORMAL_COMMANDS = ("maxcone", "extract-cone", "solution-rank", "polar-lineality",
                   "helly-cone", "corollary", "flat-helly")
# (d, n) of the random instances; entries in [-3, 3] from gens.gen_random.
RANDOM_SHAPES = ((2, 5), (3, 6), (4, 7), (5, 8))
RANDOM_SEED = 7001
# Positive bases for `reay`: blocks of simplex-like sets on disjoint
# coordinates, moved by a unit upper triangular integer matrix.
REAY_BLOCKS = ((3, 2), (2, 2, 2), (6,))


def call_cli(ch, argv: list[str], stdin: str = "") -> tuple[int, str]:
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = ch.cli.run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _instance_text(d: int, role: str, rows) -> str:
    return json.dumps({"d": d, "role": role,
                       "vectors": [[_json_num(c) for c in r] for r in rows]})


def _json_num(c):
    c = Fraction(c)
    return int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _unit(i: int, d: int) -> tuple:
    return tuple(Fraction(int(j == i)) for j in range(d))


def family(name: str, d: int, k: int = 0) -> list[tuple]:
    """The paper's extremal families, written out from their definitions."""
    if name == "simplex":
        return [_unit(i, d) for i in range(d)] + [tuple(Fraction(-1) for _ in range(d))]
    pairs = k if name == "axis-pairs" else d - k + 1
    return [tuple(s * c for c in _unit(i, d)) for i in range(pairs) for s in (1, -1)]


def _positive_basis(blocks, seed: int) -> list[tuple]:
    d = sum(s - 1 for s in blocks)
    rows, off = [], 0
    for s in blocks:
        block = [_unit(off + i, d) for i in range(s - 1)]
        rows += block + [tuple(-sum(col) for col in zip(*block))]
        off += s - 1
    rng = random.Random(seed)
    mat = [[int(i == j) if j <= i else rng.randint(-2, 2) for j in range(d)]
           for i in range(d)]
    moved = [tuple(sum(mat[j][i] * v[i] for i in range(d)) for j in range(d)) for v in rows]
    rng.shuffle(moved)
    return moved


def alterations(report: dict, normals) -> list[tuple[str, dict]]:
    """One copy of the report per result or bounds field, with that field
    made wrong in a way no correct report can match."""
    out = []
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
        elif isinstance(value, dict) and "subset_indices" in value:
            del holder[key]
        elif isinstance(value, dict):  # a subspace {"dim", "basis"}
            if value["dim"]:
                holder[key] = {"dim": value["dim"] - 1, "basis": value["basis"][:-1]}
            else:
                d = report["inputs"]["d"]
                holder[key] = {"dim": 1, "basis": [[int(j == 0) for j in range(d)]]}
        elif key == "element_indices":
            holder[key] = value[:-1] if value else [0]
        elif key == "parts":
            value[-1].pop()
        elif key == "combination":
            value[0][1] = _json_num(Fraction(value[0][1]) + 1)
        elif key == "separator":
            holder[key] = [_json_num(-Fraction(c)) for c in value]
        elif key == "generators":
            value[-1] = [_json_num(c) for c in _outside(normals[0], value[-1])]
        else:
            raise ValueError(f"no alteration for field {key!r}")
        out.append((f"{section}.{key}", bad))
    return out


class CliWorkload:
    """Every instance subcommand on fixed inputs, then --verify on each
    report and on each single-field alteration of it."""

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def setup(self, ch) -> None:
        self.gen_problems = []
        inputs = []  # (label, d, role, rows, commands with k)

        def add(label, role, rows, k):
            d = len(rows[0])
            commands = GENERATOR_COMMANDS if role == "generators" else NORMAL_COMMANDS
            inputs.append((label, d, role, rows, k, commands))

        for idx, (d, n) in enumerate(RANDOM_SHAPES):
            rows = _rows(ch.gens.gen_random(d, n, 3, RANDOM_SEED + idx))
            k = 1 + idx % d
            add(f"random{idx}", "generators", rows, k)
            add(f"random{idx}", "normals", rows, k)
        for d in (2, 3, 5):
            rows = self._gen(ch, ["--example", "simplex", "--d", str(d)],
                             family("simplex", d))
            add(f"simplex{d}", "generators", rows, 1)
            add(f"simplex{d}", "normals", rows, d)
        for k, d in ((1, 2), (2, 3), (3, 4)):
            rows = self._gen(ch, ["--example", "axis-pairs", "--k", str(k), "--d", str(d)],
                             family("axis-pairs", d, k))
            add(f"axis{k}_{d}", "generators", rows, max(1, k - 1))
        for d, k in ((3, 1), (4, 2), (5, 3)):
            rows = self._gen(ch, ["--example", "example2", "--d", str(d), "--k", str(k)],
                             family("example2", d, k))
            add(f"example2_{d}_{k}", "normals", rows, k)

        self.reay_inputs = [(f"reay_pb{i}", _positive_basis(b, RANDOM_SEED + i))
                            for i, b in enumerate(REAY_BLOCKS)]
        self.reay_inputs += [(f"reay_simplex{d}", family("simplex", d)) for d in (2, 3, 5)]
        self.reay_inputs += [(f"reay_axis{k}", family("axis-pairs", k, k)) for k in (1, 2, 3)]

        self.ops = []
        self.computes = []  # (label, command, argv, stdin, rows)
        for label, d, role, rows, k, commands in inputs:
            text = _instance_text(d, role, rows)
            for command in commands:
                argv = [command]
                if command == "membership":
                    point = [a + b for a, b in zip(rows[0], rows[-1])] if len(rows) % 2 \
                        else [-a for a in rows[0]]
                    if label.startswith("axis"):
                        point = list(_unit(d - 1, d))
                    argv.append("--point=" + ",".join(str(_json_num(c)) for c in point))
                if command in ("extract-cone", "helly-pos", "helly-cone", "corollary"):
                    argv += ["--k", str(k)]
                if command == "flat-helly":
                    argv += ["--k", str(k - 1)]
                self.computes.append((label, command, argv, text, rows))
        for label, rows in self.reay_inputs:
            self.computes.append((label, "reay", ["reay"],
                                  _instance_text(len(rows[0]), "generators", rows), rows))
        for i, (label, command, argv, text, rows) in enumerate(self.computes):
            self.ops.append(Op("compute", f"{label} {' '.join(argv)}",
                               lambda argv=argv, text=text: call_cli(ch, argv, text),
                               index=i))
        self.outputs = [None] * len(self.computes)
        self.verify_ops: list = []
        self.verdicts: dict = {}
        self.byte_problems: list = []

    def _report(self, i: int) -> dict | None:
        """The report of compute op i, or None if it printed none."""
        try:
            return json.loads(self.outputs[i])
        except (TypeError, ValueError):
            return None

    def _gen(self, ch, argv, expected) -> list[tuple]:
        code, text = call_cli(ch, ["gen"] + argv)
        rows = [tuple(Fraction(c) for c in r) for r in json.loads(text)["vectors"]]
        if code != 0 or rows != expected:
            self.gen_problems.append(f"gen {' '.join(argv)} differs from the family")
        return rows

    def after_op(self, op, output) -> bool:
        code, text = output
        if op.kind == "compute":
            if self.outputs[op.index] is None:
                self.outputs[op.index] = text
            elif self.outputs[op.index] != text:
                self.byte_problems.append(f"{op.label}: report bytes differ between passes")
            return code == 0
        accepted = code == 0 and json.loads(text)["result"]["verified"] is True
        if self.verdicts.setdefault(op.label, accepted) != accepted:
            self.byte_problems.append(f"{op.label}: verdict differs between passes")
        return accepted == op.expect

    def after_pass(self, ch, first: bool) -> None:
        """After the first pass, write each report and its alterations to
        files and add the --verify ops for them."""
        if not first:
            return
        self.workdir.mkdir(parents=True, exist_ok=True)
        verify_ops = []
        for i, (label, command, argv, text, rows) in enumerate(self.computes):
            report = self._report(i)
            if report is None:  # the compute op failed and was counted
                continue
            variants = [("genuine", report, True)]
            variants += [(name, bad, False) for name, bad in alterations(report, rows)]
            for j, (name, rep, expect) in enumerate(variants):
                path = self.workdir / f"report{i}_{j}.json"
                path.write_text(json.dumps(rep), encoding="utf-8")
                vargv = [command, "--verify", str(path)]
                verify_ops.append(Op("verify", f"{label} {command} verify {name}",
                                     lambda vargv=vargv: call_cli(ch, vargv), expect))
        self.verify_ops = verify_ops
        self.ops.extend(verify_ops)

    # -- correctness -------------------------------------------------------

    def check(self, ch) -> list[str]:
        self.lin = oracle.Lineality(_membership_oracle(ch))
        problems = self.gen_problems + self.byte_problems
        self.answers = []
        for i, (label, command, argv, text, rows) in enumerate(self.computes):
            report = self._report(i)
            if report is None:
                problems.append(f"{label} {command}: no report")
                continue
            self.answers.append((f"{label} {command}", rows, report))
            problems += self.problems(f"{label} {command}", rows, report)
        for op in self.verify_ops:
            if op.expect and not self.verdicts.get(op.label):
                problems.append(f"{op.label}: a genuine report did not verify")
        return problems

    def problems(self, where, rows, report) -> list[str]:
        try:
            return self._problems(where, rows, report)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return [f"{where}: malformed report ({type(exc).__name__}: {exc})"]

    def _problems(self, where, rows, rep) -> list[str]:
        lin = self.lin
        op = rep["operation"]
        res = rep["result"]
        inputs = rep["inputs"]
        d = inputs["d"]
        k = inputs.get("k")
        out = []
        if [tuple(Fraction(c) for c in r) for r in inputs["vectors"]] != rows:
            out.append(f"{where}: inputs not echoed")
        ldim = lin.dim(rows)
        mcd = d - ldim

        def expect(cond, what):
            if not cond:
                out.append(f"{where}: {what}")

        def subspace(sub, dim):
            basis = [tuple(Fraction(c) for c in v) for v in sub["basis"]]
            expect(sub["dim"] == dim == len(basis) == oracle.rank(basis),
                   f"subspace is not a basis of dimension {dim}")
            return basis

        def frac_rows(vs):
            return [tuple(Fraction(c) for c in v) for v in vs]

        if op == "lineality":
            basis = subspace(res["lineality"], ldim)
            rev = [rows[i] for i in lin.reversible(rows)]
            expect(oracle.rank(rev + basis) == ldim, "basis outside the lineality space")
        elif op == "membership":
            point = tuple(Fraction(c) for c in inputs["point"])
            if res["member"]:
                comb = [(i, Fraction(c)) for i, c in res["combination"]]
                expect(oracle.substitutes(comb, rows, point), "combination fails substitution")
            else:
                expect(oracle.separates(frac_rows([res["separator"]])[0], rows, point),
                       "separator fails substitution")
        elif op == "posbasis":
            subspace(res["target"], ldim)
            elements = [rows[i] for i in res["element_indices"]]
            out += oracle.positive_basis_problems(lin, where, elements, ldim)
        elif op == "reay":
            target = subspace(res["target"], ldim)
            expect(sorted(i for p in res["parts"] for i in p) == list(range(len(rows))),
                   "parts do not partition the input")
            expect(oracle.rank(target + rows) == ldim, "target is not the span")
            out += oracle.reay_problems(lin, where,
                                        [[rows[i] for i in p] for p in res["parts"]])
        elif op == "maxcone":
            expect((res["max_cone_dim"], res["lineality_dim"]) == (mcd, ldim),
                   "dimensions wrong")
        elif op == "solution-rank":
            expect(res["rank"] == mcd, "rank wrong")
        elif op == "polar-lineality":
            basis = subspace(res["lineality_of_polar"], d - oracle.rank(rows))
            expect(all(oracle.dot(a, w) == 0 for a in rows for w in basis),
                   "polar lineality basis not orthogonal to the normals")
        elif op == "extract-cone":
            if res["feasible"]:
                gens = frac_rows(res["generators"])
                expect(k <= mcd and oracle.rank(gens) == k, "generators do not span k")
                expect(oracle.all_feasible(rows, gens), "a generator violates an inequality")
            else:
                expect(k > mcd and (res["max_cone_dim"], res["lineality_dim"]) == (mcd, ldim),
                       "infeasibility report wrong")
        elif op == "helly-pos":
            conclusion = ldim <= k
            expect(res["hypothesis"] == res["conclusion"] == conclusion,
                   "hypothesis/conclusion wrong")
            expect((res["lineality_dim"], res["h"]) == (ldim, oracle.bound_h(k, d)),
                   "lineality dim or h wrong")
            for key in ("witness_enum", "witness_reay"):
                if conclusion:
                    expect(key not in res, f"{key} although the conclusion holds")
                elif key not in res:
                    out.append(f"{where}: {key} missing")
                else:
                    out += oracle.lineality_witness_problems(
                        lin, f"{where} {key}", rows, res[key]["subset_indices"], k,
                        oracle.bound_h(k, d))
        elif op in ("helly-cone", "corollary"):
            conclusion = mcd >= k
            b = rep["bounds"]
            expect((b["k"], b["d"], b["m"], b["h"]) ==
                   (k, d, oracle.bound_m(k, d), oracle.bound_h(k, d)), "bounds wrong")
            if op == "helly-cone":
                expect(res["hypothesis"] == res["conclusion"] == conclusion,
                       "hypothesis/conclusion wrong")
                expect((res["max_cone_dim"], res["lineality_dim"]) == (mcd, ldim),
                       "dimensions wrong")
            else:
                expect(res["rank"] == mcd and
                       res["global_holds"] == res["subsystems_hold"] == conclusion,
                       "corollary flags wrong")
            if conclusion:
                expect("witness" not in res, "witness although the conclusion holds")
            elif "witness" not in res:
                out.append(f"{where}: witness missing")
            else:
                out += oracle.lineality_witness_problems(
                    lin, f"{where} witness", rows, res["witness"]["subset_indices"],
                    d - k, oracle.bound_m(k, d))
        elif op == "flat-helly":
            r = oracle.rank(rows)
            conclusion = d - r >= d - k
            expect((res["polar_lineality_dim"], res["normal_rank"]) == (d - r, r),
                   "ranks wrong")
            expect(res["subspace_conclusion"] == res["all_small_subsets_dependent"]
                   == conclusion, "flat Helly flags wrong")
            if conclusion:
                expect("witness" not in res, "witness although all are dependent")
            elif "witness" not in res:
                out.append(f"{where}: witness missing")
            else:
                ids = res["witness"]["subset_indices"]
                out += oracle.witness_problems(where, ids, len(rows), k + 1)
                expect(len(ids) == k + 1 and oracle.rank([rows[i] for i in ids]) == k + 1,
                       "witness normals not independent")
        else:
            out.append(f"{where}: unknown operation {op!r}")
        return out

    def corruptions(self):
        def first(command, cond):
            return next((where, rows, copy.deepcopy(rep)) for where, rows, rep in self.answers
                        if rep["operation"] == command and cond(rep["result"]))

        out = []
        where, rows, rep = first("membership", lambda r: r["member"])
        rep["result"]["combination"][0][1] = _json_num(
            Fraction(rep["result"]["combination"][0][1]) + 1)
        out.append(("combination coefficient changed", rows, rep))
        where, rows, rep = first("helly-pos", lambda r: "witness_enum" in r)
        rep["result"]["witness_enum"]["subset_indices"].pop()
        out.append(("witness index dropped", rows, rep))
        where, rows, rep = first("helly-cone", lambda r: True)
        rep["result"]["hypothesis"] = not rep["result"]["hypothesis"]
        out.append(("Helly flag flipped", rows, rep))
        where, rows, rep = first("extract-cone", lambda r: r["feasible"])
        gens = rep["result"]["generators"]
        gens[-1] = [_json_num(c) for c in _outside(rows[0], gens[-1])]
        out.append(("generator moved outside a halfspace", rows, rep))
        return out


WORKLOADS = {
    "pos_helly": lambda workdir: PosHellyWorkload(
        dict(d_max=5, n_max=12, bound=3, seed=20260810, checks=("pos_helly",)), 50),
    "cone_helly": lambda workdir: ConeHellyWorkload(
        dict(d_max=4, n_max=10, bound=3, seed=31337), 80),
    "cli": CliWorkload,
}
