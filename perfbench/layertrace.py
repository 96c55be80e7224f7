"""Per-layer tracing, done from outside the program.

The tracer swaps a timing wrapper in for public functions of the
conehelly modules -- every module-level name and dispatch-table entry
that refers to the function -- and swaps the originals back afterwards.
Nothing under ``src/`` is edited or asked to cooperate, so untraced runs
execute exactly the code users run.

Each wrapped call is a span.  A span's self time is its duration minus
the time covered by the spans it caused, and a layer's self time is the
sum over its spans; together with the time of an op spent outside any
span they add up to the op's traced wall time.  Busy time of a name
counts only the outermost of nested spans of that name.  The wrapper's
own bookkeeping falls outside its span and so lands in the caller's self
time; the benchmark reports the total as tracing overhead.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("ratlin", "lp", "cone", "posbasis", "helly", "fuzzing", "cli")


def _count_infeasible(tracer, result, hit):
    if getattr(result, "status", None) == "infeasible":
        tracer.counts["lp.solve.infeasible"] += 1


def _count_circuits(tracer, result, hit):
    if not hit:
        tracer.counts["posbasis.circuits.found"] += len(result)


# (module, attribute, layer, span name, result hook, only in module).
# A span wraps every reference to the function unless "only" names the
# one module whose reference it replaces: helly's calls into posbasis'
# bitmask filter and exact rank are what its witness search scans and
# ranks.  Missing attributes are skipped, so the trace keeps working
# when a later version removes a function; its figures then read 0.
SPANS = [
    ("helly", "covered_union", "posbasis", "helly.witness.candidates", None, "helly"),
    ("helly", "subset_rank", "posbasis", "helly.witness.ranked", None, "helly"),
    ("ratlin", "rref_rows", "ratlin", "ratlin.rref", None, None),
    ("ratlin", "rank_of_rows", "ratlin", "ratlin.rank", None, None),
    ("ratlin", "span_basis", "ratlin", "ratlin.span", None, None),
    ("ratlin", "kernel_basis", "ratlin", "ratlin.kernel", None, None),
    ("ratlin", "orth_complement", "ratlin", "ratlin.complement", None, None),
    ("ratlin", "project_onto_complement", "ratlin", "ratlin.project", None, None),
    ("lp", "solve_standard_form", "lp", "lp.solve", _count_infeasible, None),
    ("lp", "nonneg_combination", "lp", "lp.nonneg", None, None),
    ("cone", "membership", "cone", "cone.membership", None, None),
    ("cone", "reversible_indices", "cone", "cone.reversible", None, None),
    ("cone", "lineality_space", "cone", "cone.lineality", None, None),
    ("cone", "project_out_lineality", "cone", "cone.project", None, None),
    ("cone", "max_cone_dim", "cone", "cone.max_dim", None, None),
    ("cone", "implicit_normal_indices", "cone", "cone.implicit", None, None),
    ("cone", "relative_interior_point", "cone", "cone.interior", None, None),
    ("cone", "extract_cone", "cone", "cone.extract", None, None),
    ("cone", "verify_cone_generators", "cone", "cone.verify", None, None),
    ("cone", "solution_space_rank", "cone", "cone.solution_rank", None, None),
    ("cone", "lineality_of_polar", "cone", "cone.polar", None, None),
    ("posbasis", "positive_circuits", "posbasis", "posbasis.circuits", _count_circuits, None),
    ("posbasis", "is_positive_basis", "posbasis", "posbasis.certify", None, None),
    ("posbasis", "extract_positive_basis", "posbasis", "posbasis.extract", None, None),
    ("posbasis", "extract_positive_basis_indices", "posbasis", "posbasis.extract", None, None),
    ("posbasis", "reay_partition", "posbasis", "posbasis.reay", None, None),
    ("posbasis", "verify_reay", "posbasis", "posbasis.verify_reay", None, None),
    ("helly", "check_lineality_hypothesis", "helly", "helly.hypothesis", None, None),
    ("helly", "witness_lineality_enum", "helly", "helly.witness_enum", None, None),
    ("helly", "witness_lineality_reay", "helly", "helly.witness_reay", None, None),
    ("helly", "verify_cone_helly", "helly", "helly.cone", None, None),
    ("helly", "corollary_check", "helly", "helly.corollary", None, None),
    ("helly", "check_flat_helly", "helly", "helly.flat", None, None),
    ("fuzzing", "run_trial_checks", "fuzzing", "fuzzing.trial", None, None),
    ("fuzzing", "check_lineality", "fuzzing", "fuzzing.lineality", None, None),
    ("fuzzing", "check_pos_helly", "fuzzing", "fuzzing.pos_helly", None, None),
    ("fuzzing", "check_posbasis", "fuzzing", "fuzzing.posbasis", None, None),
    ("fuzzing", "check_cone_helly", "fuzzing", "fuzzing.cone_helly", None, None),
    ("fuzzing", "check_corollary", "fuzzing", "fuzzing.corollary", None, None),
    ("cli", "run", "cli", "cli.run", None, None),
    ("cli", "load_instance", "cli", "cli.parse", None, None),
    ("cli", "load_report", "cli", "cli.parse", None, None),
    ("cli", "emit", "cli", "cli.emit", None, None),
]

# Per-layer metrics: name -> (unit, better, how it is read off a pass).
METRICS = {
    "ratlin.rref.calls": ("count", "lower", ("calls", "ratlin.rref")),
    "ratlin.rref.busy_s": ("s", "lower", ("busy", "ratlin.rref")),
    "ratlin.kernel.calls": ("count", "lower", ("calls", "ratlin.kernel")),
    "ratlin.self_s": ("s", "lower", ("self", "ratlin")),
    "lp.solve.calls": ("count", "lower", ("calls", "lp.solve")),
    "lp.solve.infeasible": ("count", "lower", ("count", "lp.solve.infeasible")),
    "lp.solve.busy_s": ("s", "lower", ("busy", "lp.solve")),
    "lp.self_s": ("s", "lower", ("self", "lp")),
    "cone.membership.calls": ("count", "lower", ("calls", "cone.membership")),
    "cone.membership.busy_s": ("s", "lower", ("busy", "cone.membership")),
    "cone.reversible.calls": ("count", "lower", ("calls", "cone.reversible")),
    "cone.reversible.hit_ratio": ("ratio", "higher", ("hit_ratio", "cone.reversible")),
    "cone.reversible.busy_s": ("s", "lower", ("busy", "cone.reversible")),
    "cone.interior.busy_s": ("s", "lower", ("busy", "cone.interior")),
    "cone.extract.busy_s": ("s", "lower", ("busy", "cone.extract")),
    "cone.self_s": ("s", "lower", ("self", "cone")),
    "posbasis.circuits.calls": ("count", "lower", ("calls", "posbasis.circuits")),
    "posbasis.circuits.hit_ratio": ("ratio", "higher", ("hit_ratio", "posbasis.circuits")),
    "posbasis.circuits.found": ("count", "lower", ("count", "posbasis.circuits.found")),
    "posbasis.circuits.busy_s": ("s", "lower", ("busy", "posbasis.circuits")),
    "posbasis.certify.calls": ("count", "lower", ("calls", "posbasis.certify")),
    "posbasis.certify.busy_s": ("s", "lower", ("busy", "posbasis.certify")),
    "posbasis.extract.busy_s": ("s", "lower", ("busy", "posbasis.extract")),
    "posbasis.reay.calls": ("count", "lower", ("calls", "posbasis.reay")),
    "posbasis.reay.busy_s": ("s", "lower", ("busy", "posbasis.reay")),
    "posbasis.self_s": ("s", "lower", ("self", "posbasis")),
    "helly.witness.candidates": ("count", "lower", ("calls", "helly.witness.candidates")),
    "helly.witness.ranked": ("count", "lower", ("calls", "helly.witness.ranked")),
    "helly.witness.rank_ratio": ("ratio", "higher",
                                 ("ratio", "helly.witness.ranked", "helly.witness.candidates")),
    "helly.hypothesis.busy_s": ("s", "lower", ("busy", "helly.hypothesis")),
    "helly.witness_enum.busy_s": ("s", "lower", ("busy", "helly.witness_enum")),
    "helly.witness_reay.busy_s": ("s", "lower", ("busy", "helly.witness_reay")),
    "helly.cone.busy_s": ("s", "lower", ("busy", "helly.cone")),
    "helly.corollary.busy_s": ("s", "lower", ("busy", "helly.corollary")),
    "helly.self_s": ("s", "lower", ("self", "helly")),
    "fuzzing.lineality.busy_s": ("s", "lower", ("busy", "fuzzing.lineality")),
    "fuzzing.pos_helly.busy_s": ("s", "lower", ("busy", "fuzzing.pos_helly")),
    "fuzzing.posbasis.busy_s": ("s", "lower", ("busy", "fuzzing.posbasis")),
    "fuzzing.cone_helly.busy_s": ("s", "lower", ("busy", "fuzzing.cone_helly")),
    "fuzzing.corollary.busy_s": ("s", "lower", ("busy", "fuzzing.corollary")),
    "fuzzing.self_s": ("s", "lower", ("self", "fuzzing")),
    "cli.parse.busy_s": ("s", "lower", ("busy", "cli.parse")),
    "cli.emit.busy_s": ("s", "lower", ("busy", "cli.emit")),
    "cli.verify.busy_s": ("s", "lower", ("busy", "cli.verify")),
    "cli.self_s": ("s", "lower", ("self", "cli")),
}


class Tracer:
    """Collects spans for one pass at a time; see the module docstring."""

    def __init__(self):
        self._undo: list = []
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.top_s = 0.0
        self._stack: list = []
        self._open: Counter = Counter()

    def _wrap(self, fn, layer: str, name: str, hook):
        cached = hasattr(fn, "cache_info")

        def span(*args, **kwargs):
            stack = self._stack
            outermost = not self._open[name]
            self._open[name] += 1
            child = [0.0]
            stack.append(child)
            hits = fn.cache_info().hits if cached else 0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self._open[name] -= 1
                self.self_s[layer] += dt - child[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    self.top_s += dt
                if outermost:
                    self.busy[name] += dt
                self.calls[name] += 1
            hit = cached and fn.cache_info().hits > hits
            if hit:
                self.counts[name + ".hits"] += 1
            if hook is not None:
                hook(self, result, hit)
            return result

        return span

    def install(self, modules: dict) -> None:
        """Start a pass: reset the figures and wrap every function in SPANS
        and every ``_verify_*`` checker of the CLI (as ``cli.verify``)
        inside the given conehelly modules."""
        self.reset()
        specs = list(SPANS)
        specs += [("cli", attr, "cli", "cli.verify", None, None)
                  for attr in sorted(vars(modules["cli"])) if attr.startswith("_verify_")]
        for mod_name, attr, layer, name, hook, only in specs:
            original = getattr(modules[mod_name], attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, layer, name, hook)
            for module in ([modules[only]] if only else modules.values()):
                space = vars(module)
                for key, value in list(space.items()):
                    if value is original:
                        self._undo.append((space, key, original))
                        setattr(module, key, wrapper)
                    elif isinstance(value, dict):
                        for k2, v2 in list(value.items()):
                            if v2 is original:
                                self._undo.append((value, k2, original))
                                value[k2] = wrapper

    def uninstall(self) -> None:
        for container, key, original in reversed(self._undo):
            container[key] = original
        self._undo.clear()

    def snapshot(self) -> dict:
        """The figures of the pass since the last reset."""
        return {
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "busy": dict(self.busy),
            "self": {layer: self.self_s.get(layer, 0.0) for layer in LAYERS},
            "top_s": self.top_s,
        }


def read_metric(snap: dict, how: tuple) -> float:
    kind = how[0]
    if kind == "calls":
        return snap["calls"].get(how[1], 0)
    if kind == "count":
        return snap["counts"].get(how[1], 0)
    if kind == "busy":
        return snap["busy"].get(how[1], 0.0)
    if kind == "self":
        return snap["self"][how[1]]
    if kind == "hit_ratio":
        calls = snap["calls"].get(how[1], 0)
        return snap["counts"].get(how[1] + ".hits", 0) / calls if calls else 0.0
    num, den = snap["calls"].get(how[1], 0), snap["calls"].get(how[2], 0)
    return num / den if den else 0.0
