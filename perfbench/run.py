"""conehelly benchmark: three workloads, timed in one process.

    python3 perfbench/run.py --workload pos_helly --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A copy with
per-op detail goes to ``perfbench-out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pkgutil
import random
import resource
import shutil
import statistics
import os
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"

import layertrace  # noqa: E402  (perfbench/ is sys.path[0])
import workloads  # noqa: E402

SETUP_REPEATS = 9
E2E_UNITS = {"throughput_per_s": "1/s", "verify_per_s": "1/s",
             "latency_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def load_program() -> SimpleNamespace:
    """Import conehelly afresh from the checkout's src/ (dropping any copy
    imported before), with every submodule."""
    for name in [m for m in sys.modules if m == "conehelly" or m.startswith("conehelly.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("conehelly")
    if Path(package.__file__).resolve().parent != SRC / "conehelly":
        raise RuntimeError(f"conehelly imported from {package.__file__}, not from {SRC}")
    modules = {"conehelly": package}
    for info in pkgutil.iter_modules(package.__path__):
        modules[info.name] = importlib.import_module(f"conehelly.{info.name}")
    # Found before tracing wraps them, so that the wrappers cannot hide them.
    caches = {id(v): v for m in modules.values() for v in vars(m).values()
              if callable(getattr(v, "cache_clear", None))}
    return SimpleNamespace(modules=modules, caches=list(caches.values()), **modules)


def run_ops(work, ch, indices, times, failures) -> None:
    for idx in indices:
        op = work.ops[idx]
        workloads.clear_caches(ch)
        t0 = perf_counter()
        try:
            output = op.call()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            output = exc
        times.setdefault(idx, []).append(perf_counter() - t0)
        if isinstance(output, Exception) or not work.after_op(op, output):
            failures.append(f"{op.label}: {output!r}"[:300]
                            if isinstance(output, Exception) else op.label)


def run_pass(work, ch, rng, times, failures, first) -> float:
    """Every op once, in a seeded order.  Ops added by ``after_pass`` (the
    CLI's --verify ops, after its first pass) run at the end of the pass."""
    t0 = perf_counter()
    before = len(work.ops)
    order = list(range(before))
    rng.shuffle(order)
    run_ops(work, ch, order, times, failures)
    work.after_pass(ch, first)
    added = list(range(before, len(work.ops)))
    rng.shuffle(added)
    run_ops(work, ch, added, times, failures)
    return perf_counter() - t0


def end_to_end(work, means, setups) -> dict:
    by_kind: dict = {}
    for idx, op in enumerate(work.ops):
        by_kind.setdefault(op.kind, []).append(means[idx])
    main = by_kind.get("trial") or by_kind["compute"]
    if "verify" in by_kind:
        verify_per_s = len(by_kind["verify"]) / sum(by_kind["verify"])
    else:  # each fuzz check verifies theorem-backed properties of one instance
        verify_per_s = len(main) * len(work.checks) / sum(main)
    values = {
        "throughput_per_s": len(main) / sum(main),
        "verify_per_s": verify_per_s,
        "latency_p50_ms": statistics.median(main) * 1000,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()}


def per_layer(snaps, walls, means_plain, means_traced) -> tuple[dict, list, bool]:
    """Per-layer metrics from the traced passes, and the trace checks."""
    first = snaps[0]
    ok = all((s["calls"], s["counts"]) == (first["calls"], first["counts"]) for s in snaps)
    lines = [f"trace check: {len(first['calls']) + len(first['counts'])} count names repeat "
             f"exactly in all {len(snaps)} traced passes: {'yes' if ok else 'NO'}"]
    for n, (snap, wall) in enumerate(zip(snaps, walls), start=1):
        self_total = sum(snap["self"].values())
        remainder = wall - snap["top_s"]
        diff = abs(self_total + remainder - wall)
        good = diff <= 1e-9 * max(wall, 1.0) + 1e-9 and remainder >= 0
        ok &= good
        lines.append(f"trace check: pass {n}: layer self times {self_total:.6f} s + untraced "
                     f"remainder {remainder:.6f} s = traced wall {wall:.6f} s "
                     f"(off by {diff:.2e} s): {'yes' if good else 'NO'}")
    metrics = {}
    for name, (unit, _better, how) in layertrace.METRICS.items():
        values = [layertrace.read_metric(s, how) for s in snaps]
        value = values[0] if unit in ("count", "ratio") else statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    overhead = 100 * (sum(means_traced) / sum(means_plain) - 1)
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    metrics["trace.untraced_s"] = {
        "value": statistics.median(w - s["top_s"] for s, w in zip(snaps, walls)), "unit": "s"}
    lines.append(f"trace: tracing overhead {overhead:.1f}% of untraced op time")
    return metrics, lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = OUT / f"work-{os.getpid()}"
    work = workloads.WORKLOADS[args.workload](workdir)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, work) -> int:
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        ch = load_program()
        work.setup(ch)
        setups.append(perf_counter() - t0)

    rng = random.Random(args.seed)
    plain: dict = {}
    traced: dict = {}
    failures: list = []
    snaps, walls = [], []
    tracer = layertrace.Tracer() if args.trace else None
    passes = 0
    start = perf_counter()
    last = 0.0
    while passes == 0 or perf_counter() - start + last <= args.seconds or \
            (tracer and len(snaps) < 2):
        last = run_pass(work, ch, rng, plain, failures, passes == 0)
        passes += 1
        if tracer:
            op_times: dict = {}
            tracer.install(ch.modules)
            try:
                last += run_pass(work, ch, rng, op_times, failures, False)
            finally:
                tracer.uninstall()
            snaps.append(tracer.snapshot())
            walls.append(sum(t for ts in op_times.values() for t in ts))
            for idx, ts in op_times.items():
                traced.setdefault(idx, []).extend(ts)
            passes += 1
    attempted = passes * len(work.ops)
    means = {idx: statistics.fmean(ts) for idx, ts in plain.items()}
    metrics = end_to_end(work, means, setups)

    try:
        problems = work.check(ch)
        detected = [(name, bool(work.problems(name, rows, bad)))
                    for name, rows, bad in work.corruptions()]
    except Exception:  # a check that cannot finish fails the run, with its cause
        problems, detected = [traceback.format_exc()], []
    correct = not problems and all(found for _, found in detected)
    for name, found in detected:
        print(f"checker self-test: {name}: {'reported' if found else 'NOT REPORTED'}")
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    if args.trace:
        metrics, lines, trace_ok = per_layer(
            snaps, walls, [means[i] for i in sorted(traced)],
            [statistics.fmean(traced[i]) for i in sorted(traced)])
        correct &= trace_ok
        print("\n".join(lines))

    result = {"correct": correct, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, passes=passes,
                  problems=problems, failed_ops=sorted(set(failures)),
                  op_means_s={work.ops[i].label: m for i, m in sorted(means.items())},
                  op_times_s={work.ops[i].label: ts for i, ts in sorted(plain.items())})
    suffix = "-trace" if args.trace else ""
    (OUT / f"{args.workload}-seed{args.seed}{suffix}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8")
    print(f"passes {passes}, ops per pass {len(work.ops)}, failed ops per pass "
          f"{len(failures) // passes}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
