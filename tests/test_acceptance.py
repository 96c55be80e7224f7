"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its elapsed time.  Run with `pytest tests/test_acceptance.py -s`
to see the lines as they happen."""

import time
from fractions import Fraction
from itertools import combinations

import pytest

from conehelly.cone import lineality_space
from conehelly.fuzzing import run_fuzz
from conehelly.gens import (
    gen_axis_pairs,
    gen_random,
    verify_tightness_example1,
    verify_tightness_example2,
)
from conehelly.helly import bound_h, bound_m
from conehelly.ratlin import VectorSet

from conftest import CONE_FUZZ, POS_FUZZ
from oracles import oracle_reversible

F = Fraction



def _record(num: int, description: str, ok: bool, elapsed: float,
            budget: float) -> None:
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status} ({elapsed:6.2f}s / budget {budget:g}s): "
          f"{description}")
    assert ok, f"criterion {num} failed: {description}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s"


@pytest.fixture(scope="module")
def pos_fuzz_run():
    t0 = time.perf_counter()
    summary = run_fuzz(POS_FUZZ)
    return summary, time.perf_counter() - t0


@pytest.fixture(scope="module")
def cone_fuzz_run():
    t0 = time.perf_counter()
    summary = run_fuzz(CONE_FUZZ)
    return summary, time.perf_counter() - t0


def test_criterion_01_example1_tightness():
    t0 = time.perf_counter()
    ok = all(verify_tightness_example1(d) for d in range(1, 7))
    _record(1, "simplex-like system: origin only, every d-subfamily full",
            ok, time.perf_counter() - t0, 10.0)


def test_criterion_02_example2_tightness():
    t0 = time.perf_counter()
    ok = all(verify_tightness_example2(d, k)
             for d in range(1, 7) for k in range(1, d + 1))
    _record(2, "axis-pair system: k-1 max cone dim, any removal frees k",
            ok, time.perf_counter() - t0, 10.0)


def test_criterion_03_axis_pair_lineality():
    t0 = time.perf_counter()
    ok = True
    for d in range(1, 7):
        for k in range(1, d + 1):
            a = gen_axis_pairs(k, d)
            ok = ok and lineality_space(a).dim == k
            for j in range(len(a)):
                sub = a.subset([i for i in range(len(a)) if i != j])
                ok = ok and lineality_space(sub).dim < k
    _record(3, "axis pairs: lineality k, every removal drops it",
            ok, time.perf_counter() - t0, 5.0)


def test_criterion_04_halfline_bound():
    t0 = time.perf_counter()
    ok = all(bound_m(1, d) == 2 * d for d in range(1, 21))
    _record(4, "halfline bound m(1,d) = 2d", ok, time.perf_counter() - t0, 1.0)


def test_criterion_05_bound_duality_and_claim():
    t0 = time.perf_counter()
    ok = all(bound_m(k, d) == bound_h(d - k, d)
             for d in range(2, 21) for k in range(1, d))
    for d in range(1, 21):
        for k in range(1, d + 1):
            for j in range(2, k + 2):  # j - 1 <= k
                ok = ok and F(j * k, j - 1) + j <= bound_h(k, d)
    _record(5, "m(k,d) = h(d-k,d) and the prefix-size inequality",
            ok, time.perf_counter() - t0, 1.0)


def test_criterion_06_lineality_helly_fuzz(pos_fuzz_run):
    summary, elapsed = pos_fuzz_run
    for f in summary.failures:
        print("  failure:", f)
    ok = summary.trials_run == 1000 and not summary.failures
    _record(6, "1000 instances (d<=5, n<=12): hypothesis iff conclusion, "
               "both witnesses bounded and valid",
            ok, elapsed, 300.0)


def test_criterion_07_cone_helly_fuzz(cone_fuzz_run):
    summary, elapsed = cone_fuzz_run
    for f in summary.failures:
        print("  failure:", f)
    ok = (summary.trials_run == 500
          and summary.checks_passed["cone_helly"] == 500
          and not [f for f in summary.failures if f.check == "cone_helly"])
    _record(7, "500 normal systems (d<=4, n<=10): cone Helly holds, "
               "witnesses within m(k,d)",
            ok, elapsed, 300.0)


def test_criterion_08_duality_and_extraction(cone_fuzz_run):
    summary, elapsed = cone_fuzz_run
    # the cone_helly check certifies the reversible normals from both
    # sides (a checked positive zero-combination on them, and the
    # complementary point strict off them; the lineality check certifies
    # the reversible generators with the same cone.complementary_point)
    # and verifies extract_cone output rank and inequalities at
    # max_cone_dim on every instance
    ok = (summary.checks_passed["cone_helly"] == summary.trials_run
          and not [f for f in summary.failures if f.check == "cone_helly"])
    _record(8, "two-sided reversible-set certificate and certified cone "
               "extraction on every fuzz instance", ok, 0.0, 1.0)


def test_criterion_09_corollary_equivalence(cone_fuzz_run):
    summary, _ = cone_fuzz_run
    ok = (summary.checks_passed["corollary"] == summary.trials_run
          and not [f for f in summary.failures if f.check == "corollary"])
    _record(9, "solution-rank biconditional on every fuzz instance",
            ok, 0.0, 1.0)


def test_criterion_10_reay_machinery(cone_fuzz_run):
    summary, _ = cone_fuzz_run
    ok = (summary.checks_passed["posbasis"] == summary.trials_run
          and not [f for f in summary.failures if f.check == "posbasis"])
    _record(10, f"every extracted positive basis partitions and verifies "
                f"(slowest search {summary.reay_max_seconds * 1000:.1f} ms)",
            ok and summary.reay_max_seconds < 1.0, 0.0, 1.0)


def test_criterion_11_oracle_agreement():
    t0 = time.perf_counter()
    instances = []
    # exhaustive slice, d = 1: every subset of the nonzero one-dim vectors
    ones = [(v,) for v in (-2, -1, 1, 2)]
    for size in range(1, 4):
        for combo in combinations(ones, size):
            instances.append(VectorSet.from_rows(list(combo), 1))
    # exhaustive slice, d = 2: pairs and triples over the +-1 grid
    grid2 = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1) if (x, y) != (0, 0)]
    for size in (2, 3):
        for combo in combinations(grid2, size):
            instances.append(VectorSet.from_rows(list(combo), 2))
    # seeded random slice, d <= 3, entries in [-2, 2]
    for i in range(120):
        d = 1 + i % 3
        n = 1 + (i * 7) % 5
        instances.append(gen_random(d, n, 2, seed=1000 + i))
    ok = True
    from conehelly.cone import reversible_indices

    for vs in instances:
        if tuple(reversible_indices(vs)) != oracle_reversible(vs):
            ok = False
            print("  disagreement on", vs)
    _record(11, f"simplex route matches the brute-force reversibility "
                f"oracle on {len(instances)} instances",
            ok, time.perf_counter() - t0, 120.0)
