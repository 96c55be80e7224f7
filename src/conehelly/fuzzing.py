"""Seeded fuzz driver: random instances run against every Helly property.

Each trial draws one integer vector set and checks, with exact
arithmetic, every theorem-backed invariant the library promises.  A
failure here is a bug by definition (the theorems are proved), so the
driver records the offending instance verbatim for replay.

Trial derivation is deterministic and shardable: the per-trial seed is
the i-th output of SplitMix64(seed), and everything inside a trial
depends only on that seed, so workers keyed by trial index would merge
into the same summary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .cone import (
    HalfspaceSystem,
    complementary_point,
    extract_cone,
    lineality_dim,
    lineality_space,
    max_cone_dim,
    reversible_indices,
    verify_cone_generators,
)
from .errors import CapacityError, TheoremContradiction
from .gens import SplitMix64, gen_random
from .helly import (
    bound_h,
    check_lineality_hypothesis,
    corollary_check,
    verify_cone_helly,
    witness_lineality_enum,
    witness_lineality_reay,
)
from .posbasis import extract_positive_basis, reay_parts, verify_reay
from .ratlin import VectorSet, rank_of_rows

__all__ = [
    "ALL_CHECKS",
    "FuzzConfig",
    "FuzzFailure",
    "FuzzSummary",
    "trial_instance",
    "run_trial_checks",
    "run_fuzz",
]

ALL_CHECKS = ("lineality", "pos_helly", "posbasis", "cone_helly", "corollary")


@dataclass(frozen=True)
class FuzzConfig:
    d_max: int
    n_max: int
    bound: int
    trials: int
    seed: int
    checks: tuple[str, ...] = ALL_CHECKS

    def __post_init__(self):
        if min(self.d_max, self.n_max, self.bound) < 1 or self.trials < 0:
            raise ValueError("d_max, n_max, bound must be positive; trials >= 0")
        unknown = set(self.checks) - set(ALL_CHECKS)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        if len(set(self.checks)) < len(self.checks):
            raise ValueError(f"repeated checks: {list(self.checks)}")


@dataclass(frozen=True)
class FuzzFailure:
    trial: int
    trial_seed: int
    check: str
    message: str
    instance: VectorSet


@dataclass
class FuzzSummary:
    config: FuzzConfig
    trials_run: int = 0
    checks_passed: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    reay_max_seconds: float = 0.0
    # Wall seconds spent in each check, summed over the trials.
    check_seconds: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


def trial_instance(config: FuzzConfig, index: int) -> tuple[int, VectorSet]:
    """(trial seed, instance) for one trial index, in O(1): the trial seed
    is output ``index`` of SplitMix64(config.seed)."""
    trial_seed = SplitMix64(config.seed).skip(index).next_u64()
    rng = SplitMix64(trial_seed)
    d = rng.next_in_range(1, config.d_max)
    n = rng.next_in_range(1, config.n_max)
    vs = gen_random(d, n, config.bound, rng.next_u64())
    return trial_seed, vs


class CheckFailed(AssertionError):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def check_lineality(vs: VectorSet) -> None:
    """Certify the lineality space.  complementary_point checks that the
    lineality space is span R, for R the reversible generators; the
    basis then has R's integer rank as its dimension and spans R's rows,
    so it spans that subspace."""
    ls = lineality_space(vs)
    complementary_point(vs)
    rows = vs.int_rows
    _require(lineality_dim(vs) == ls.dim, "lineality rank disagrees with basis")
    _require(rank_of_rows([*ls.int_rows, *(rows[i] for i in reversible_indices(vs))],
                          vs.ambient_dim) == ls.dim,
             "basis does not span the reversible generators")


def check_pos_helly(vs: VectorSet) -> None:
    """Lineality Helly statement for every k: hypothesis iff conclusion,
    and both witness extractors deliver bounded, valid witnesses whenever
    the conclusion fails."""
    d = vs.ambient_dim
    ldim = lineality_dim(vs)
    for k in range(1, d + 1):
        mismatch = f"hypothesis/conclusion mismatch at k={k}"
        if ldim <= k:
            _require(check_lineality_hypothesis(vs, k), mismatch)
            continue
        # The conclusion fails, so the hypothesis must fail as well: the
        # enumerative witness search is the hypothesis search, and it
        # raises where it finds no witness within h(k,d).
        try:
            enum = witness_lineality_enum(vs, k)
        except TheoremContradiction as exc:
            raise CheckFailed(mismatch) from exc
        h = bound_h(k, d)
        reay = witness_lineality_reay(vs, k)
        for name, w in (("enum", enum), ("reay", reay)):
            _require(len(w.subset_indices) <= h,
                     f"{name} witness exceeds h(k,d) at k={k}")
            _require(w.holds(vs, k),
                     f"{name} witness does not violate the bound at k={k}")
        _require(len(enum.subset_indices) <= len(reay.subset_indices),
                 f"enumerative witness larger than Reay witness at k={k}")


def check_posbasis(vs: VectorSet) -> float:
    """Positive-basis extraction and Reay partition; returns the seconds
    spent in the partition search."""
    pb = extract_positive_basis(vs)  # construction re-certifies
    m = pb.target.dim
    if m == 0:
        _require(len(pb) == 0, "nonempty basis of the zero subspace")
    else:
        _require(m + 1 <= len(pb) <= 2 * m, "positive basis size out of range")
    t0 = time.perf_counter()
    parts = reay_parts(pb)
    dt = time.perf_counter() - t0
    _require(verify_reay(pb.elements, parts), "Reay partition failed verification")
    return dt


def check_cone_helly(vs: VectorSet) -> None:
    """Halfspace-side properties: a two-sided certificate of the reversible
    normals, certified cone extraction at the maximal dimension, and the
    cone Helly report for every k.

    max_cone_dim is d minus the rank of the reversible normals R, and
    complementary_point certifies that the lineality space of the normals
    is span R, so mcd is the true maximum; the generators extracted at
    mcd, verified below, show it attained."""
    h = HalfspaceSystem(vs)
    d = h.ambient_dim
    mcd = max_cone_dim(h)
    complementary_point(vs)
    gens = extract_cone(h, mcd)
    _require(isinstance(gens, VectorSet), "extraction failed at feasible k")
    _require(len(gens) == mcd and verify_cone_generators(h, gens, mcd), "bad extracted cone")
    for k in range(1, d + 1):
        rep = verify_cone_helly(h, k)
        _require(rep.conclusion == (mcd >= k), "conclusion flag wrong")
        _require(rep.hypothesis == rep.conclusion,
                 f"cone Helly hypothesis/conclusion mismatch at k={k}")
        if rep.witness is not None:
            _require(len(rep.witness.subset_indices) <= rep.bounds.m,
                     "cone witness exceeds m(k,d)")
            _require(rep.witness.holds(h, k),
                     "cone witness subfamily still contains a k-cone")


def check_corollary(vs: VectorSet) -> None:
    """Independent-solution biconditional for every k."""
    h = HalfspaceSystem(vs)
    d = h.ambient_dim
    r = max_cone_dim(h)
    for k in range(1, d + 1):
        rep = corollary_check(h, k)
        _require(rep.rank == r, "reported rank drifted")
        _require(rep.global_holds == (r >= k), "global flag wrong")
        _require(rep.global_holds == rep.subsystems_hold,
                 f"corollary biconditional mismatch at k={k}")
        if rep.witness is not None:
            _require(rep.witness.holds(h, k),
                     "corollary witness subsystem still has rank k")


_CHECK_FUNCS = {
    "lineality": check_lineality,
    "pos_helly": check_pos_helly,
    "posbasis": check_posbasis,
    "cone_helly": check_cone_helly,
    "corollary": check_corollary,
}


def run_trial_checks(vs: VectorSet, checks=ALL_CHECKS) -> dict:
    """Run the named checks on one instance; returns {check: seconds or
    None}.  Raises CheckFailed on the first violated property."""
    out = {}
    for name in checks:
        out[name] = _CHECK_FUNCS[name](vs)
    return out


def run_fuzz(config: FuzzConfig) -> FuzzSummary:
    summary = FuzzSummary(config=config,
                          checks_passed={name: 0 for name in config.checks},
                          check_seconds={name: 0.0 for name in config.checks})
    for trial in range(config.trials):
        trial_seed, vs = trial_instance(config, trial)
        summary.trials_run += 1
        for name in config.checks:
            t0 = time.perf_counter()
            try:
                res = _CHECK_FUNCS[name](vs)
            except CapacityError:  # a refusal past the gate, not a failure
                raise
            except Exception as exc:  # record and continue; replay comes later
                summary.failures.append(FuzzFailure(
                    trial=trial, trial_seed=trial_seed, check=name,
                    message=f"{type(exc).__name__}: {exc}", instance=vs))
                continue
            finally:
                summary.check_seconds[name] += time.perf_counter() - t0
            summary.checks_passed[name] += 1
            if name == "posbasis":
                summary.reay_max_seconds = max(summary.reay_max_seconds, res)
    return summary
