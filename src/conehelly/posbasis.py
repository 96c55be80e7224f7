"""Positive bases of subspaces and their Reay partitions.

A positive basis of a subspace L is a subset X with pos X = L that loses
the property when any single element is removed.  Reay's theorem says X
splits into parts X_1, ..., X_r with nonincreasing sizes >= 2 such that
every prefix union B_j is itself a positive basis of its span and that
span has dimension |B_j| - j.

Both ways of asking "pos X = L" come down to linear programs:

* certificates: +w and -w are verified membership combinations for every
  basis vector w of L (:func:`is_positive_basis`, :func:`verify_reay`);
* searches: pos X = L exactly when X is linear (pos X is a subspace) and
  spans L, and :func:`is_linear` decides linearity with one phase-1 LP.

Everything the searches produce is re-checked by the certificates in the
type invariants and the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul
from typing import Iterable

from . import lp
from .errors import TheoremContradiction
from .cone import lineality_space, membership, reversible_indices
from .ratlin import (
    SubspaceBasis,
    Vec,
    VectorSet,
    _int_rows,
    rank_of_rows,
    span_basis,
    vneg,
)

__all__ = [
    "PositiveBasis",
    "ReayPartition",
    "is_positive_basis",
    "extract_positive_basis",
    "extract_positive_basis_indices",
    "reay_partition",
    "verify_reay",
    "is_linear",
    "subset_rank",
]


def positively_spans(x: VectorSet, target: SubspaceBasis) -> bool:
    """Certified test of pos(x) = target for a subspace target: every x
    lies in the target and +/- every basis vector of the target is a
    verified membership combination."""
    if x.ambient_dim != target.ambient_dim:
        return False
    if not all(target.contains(v) for v in x):
        return False
    for w in target.basis:
        if not membership(w, x).is_member:
            return False
        if not membership(vneg(w), x).is_member:
            return False
    return True


def is_positive_basis(x: VectorSet, target: SubspaceBasis) -> bool:
    """pos(x) = target and no single element can be dropped."""
    if not positively_spans(x, target):
        return False
    for i in range(len(x)):
        rest = x.subset([j for j in range(len(x)) if j != i])
        if positively_spans(rest, target):
            return False
    return True


@dataclass(frozen=True)
class PositiveBasis:
    """A verified positive basis; construction re-runs the certified check
    so an instance of this type is trustworthy by existence."""

    target: SubspaceBasis
    elements: VectorSet

    def __post_init__(self):
        if not is_positive_basis(self.elements, self.target):
            raise ValueError("elements are not a positive basis of the target")

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class ReayPartition:
    """Ordered partition candidate; validity is a question for
    :func:`verify_reay`, not for the constructor, so that invalid
    partitions can be represented and rejected."""

    ambient_dim: int
    parts: tuple[VectorSet, ...]

    def __post_init__(self):
        for p in self.parts:
            if p.ambient_dim != self.ambient_dim:
                raise ValueError("part in wrong ambient dimension")

    def union(self) -> VectorSet:
        vectors: list = []
        for p in self.parts:
            vectors.extend(p.vectors)
        return VectorSet(self.ambient_dim, tuple(vectors))


def is_linear(vectors: Iterable[Vec]) -> bool:
    """True iff pos(vectors) is a linear subspace.

    That holds iff sum_i lambda_i s_i = 0 for some lambda >= 1: such a
    combination makes every s_i reversible, and conversely, when every
    s_i is, adding up one zero-combination per i that gives s_i the
    coefficient 1 yields one.  So it holds iff -sum_i s_i is a
    nonnegative combination of the s_i, which one phase-1 LP decides
    (Farkas; Schrijver, Theory of Linear and Integer Programming, 1986).
    Rescaling each vector to integers changes no positive hull.
    """
    rows = _int_rows(vectors)
    if not rows:
        return True
    # On a linear set a functional positive somewhere is negative
    # somewhere.  Trying the coordinates and x -> v.x for each nonzero v
    # settles about half of the witness-search candidates of the fuzz
    # streams without the LP, which raised pos_helly benchmark throughput
    # by 15-30% in paired runs on a 2-core x86 VM.
    for col in zip(*rows):
        if (min(col) < 0) != (max(col) > 0):
            return False
    for v in rows:
        if any(v) and all(sum(map(mul, v, w)) >= 0 for w in rows):
            return False
    target = [-sum(col) for col in zip(*rows)]
    return lp.nonneg_combination(rows, target).status == lp.OPTIMAL


def subset_rank(vs: VectorSet, indices) -> int:
    return rank_of_rows([vs[i] for i in indices], vs.ambient_dim)


def extract_positive_basis_indices(a: VectorSet) -> tuple[int, ...]:
    """Original indices of a minimal positive basis of the lineality space
    of pos(a), obtained by restricting to the reversible generators and
    then greedily deleting in input order while positive spanning holds."""
    members = list(reversible_indices(a))
    target_dim = lineality_space(a).dim
    keep = list(members)
    for idx in members:
        trial = [i for i in keep if i != idx]
        if subset_rank(a, trial) == target_dim and \
                is_linear(a[i] for i in trial):
            keep = trial
    return tuple(keep)


def extract_positive_basis(a: VectorSet) -> PositiveBasis:
    """Minimal positive basis of lineality_space(a) contained in a."""
    keep = extract_positive_basis_indices(a)
    return PositiveBasis(target=lineality_space(a), elements=a.subset(keep))


def _profiles(n: int, r: int, cap: int):
    """Nonincreasing size profiles: r parts, each in [2, cap], summing to
    n, emitted in descending lexicographic order."""
    if r == 0:
        if n == 0:
            yield ()
        return
    top = min(cap, n - 2 * (r - 1))
    bottom = -(-n // r)  # ceil: keep nonincreasing feasible
    for first in range(top, max(2, bottom) - 1, -1):
        for rest in _profiles(n - first, r - 1, first):
            yield (first,) + rest


def _prefix_ok(vs: VectorSet, prefix: list[int], nparts: int) -> bool:
    """Reay prefix condition for B_j (j = nparts): dimension identity,
    positive spanning of the own span, and minimality."""
    want_dim = len(prefix) - nparts
    if subset_rank(vs, prefix) != want_dim:
        return False
    if not is_linear(vs[i] for i in prefix):
        return False
    for drop in prefix:
        rest = [i for i in prefix if i != drop]
        if subset_rank(vs, rest) == want_dim and is_linear(vs[i] for i in rest):
            return False  # still positively spans: not minimal
    return True


def reay_partition(x: PositiveBasis) -> ReayPartition:
    """A partition satisfying the Reay invariants, found by backtracking
    over ordered set partitions: size profiles in descending lexicographic
    order, parts filled in lexicographic index order, first solution wins.
    The output is therefore canonical for a given input order.  Existence
    is guaranteed, so exhausting the search raises TheoremContradiction."""
    elements = x.elements
    n = len(elements)
    d = elements.ambient_dim
    if n == 0:
        return ReayPartition(d, ())
    dim = x.target.dim
    r = n - dim

    def search(remaining: list[int], chosen: list[tuple[int, ...]],
               sizes: tuple[int, ...]) -> list[tuple[int, ...]] | None:
        j = len(chosen)
        if j == len(sizes):
            return chosen if not remaining else None
        size = sizes[j]
        for combo in itertools.combinations(remaining, size):
            prefix = [i for c in chosen for i in c] + list(combo)
            if not _prefix_ok(elements, prefix, j + 1):
                continue
            rest = [i for i in remaining if i not in combo]
            out = search(rest, chosen + [combo], sizes)
            if out is not None:
                return out
        return None

    for sizes in _profiles(n, r, n):
        out = search(list(range(n)), [], sizes)
        if out is not None:
            return ReayPartition(d, tuple(elements.subset(part) for part in out))
    raise TheoremContradiction(
        "no Reay partition found for a verified positive basis")


def verify_reay(p: ReayPartition) -> bool:
    """Exact check of every Reay invariant: part sizes nonincreasing and
    at least 2, parts disjoint, and every prefix union a positive basis of
    its span with dimension |B_j| - j.  Uses the certified spanning test."""
    sizes = [len(part) for part in p.parts]
    if any(s < 2 for s in sizes):
        return False
    if any(sizes[i] < sizes[i + 1] for i in range(len(sizes) - 1)):
        return False
    seen: set = set()
    for part in p.parts:
        for v in part:
            if v in seen:
                return False
            seen.add(v)
    prefix: list = []
    for j, part in enumerate(p.parts, start=1):
        prefix.extend(part.vectors)
        b = VectorSet(p.ambient_dim, tuple(prefix))
        span = span_basis(b)
        if span.dim != len(b) - j:
            return False
        if not is_positive_basis(b, span):
            return False
    return True
