"""Positive bases of subspaces and their Reay partitions.

A positive basis of a subspace L is a subset X with pos X = L that loses
the property when any single element is removed.  Reay's theorem says X
splits into parts X_1, ..., X_r with nonincreasing sizes >= 2 such that
every prefix union B_j is itself a positive basis of its span and that
span has dimension |B_j| - j.

pos X = L exactly when X lies in L, has rank dim L and is linear (pos X
is a subspace).  Linearity has one mechanism, :func:`cone.is_linear`:
one phase-1 LP whose answer, a zero combination with positive
coefficients or a separating functional, is checked by substitution.
Once X is linear, x can be dropped exactly when x lies in pos(X - x):
-x lies in pos(X - x) already, so pos(X - x) then holds X and equals
pos X, and otherwise it misses x.  That is one membership question,
with no rank: the drop-one test :func:`cone._in_pos_of_rest`, read off
signs where it can and else one membership LP, either answer checked
by substitution.  So a positive basis is certified by one linearity
certificate and one membership certificate per element, a Reay prefix
B_j by the same test with dim L = |B_j| - j, and the extraction below
deletes by the same membership test.  Ranks and LPs are read off the
integer rows of the vector sets.

A Reay partition is certified as index sets into its basis:
:func:`verify_reay` checks that the parts partition the basis, their
sizes and every prefix.  :class:`ReayPartition` holds the same parts as
vector sets, a view for reading only.

The search itself, :func:`reay_parts`, keeps no memo, so a caller that
times it times the search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import TheoremContradiction
from .cone import (
    _in_pos_of_rest,
    is_linear,
    lineality_dim,
    lineality_space,
    reversible_indices,
)
from .ratlin import SubspaceBasis, VectorSet, is_index_set, rank_of_rows

__all__ = [
    "PositiveBasis",
    "ReayPartition",
    "is_positive_basis",
    "extract_positive_basis",
    "extract_positive_basis_indices",
    "reay_partition",
    "reay_parts",
    "verify_reay",
]


def _minimally_spans(rows: list, d: int, dim: int) -> bool:
    """pos(rows) is a linear subspace of dimension dim, and no set with
    one element removed has both properties; rows are integer rows.
    Once rows is certified linear of that dimension, a smaller set has
    both properties exactly when its positive hull is pos(rows), which
    :func:`cone._in_pos_of_rest` decides.

    For dim > 0, dim vectors never positively span a dim-dimensional
    space: if they span it they are a basis, and each coordinate in that
    basis is >= 0 on their positive hull.  So a set of at most dim
    vectors fails, and one of dim + 1 that spans loses the property with
    any element removed, with no further rank or LP.  In dim 0 the empty
    set is the positive basis, and {0} spans but not minimally."""
    n = len(rows)
    if dim > 0 and n <= dim:
        return False
    if rank_of_rows(rows, d) != dim or not is_linear(rows):
        return False
    if dim > 0 and n == dim + 1:
        return True
    return not any(_in_pos_of_rest(rows, i) for i in range(n))


def is_positive_basis(x: VectorSet, target: SubspaceBasis) -> bool:
    """pos(x) = target and no single element can be dropped."""
    d, rows = x.ambient_dim, list(x.int_rows)
    return (d == target.ambient_dim
            and rank_of_rows([*target.int_rows, *rows], d) == target.dim
            and _minimally_spans(rows, d, target.dim))


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
    """The parts of a Reay partition as vector sets: a view for reading
    only.  A partition is checked as index sets into its basis, by
    :func:`verify_reay`, since vectors alone cannot tell whether the parts
    cover the basis.  Kept for the benchmark, which reads it."""

    ambient_dim: int
    parts: tuple[VectorSet, ...]

    def __post_init__(self):
        for p in self.parts:
            if p.ambient_dim != self.ambient_dim:
                raise ValueError("part in wrong ambient dimension")


@lru_cache(maxsize=4096)
def extract_positive_basis_indices(a: VectorSet) -> tuple[int, ...]:
    """Original indices of a minimal positive basis of the lineality space
    of pos(a), obtained by restricting to the reversible generators and
    then greedily deleting in input order while positive spanning holds.
    The reversible generators are linear, by the deflation's last
    certificate, and each deletion keeps the positive hull, so one
    membership test decides each deletion (:func:`cone._in_pos_of_rest`).

    Memoized per instance, as the positive-basis check and the Reay
    witness both extract from the same set; a :class:`PositiveBasis`
    built on the indices re-certifies them every time."""
    rows = a.int_rows
    members = reversible_indices(a)
    target_dim = lineality_dim(a)
    keep = list(members)
    for idx in members:
        if target_dim > 0 and len(keep) == target_dim + 1:
            break  # no smaller set spans: see _minimally_spans
        if _in_pos_of_rest([rows[i] for i in keep], keep.index(idx)):
            keep.remove(idx)
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


def reay_parts(x: PositiveBasis) -> tuple[tuple[int, ...], ...]:
    """Indices into x.elements of the parts of a partition satisfying the
    Reay invariants, found by backtracking over ordered set partitions:
    size profiles in descending lexicographic order, parts filled in
    lexicographic index order, first solution wins.  The output is
    therefore canonical for a given input order, and each part is sorted.
    The last part is the indices left: its prefix is the whole basis,
    certified when x was built, and its size is the last of the profile.
    Existence is guaranteed, so exhausting the search raises
    TheoremContradiction."""
    elements = x.elements
    n = len(elements)
    if n == 0:
        return ()
    d = elements.ambient_dim
    rows = elements.int_rows
    r = n - x.target.dim

    def search(remaining: list[int], chosen: list[tuple[int, ...]],
               sizes: tuple[int, ...]) -> list[tuple[int, ...]] | None:
        j = len(chosen)
        if j == len(sizes) - 1:
            return chosen + [tuple(remaining)]
        for combo in itertools.combinations(remaining, sizes[j]):
            prefix = [rows[i] for c in chosen + [combo] for i in c]
            if not _minimally_spans(prefix, d, len(prefix) - j - 1):
                continue
            rest = [i for i in remaining if i not in combo]
            out = search(rest, chosen + [combo], sizes)
            if out is not None:
                return out
        return None

    for sizes in _profiles(n, r, n):
        out = search(list(range(n)), [], sizes)
        if out is not None:
            return tuple(out)
    raise TheoremContradiction(
        "no Reay partition found for a verified positive basis")


def reay_partition(x: PositiveBasis) -> ReayPartition:
    """The partition of :func:`reay_parts` as vector sets, for reading;
    :func:`verify_reay` checks the index sets.  Kept for the benchmark,
    which reads it."""
    return ReayPartition(x.elements.ambient_dim,
                         tuple(x.elements.subset(p) for p in reay_parts(x)))


def verify_reay(elements: VectorSet, parts) -> bool:
    """Exact check of every Reay invariant of parts, given as index sets
    into elements: each part is an index set, together they partition the
    indices of elements, their sizes are nonincreasing and at least 2,
    and every prefix union B_j is a positive basis of its span, which has
    dimension |B_j| - j.  The last prefix is elements itself, so True
    also certifies that elements is a positive basis of its span."""
    n = len(elements)
    if (not all(is_index_set(part, n) for part in parts)
            or sorted(i for part in parts for i in part) != list(range(n))):
        return False
    sizes = [len(part) for part in parts]
    if any(s < 2 for s in sizes) or any(a < b for a, b in zip(sizes, sizes[1:])):
        return False
    rows, prefix = elements.int_rows, []
    for j, part in enumerate(parts, start=1):
        prefix.extend(rows[i] for i in part)
        if not _minimally_spans(prefix, elements.ambient_dim, len(prefix) - j):
            return False
    return True
