"""Helly-type checkers and witness extractors.

Two bounds drive everything.  For a k-dimensional cone inside the
intersection of a halfspace family in dimension d the Helly number is
m(k,d) = max(d+1, 2(d-k+1)); for the lineality dimension of a positive
hull it is h(k,d) = max(d+1, 2(k+1)).  The two are polar to each other:
m(k,d) = h(d-k,d).

Checkers evaluate the subset hypothesis and the global conclusion
independently and, when the conclusion fails, produce a witness subset
whose size the theorems bound.  The lineality and cone hypotheses are
decided by one memoized search, the lexicographically first minimal
witness, put to the generators at threshold k and to the outer normals
at threshold d - k (as m(k,d) = h(d-k,d)).  That search alone owns the
size bound h, the capacity gate (ENUMERATION_CUTOFF reversible
generators, checked only when it has to scan) and the theorem check: a
witness that cannot be found within its bound would contradict a proved
theorem, so that raises TheoremContradiction instead of being reported
as an ordinary result.  The Reay and flat witnesses scan no subsets and
are not gated.

Minimal witnesses have useful structure: a smallest subset B with
dim lpos B > k must satisfy pos B = lin B (every element reversible
inside B, otherwise dropping an irreversible element gives a smaller
witness).  Its lineality dimension is then its rank, so the enumeration
asks of each candidate only whether it is linear and, if so, its exact
rank.  Most candidates are not linear, and a pool of exact cuts, each an
integer functional held as two bitmasks, rules nearly all of those out
with two ANDs each; only the rest reach the checked LP certificate of
cone._lp_separator.  Acceptance still rests on that certificate and the
exact rank, so the pool changes what the search costs, never what it
finds.  Wherever a witness is checked, witness_holds checks all of it:
that its subset is an index set into the instance, within the size
bound, and has the claimed property, decided afresh on that subset by
WITNESS_PROPERTIES, the one definition of what each property claims.

The answers at different thresholds are nested, and the search keeps
one memo per instance to use that.  Let W be the witness at t' and
t > t'.  Every subset before W in (size, index-lexicographic) order has
lineality dimension at most t' < t, so the witness at t is W itself
when rank W > t, and otherwise comes after W.  A check that asks
k = 1, 2, ... in turn thus scans each subset at most once, and reuses
only answers the theorem already fixes: no cut crosses scans.

Threshold 0, which the cone check asks at k = d, is not scanned at all.
Its witness is an antipodal pair of class representatives when there is
one, found by a key lookup.  Otherwise it is the witness at threshold 1:
a linear set of representatives of rank 1 lies on a line, so it is an
antipodal pair, and every other linear candidate has rank >= 2 and
qualifies at 0 exactly when it qualifies at 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import gcd
from operator import mul

from .errors import CapacityError, TheoremContradiction
from .cone import (
    HalfspaceSystem,
    _check_k,
    _lp_separator,
    lineality_dim,
    lineality_of_polar,
    max_cone_dim,
    reversible_indices,
)
from .posbasis import (
    extract_positive_basis,
    extract_positive_basis_indices,
    reay_parts,
)
from .ratlin import VectorSet, is_index_set, rank_of_rows

__all__ = [
    "ENUMERATION_CUTOFF",
    "HellyBounds",
    "WITNESS_PROPERTIES",
    "Witness",
    "witness_holds",
    "bound_m",
    "bound_h",
    "check_lineality_hypothesis",
    "witness_lineality_enum",
    "witness_lineality_reay",
    "verify_cone_helly",
    "corollary_check",
    "check_flat_helly",
    "ConeHellyReport",
    "CorollaryReport",
    "FlatHellyReport",
]

# The minimal-witness scan is exponential in the reversible generators;
# refuse more than this many instead of silently running forever.
ENUMERATION_CUTOFF = 24


def _h(k: int, d: int) -> int:
    return max(d + 1, 2 * (k + 1))


def bound_m(k: int, d: int) -> int:
    """Helly number for k-dimensional cones in dimension d."""
    _check_k(k, d)
    return _h(d - k, d)


def bound_h(k: int, d: int) -> int:
    """Helly number for lineality dimension at most k in dimension d."""
    _check_k(k, d)
    return _h(k, d)


@dataclass(frozen=True)
class HellyBounds:
    """Both Helly numbers at (k, d), derived from k and d alone."""

    k: int
    d: int
    m: int = field(init=False)
    h: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "m", bound_m(self.k, self.d))
        object.__setattr__(self, "h", bound_h(self.k, self.d))


def _no_k_dim_cone(h: HalfspaceSystem, ids, k: int) -> bool:
    return max_cone_dim(h.subsystem(ids)) < k


# What each witness property claims of the subset ids of an instance x at
# parameter k, decided afresh on that subset: the one definition of each
# property, applied through witness_holds.
WITNESS_PROPERTIES = {
    "lineality_dim_exceeds":
        lambda vs, ids, k: lineality_dim(vs.subset(ids)) > k,
    "no_k_dim_cone": _no_k_dim_cone,
    "solution_rank_below_k": _no_k_dim_cone,
    "independent_normals":
        lambda h, ids, k: rank_of_rows([h.normals.int_rows[i] for i in ids],
                                       h.ambient_dim) == k + 1,
}


def witness_holds(x, k: int, ids, prop: str, size_bound: int) -> bool:
    """Whether the subset ids of the instance x witnesses prop at k: ids
    is an index set into x, within size_bound, and the subset has the
    property.  The one witness check, of Witness.holds and of --verify."""
    return (is_index_set(ids, len(x)) and len(ids) <= size_bound
            and WITNESS_PROPERTIES[prop](x, ids, k))


@dataclass(frozen=True)
class Witness:
    """A subset certifying failure of a Helly conclusion; its size is
    bounded by the applicable Helly number."""

    subset_indices: tuple[int, ...]
    property: str
    size_bound: int

    def __post_init__(self):
        if len(self.subset_indices) > self.size_bound:
            raise ValueError("witness larger than its size bound")

    def holds(self, x, k: int) -> bool:
        """Whether the subset has its claimed property in the instance x."""
        return witness_holds(x, k, self.subset_indices, self.property,
                             self.size_bound)


def _cut(y, points) -> tuple[int, int]:
    """The functional y as a cut over points: the bitmasks of the points
    where y is positive and where it is negative."""
    pos = neg = 0
    for bit, s in enumerate(points):
        v = sum(map(mul, y, s))
        if v > 0:
            pos |= 1 << bit
        elif v < 0:
            neg |= 1 << bit
    return pos, neg


@lru_cache(maxsize=2048)
def _witness_answers(a: VectorSet) -> dict[int, tuple[int, ...] | None]:
    """The answers of _minimal_lineality_witness on a, keyed by threshold:
    the memo of the search, one per instance, so that a threshold can
    resume after the witness of the threshold below."""
    return {}


def _minimal_lineality_witness(a: VectorSet,
                               threshold: int) -> tuple[int, ...] | None:
    """Lexicographically-first smallest subset B with
    dim lineality_space(B) > threshold, or None when a itself has
    lineality dimension at most threshold.

    The lineality Helly theorem puts B within h(threshold, d) elements
    (threshold 0 included, as the cone check asks at k = d), so finding
    none there raises.  The scan is exponential in the reversible
    generators, so it refuses more than ENUMERATION_CUTOFF of them before
    it starts.

    At the minimal cardinality every witness B is linear (pos B = lin B),
    so a candidate qualifies iff it is linear and its rank exceeds the
    threshold; linearity is asked first, as nearly every candidate has
    the rank.  Sizes are scanned in ascending order, subsets of the
    reversible generators in index-lexicographic order.

    Memoized per instance in _witness_answers: the pos check at
    threshold k and the cone and corollary checks at k' = d - k all ask
    for (a, k), and the answers at different thresholds are nested.  Let
    W be the answer at t' < threshold.  Every candidate before W in
    (size, index-lexicographic) order has lineality dimension at most
    t' < threshold, so none of them is the answer here; W itself is
    linear, so it is the answer iff its rank exceeds the threshold.
    Otherwise the scan resumes right after W, from the largest answered
    threshold below, and a cold search scans from size threshold + 2.

    The scan runs over one generator per positive-parallel class, the
    first index of each (:func:`_class_representatives`).  W never holds
    two generators that are positive multiples of each other, as dropping
    one keeps pos W and gives a smaller witness; nor a zero generator,
    for the same reason; nor j when an earlier i outside W is a positive
    multiple of s_j, as swapping i in keeps pos W and |W| and is
    lex-earlier.  So W is among the representatives, and the first
    qualifying subset of them is W.  The capacity gate still counts the
    reversible generators.

    Threshold 0 scans nothing once the gate has passed: its witness is
    the lex-first antipodal pair of representatives
    (:func:`_antipodal_pair`) or, when there is none, the answer at
    threshold 1, asked through the memo (module docstring).  That answer
    must lie within h(0, d), or the theorem check raises.

    Linearity goes through a pool of cuts, each an integer functional y
    held as two bitmasks over the representatives: pos where
    y.s > 0 and neg where y.s < 0.  A candidate meets exactly one of
    them iff y or -y is <= 0 on all of it and < 0 somewhere on it, and
    then, whatever y is, its positive hull is not linear.  The pool
    starts from the coordinates and x -> v.x for each representative v,
    and a candidate no cut settles goes to the checked LP of
    cone._lp_separator; a separator it returns joins the pool at the
    front, and a cut that fires moves to the front.  Every rejection
    rests on exact integer dot products and every acceptance on the
    checked certificate and the exact rank, so the witness is the one a
    plain scan finds.  The pool lives for one scan and is built only
    once the search has to scan.
    """
    answers = _witness_answers(a)
    if threshold not in answers:
        answers[threshold] = _scan_for_witness(a, threshold, answers)
    return answers[threshold]


def _class_key(row) -> tuple[int, ...] | None:
    """The key of the positive-parallel class of a nonzero row: its
    primitive row, the row divided by the gcd of its entries, which is
    positive and so keeps the sign.  None for a zero row."""
    g = gcd(*row)
    return tuple(x // g for x in row) if g else None


def _class_representatives(rows, members) -> list[int]:
    """The first index among members of each positive-parallel class of
    nonzero rows (:func:`_class_key`), in order."""
    firsts: dict[tuple[int, ...], int] = {}
    for i in members:
        key = _class_key(rows[i])
        if key is not None:
            firsts.setdefault(key, i)
    return list(firsts.values())


def _antipodal_pair(rows, reps) -> tuple[int, int] | None:
    """The lex-first pair of representatives i < j with s_j a negative
    multiple of s_i, found by looking up the negated class key, or None.
    Each class has one representative, so the first i in order with a
    partner gives the pair; its partner j comes after it, or j would
    have been found first."""
    index = {_class_key(rows[i]): i for i in reps}
    for key, i in index.items():
        j = index.get(tuple(-x for x in key))
        if j is not None:
            return i, j
    return None


def _scan_for_witness(a: VectorSet, threshold: int,
                      answers: dict) -> tuple[int, ...] | None:
    """The search of _minimal_lineality_witness, resumed after the stored
    answer of the largest threshold below, if there is one; it opens on
    the memoized lineality_dim of a."""
    if lineality_dim(a) <= threshold:
        return None  # dim lpos(a) itself is within the threshold
    rows, d = a.int_rows, a.ambient_dim
    members = reversible_indices(a)
    # A None below would put dim lpos(a) within the threshold, so any
    # answer below is a witness.
    below = [t for t in answers if t < threshold]
    after = answers[max(below)] if below else ()
    if after and rank_of_rows([rows[i] for i in after], d) > threshold:
        return after
    if len(members) > ENUMERATION_CUTOFF:
        raise CapacityError(
            f"{len(members)} reversible generators exceed the enumeration "
            f"cutoff of {ENUMERATION_CUTOFF}")
    reps = _class_representatives(rows, members)
    if threshold == 0:
        combo = _antipodal_pair(rows, reps) or _minimal_lineality_witness(a, 1)
        if combo is None or len(combo) > _h(0, d):
            raise TheoremContradiction(
                "lineality exceeds 0 but no witness within h exists")
        return combo
    points = [rows[i] for i in reps]
    axes = [[int(i == j) for i in range(d)] for j in range(d)]
    cuts = [_cut(y, points) for y in axes + points]
    bits = [1 << b for b in range(len(reps))]
    top = min(_h(threshold, d), len(reps))
    for size in range(max(threshold + 2, len(after)), top + 1):
        candidates = zip(itertools.combinations(reps, size),
                         map(sum, itertools.combinations(bits, size)))
        if size == len(after):
            candidates = itertools.dropwhile(lambda c: c[0] <= after, candidates)
        for combo, mask in candidates:
            for i, (pos, neg) in enumerate(cuts):
                if (not mask & pos) != (not mask & neg):
                    if i:
                        cuts.insert(0, cuts.pop(i))
                    break
            else:
                sub = [rows[i] for i in combo]
                y = _lp_separator(sub)
                if y is not None:
                    cuts.insert(0, _cut(y, points))
                elif rank_of_rows(sub, d) > threshold:
                    return combo
    raise TheoremContradiction(
        "lineality exceeds the threshold but no witness within h exists")


def check_lineality_hypothesis(a: VectorSet, k: int) -> bool:
    """True iff every subset B with |B| <= h(k,d) has lineality dimension
    at most k."""
    _check_k(k, a.ambient_dim)
    return _minimal_lineality_witness(a, k) is None


def witness_lineality_enum(a: VectorSet, k: int) -> Witness:
    """Lexicographically-first smallest subset whose lineality dimension
    exceeds k; its size never exceeds h(k,d)."""
    _check_k(k, a.ambient_dim)
    combo = _minimal_lineality_witness(a, k)
    if combo is None:
        raise ValueError(
            "witness extraction requires lineality dimension above k")
    return Witness(subset_indices=combo, property="lineality_dim_exceeds",
                   size_bound=bound_h(k, a.ambient_dim))


@lru_cache(maxsize=256)
def _reay_input_parts(a: VectorSet) -> tuple[tuple[int, ...], ...]:
    """Input indices of the parts, in order, of the Reay partition of the
    extracted positive basis of the lineality space.  Nothing here
    depends on k, so it is memoized for the witnesses at every k."""
    kept = extract_positive_basis_indices(a)
    return tuple(tuple(kept[i] for i in part)
                 for part in reay_parts(extract_positive_basis(a)))


def witness_lineality_reay(a: VectorSet, k: int) -> Witness:
    """Witness read off the Reay partition of a positive basis of the
    lineality space: the first prefix whose span dimension exceeds k.
    The Reay search certified that prefix B_j spans |B_j| - j dimensions."""
    d = a.ambient_dim
    _check_k(k, d)
    if lineality_dim(a) <= k:
        raise ValueError(
            "witness extraction requires lineality dimension above k")
    h = bound_h(k, d)
    taken: list[int] = []
    for j, part in enumerate(_reay_input_parts(a), start=1):
        taken.extend(part)
        if len(taken) - j > k:
            if len(taken) > h:
                raise TheoremContradiction(
                    "Reay prefix witness exceeds h(k,d)")
            return Witness(subset_indices=tuple(sorted(taken)),
                           property="lineality_dim_exceeds", size_bound=h)
    raise TheoremContradiction(
        "no Reay prefix exceeds k although the full lineality does")


@dataclass(frozen=True)
class ConeHellyReport:
    k: int
    d: int
    bounds: HellyBounds
    hypothesis: bool
    conclusion: bool
    max_cone_dim: int
    lineality_dim: int
    witness: Witness | None


def verify_cone_helly(h: HalfspaceSystem, k: int) -> ConeHellyReport:
    """Evaluate both sides of the cone Helly statement on a halfspace
    system: hypothesis (every subfamily of size at most m(k,d) contains a
    k-dimensional cone in its intersection) and conclusion (the whole
    family does).  When the conclusion fails, a witness subfamily within
    the bound is attached.

    A subfamily contains a k-dimensional cone iff its normals' lineality
    dimension is at most d - k, so the hypothesis is the lineality
    hypothesis at d - k on the normals, m(k,d) = h(d-k,d), and the
    minimal-witness search decides it exactly."""
    d = h.ambient_dim
    bounds = HellyBounds(k, d)
    ldim = lineality_dim(h.normals)
    mcd = d - ldim
    combo = _minimal_lineality_witness(h.normals, d - k)
    hypothesis, conclusion = combo is None, mcd >= k
    # A subfamily's cone dimension only grows as halfspaces are removed,
    # so the conclusion implies the hypothesis outright; the converse is
    # the theorem.
    if hypothesis != conclusion:
        raise TheoremContradiction(
            "cone Helly hypothesis and conclusion disagree")
    witness = None
    if combo is not None:
        witness = Witness(subset_indices=combo, property="no_k_dim_cone",
                          size_bound=bounds.m)
    return ConeHellyReport(k=k, d=d, bounds=bounds, hypothesis=hypothesis,
                           conclusion=conclusion, max_cone_dim=mcd,
                           lineality_dim=ldim, witness=witness)


@dataclass(frozen=True)
class CorollaryReport:
    k: int
    d: int
    bounds: HellyBounds
    rank: int
    global_holds: bool
    subsystems_hold: bool
    witness: Witness | None


def corollary_check(h: HalfspaceSystem, k: int) -> CorollaryReport:
    """Biconditional for homogeneous inequality systems: the system has at
    least k linearly independent solutions iff every subsystem of size at
    most m(k,d) does.

    The maximum number of linearly independent solutions of {a.x <= 0}
    is max_cone_dim, since the solution set is a full-dimensional cone in
    the complement of the normals' lineality space; extract_cone at this
    k produces explicit such solutions.  So this is the cone Helly report
    under other names."""
    rep = verify_cone_helly(h, k)
    witness = rep.witness and replace(rep.witness,
                                      property="solution_rank_below_k")
    return CorollaryReport(k=k, d=rep.d, bounds=rep.bounds,
                           rank=rep.max_cone_dim, global_holds=rep.conclusion,
                           subsystems_hold=rep.hypothesis, witness=witness)


@dataclass(frozen=True)
class FlatHellyReport:
    k: int
    d: int
    polar_lineality_dim: int
    normal_rank: int
    subspace_conclusion: bool
    all_small_subsets_dependent: bool
    witness: Witness | None


def check_flat_helly(h: HalfspaceSystem, k: int) -> FlatHellyReport:
    """Subspace version with Helly number k+1: the intersection contains a
    subspace of dimension d-k iff every k+1 outer normals are linearly
    dependent.  k = 0 is allowed and trivial.  The witness, the
    lexicographically first independent (k+1)-subset of normals, is the
    greedy basis of the matroid truncated to rank k+1 (Gale, J. Comb.
    Theory 4, 1968), found with one rank test per normal."""
    d = h.ambient_dim
    _check_k(k, d, lowest=0)
    polar_dim = lineality_of_polar(h).dim
    conclusion = polar_dim >= d - k
    rows = h.normals.int_rows
    kept: list[int] = []
    for i in range(len(h)):
        if len(kept) == k + 1:
            break
        if rank_of_rows([rows[j] for j in kept] + [rows[i]], d) > len(kept):
            kept.append(i)
    all_dependent = len(kept) <= k
    witness = None
    if not all_dependent:
        witness = Witness(subset_indices=tuple(kept),
                          property="independent_normals", size_bound=k + 1)
    if conclusion != all_dependent:
        raise TheoremContradiction(
            "polar lineality dimension disagrees with normal rank")
    rank_n = rank_of_rows(rows, d)
    return FlatHellyReport(k=k, d=d, polar_lineality_dim=polar_dim,
                           normal_rank=rank_n,
                           subspace_conclusion=conclusion,
                           all_small_subsets_dependent=all_dependent,
                           witness=witness)
