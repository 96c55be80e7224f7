"""Polyhedral cone primitives.

The positive hull of a finite vector set A is ``pos A``, the set of all
nonnegative combinations of A.  Everything downstream needs three exact
questions answered about it:

* membership: is b in pos A?
* linearity: is pos A a linear subspace?  It is iff -sum A is in pos A,
  so this is membership again, decided by the checked LP of
  :func:`_lp_separator`.  The lineality space, positive bases and Reay
  prefixes all rest on it.  Once a set is known to be linear, a smaller
  question settles whether one element can go: pos(A - a) = pos A iff a
  is in pos(A - a), the membership question of :func:`_in_pos_of_rest`
  that :mod:`posbasis` asks.
* polar quantities of a homogeneous halfspace system {x : a.x <= 0}: the
  largest dimension of a cone inside the intersection, a relative
  interior point, and an explicit k-dimensional cone when one exists.

The first two are asked of a VectorSet's integer rows, which have the
same positive hull, and one phase-1 LP answers both: every such LP is
solved in :func:`_checked_membership`, which verifies its integer answer
by substitution (:func:`_checked`) before it is used.  That substitution,
:func:`_certifies`, is the one check of a pos certificate: ``--verify``
puts a report's membership certificate to it too.  Membership turns its
certificate back into Fractions.

Nearly every Helly question needs only the dimension of the lineality
space, and :func:`lineality_dim` answers it by one integer rank of the
reversible generators, once per vector set.  A basis,
:func:`lineality_space`, is built only where the subspace itself is
used: the lineality report and the target of a positive basis.  The
complement that :func:`extract_cone` works in is the kernel of the
reversible normals' integer rows, and the cone's generators are built
straight into a vector set's integer form.

The deflation that finds the reversible set keeps the separator of each
round, in one memo, and :func:`complementary_point` folds those
separators into an integer point; no LP is solved for it.  With the
checked zero-combination on the reversible set, that point certifies the
set from both sides, for generators and normals alike.  A deflation
round and a drop-one test ask signs, a one-signed coordinate, before
the LP, both through the checked :func:`_sign_certificate`.

The deflation, positive-basis extraction and re-certification, the Reay
search and the witness searches put the same row sets to the LP many
times over, so :func:`_lp_separator` is memoized by
:func:`ratlin.rows_memo`, storing only answers that passed
:func:`_checked`.  The fuzz checks and the CLI ask the same instance for
its reversible set, lineality dimension and basis and certificate point
several times, so :func:`_deflation`, :func:`lineality_dim`,
:func:`lineality_space` and :func:`complementary_point` keep one answer
per vector set.  Each is a fact of the instance alone, and only an
answer that returned is stored, so one whose check raised never is.

All cones have apex at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Sequence

from . import lp
from .errors import TheoremContradiction
from .ratlin import (
    SubspaceBasis,
    Vec,
    VectorSet,
    int_row,
    int_row_over,
    kernel_basis,
    rank_of_rows,
    rows_memo,
    span_basis,
)

__all__ = [
    "FarkasCertificate",
    "HalfspaceSystem",
    "InfeasibleCone",
    "membership",
    "lineality_space",
    "lineality_dim",
    "reversible_indices",
    "is_linear",
    "complementary_point",
    "max_cone_dim",
    "relative_interior_point",
    "extract_cone",
    "verify_cone_generators",
    "lineality_of_polar",
]


@dataclass(frozen=True)
class FarkasCertificate:
    """Mutually exclusive proof for a membership query b in pos A.

    Either ``combination`` holds pairs (generator index, coefficient >= 0)
    with sum(coeff * generator) == b exactly, or ``separator`` holds a
    functional y with y.a <= 0 for every generator and y.b > 0.
    Both hold Fractions, which the benchmark reads (:func:`membership`).
    """

    combination: tuple[tuple[int, Fraction], ...] | None = None
    separator: Vec | None = None

    def __post_init__(self):
        if (self.combination is None) == (self.separator is None):
            raise ValueError("exactly one of combination/separator must be set")

    @property
    def is_member(self) -> bool:
        return self.combination is not None


@dataclass(frozen=True)
class HalfspaceSystem:
    """Finite system of homogeneous halfspaces {x : a.x <= 0}, one per
    outer normal.  Zero normals are rejected; duplicates are harmless."""

    normals: VectorSet

    def __post_init__(self):
        for i, r in enumerate(self.normals.int_rows):
            if not any(r):
                raise ValueError(f"zero outer normal at index {i}")

    @property
    def ambient_dim(self) -> int:
        return self.normals.ambient_dim

    def __len__(self) -> int:
        return len(self.normals)

    def subsystem(self, indices) -> "HalfspaceSystem":
        return HalfspaceSystem(self.normals.subset(indices))


def _certifies(rows: Sequence[Sequence[int]], t: Sequence[int],
               res: lp.LPResult) -> bool:
    """Whether res answers "t in pos(rows)?" for integer rows and t, by
    substitution: a yes is x >= 0 over den > 0 with
    sum_i x_i r_i = den t, a no is y with y.r <= 0 on every row and
    y.t > 0.  The one check of a pos certificate, for the LP's answers
    (:func:`_checked`) and for a report's under ``--verify``."""
    if res.status == lp.OPTIMAL:
        x = res.x
        residual = [res.den * tj for tj in t]
        for xi, r in zip(x, rows):
            if xi:
                residual = [a - xi * b for a, b in zip(residual, r)]
        return (len(x) == len(rows) and res.den > 0 and min(x, default=0) >= 0
                and not any(residual))
    y = res.farkas
    return (len(y) == len(t) and all(sum(map(mul, y, r)) <= 0 for r in rows)
            and sum(map(mul, y, t)) > 0)


def _checked(rows: Sequence[Sequence[int]], t: Sequence[int],
             res: lp.LPResult) -> lp.LPResult:
    """res, once :func:`_certifies` has passed it.  A failed check can only
    come from a solver bug and raises TheoremContradiction."""
    if not _certifies(rows, t, res):
        raise TheoremContradiction("pos certificate failed substitution")
    return res


def _sign_farkas(rest: Sequence[Sequence[int]], x: Sequence[int]) -> list[int] | None:
    """y = +-e_j for the first coordinate j with x_j != 0 on which no row
    of rest has the sign of x_j, or None: then y.x = |x_j| > 0 and
    y.r <= 0 on every row of rest, a Farkas certificate that x is not in
    pos(rest) read off signs.  A search only: :func:`_sign_certificate`
    checks what it finds."""
    for j, xj in enumerate(x):
        if xj and all(r[j] * xj <= 0 for r in rest):
            y = [0] * len(x)
            y[j] = 1 if xj > 0 else -1
            return y
    return None


def _sign_certificate(rows: Sequence[Sequence[int]], t: Sequence[int]) -> list[int] | None:
    """The sign certificate of :func:`_sign_farkas` that t is not in
    pos(rows), once :func:`_checked` has passed it, or None when signs
    settle nothing.  The one checked sign step, of a round of
    :func:`_deflation` and of the drop-one test :func:`_in_pos_of_rest`."""
    y = _sign_farkas(rows, t)
    if y is not None:
        _checked(rows, t, lp.LPResult(lp.INFEASIBLE, farkas=y))
    return y


def _checked_membership(rows: Sequence[Sequence[int]],
                        t: Sequence[int]) -> lp.LPResult:
    """The phase-1 LP's answer to "t in pos(rows)?", checked by
    :func:`_checked`: the one call behind :func:`membership`, the
    linearity certificate of :func:`_lp_separator` and the drop-one test
    :func:`_in_pos_of_rest`.  Empty rows and a zero target are answered like
    any other."""
    return _checked(rows, t, lp.nonneg_combination(rows, t))


def membership(b: Vec, gens: VectorSet) -> FarkasCertificate:
    """Decide b in pos(gens) and return a certificate either way.

    The LP runs on the generators' integer rows and the point times its
    integer scale c_b, and its answer is checked by
    :func:`_checked_membership`.
    Coefficient i is then x_i c_i / (den c_b), with c_i the scale of
    generator i, and the separator is y / den.  These stay Fractions, not
    integers over den, because the benchmark does arithmetic on them.
    """
    if len(b) != gens.ambient_dim:
        raise ValueError("query point has wrong dimension")
    rows = gens.int_rows
    cb, t = int_row(b)
    res = _checked_membership(rows, t)
    if res.status == lp.OPTIMAL:
        scale = res.den * cb
        return FarkasCertificate(combination=tuple(
            (i, Fraction(x * c, scale))
            for i, (x, c) in enumerate(zip(res.x, gens.int_scales)) if x))
    return FarkasCertificate(separator=tuple(Fraction(v, res.den) for v in res.farkas))


@rows_memo
def _lp_separator(rows: Sequence[Sequence[int]]) -> tuple[int, ...] | None:
    """None when pos(rows) is a linear subspace; otherwise an integer
    functional y with y.r <= 0 on every row and y.r < 0 on at least one.
    The one linearity test: :func:`is_linear`, the certificate of
    :func:`complementary_point`, the witness scan of :mod:`helly` and
    each deflation round that signs leave open ask it.

    pos S is linear iff sum_i lambda_i s_i = 0 for some lambda >= 1: such
    a combination makes every s_i reversible, and conversely, when every
    s_i is, adding up one zero-combination per i that gives s_i the
    coefficient 1 yields one.  So it is linear iff t = -sum_i s_i is in
    pos S: a checked x >= 0 with sum_i x_i s_i = den t gives lambda =
    den + x, and a checked Farkas vector is the y above, since y.t > 0
    makes y negative somewhere on S (Farkas; Schrijver, Theory of Linear
    and Integer Programming, 1986).  The empty set is linear, with no LP:
    pos of no rows is {0}, and the empty combination that certifies it
    has nothing to substitute, so no check is lost.

    Memoized by :func:`rows_memo`, whose key keeps the row order: the
    rows are the LP's columns and the Bland pivots follow their order.
    A failed check raises and leaves no entry."""
    if not rows:
        return None
    t = [-sum(col) for col in zip(*rows)]
    y = _checked_membership(rows, t).farkas
    return None if y is None else tuple(y)


def is_linear(rows: Sequence[Sequence[int]]) -> bool:
    """True iff pos(rows) is a linear subspace, for integer rows such as
    those of :attr:`VectorSet.int_rows`; decided by the checked
    certificate of :func:`_lp_separator`."""
    return _lp_separator(rows) is None


@lru_cache(maxsize=4096)
def _deflation(gens: VectorSet) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The reversible generators' indices and the separator of each
    deflation round, in order; the one memo behind
    :func:`reversible_indices` and :func:`relative_interior_point`.

    While the live generators are not linear, drop every one on which
    their separator y is negative.  None of those is reversible: a
    reversible s sits in a zero-sum combination s + sum_i mu_i s_i = 0 of
    reversible generators with mu >= 0, which are all live by induction,
    and y is <= 0 on every term, so y.s = 0.  Once the live set is
    linear, each of its generators is reversible in it, hence in gens.
    Each round drops at least one generator.

    A round reads y off signs where it can: the checked sign certificate
    +-e_j of t = -sum(live) (:func:`_sign_certificate`); else it asks
    :func:`_lp_separator`.  On a linear set the signs fail, as a
    zero-combination with every coefficient positive rules them out.
    The reversible set is unique whichever separators find it; of the
    linearity questions, only this one tries signs, because it is the
    one whose separator outlives it:
    :func:`complementary_point` folds the rounds' separators into x0, from
    which :func:`extract_cone` builds its generators.  Every other caller
    asks only whether pos is linear.  A pointed set's last round asks of
    the empty set, which :func:`_lp_separator` answers with no LP.
    """
    rows = gens.int_rows
    live = list(range(len(rows)))
    ys = []
    while True:
        s = [rows[i] for i in live]
        t = [-sum(col) for col in zip(*s)]
        y = _sign_certificate(s, t)
        if y is None and (y := _lp_separator(s)) is None:
            return tuple(live), tuple(ys)
        ys.append(tuple(y))
        live = [i for i in live if sum(map(mul, y, rows[i])) == 0]


def _in_pos_of_rest(rows: Sequence[Sequence[int]], i: int) -> bool:
    """Whether rows[i] lies in the positive hull of the other rows: the
    drop-one test of :mod:`posbasis`, as on a linear set rows[i] can be
    dropped with the positive hull kept exactly when it does.  A no is
    first sought in signs (:func:`_sign_certificate`), as in a deflation
    round; only where signs settle nothing is it one checked membership
    LP (Farkas; Schrijver, Theory of Linear and Integer Programming,
    1986).  A zero row has no nonzero coordinate, so it always goes to
    the LP, which puts it in pos(rest)."""
    rest, x = rows[:i] + rows[i + 1:], rows[i]
    return (_sign_certificate(rest, x) is None
            and _checked_membership(rest, x).status == lp.OPTIMAL)


def reversible_indices(gens: VectorSet) -> tuple[int, ...]:
    """Indices i with -gens[i] in pos(gens); these generators span the
    lineality space.  Found by the deflation of :func:`_deflation`."""
    return _deflation(gens)[0]


@lru_cache(maxsize=4096)
def lineality_space(gens: VectorSet) -> SubspaceBasis:
    """Largest linear subspace contained in pos(gens), as its canonical
    basis; callers that need only its dimension ask
    :func:`lineality_dim` instead.  Memoized per instance; the basis is
    stored only after its independence check.

    Computed as the span of the reversible generators; the invariant test
    suite certifies each output against the defining intersection
    pos A and -pos A, so the characterization is checked, not trusted.
    """
    rows = gens.int_rows
    return span_basis([rows[i] for i in reversible_indices(gens)], gens.ambient_dim)


@lru_cache(maxsize=4096)
def lineality_dim(gens: VectorSet) -> int:
    """Dimension of :func:`lineality_space`: the rank of the reversible
    generators' integer rows, which span it; builds no Fraction.
    Memoized per instance, for the Helly checks and witness scans."""
    rows = gens.int_rows
    return rank_of_rows([rows[i] for i in reversible_indices(gens)],
                        gens.ambient_dim)


def max_cone_dim(h: HalfspaceSystem) -> int:
    """Largest k such that the intersection of the halfspaces contains a
    k-dimensional cone: the codimension of the lineality space of the
    positive hull of the outer normals."""
    return h.ambient_dim - lineality_dim(h.normals)


@lru_cache(maxsize=4096)
def complementary_point(vs: VectorSet) -> tuple[int, ...]:
    """The certificate of the reversible set R = :func:`reversible_indices`
    of a generator or normal set: an integer point x0 with r.x0 = 0 on R
    and r.x0 < 0 off R, after checking that pos R is linear.

    The two sides are a strictly complementary pair (Goldman and Tucker,
    in Linear Inequalities and Related Systems, 1956).
    :func:`_lp_separator` answers None only on a checked positive
    zero-combination of R, the empty one when R is empty, so every vector
    of R is reversible and span R lies in the lineality space.  x0 is
    <= 0 on pos(vs) and < 0 on each vector off R, so none of those is
    reversible, and the lineality space is span R.  A zero generator lies
    in R and meets x0 at 0, and the zero point answers a set whose vectors
    are all reversible.  A failed check can only come from a fault in the
    deflation and raises TheoremContradiction.

    Folded from the separators y_1, y_2, ... of the deflation, in order:
    x <- M x + y_r, with M the least integer >= 1 such that
    M r.x + r.y_r < 0 wherever r.x < 0.  Before round r, r.x = 0 on the
    live vectors and r.x < 0 on the dropped ones; y_r keeps the first
    property for the vectors it leaves live and makes r.x < 0 on those it
    drops, and M keeps the second; x0 is the last x.  The arithmetic is on
    the integer rows, and after the deflation the linearity check is a
    memo hit.  Memoized per instance: a point is stored only after both
    checks have passed.
    """
    rows = vs.int_rows
    live, ys = _deflation(vs)
    if _lp_separator([rows[i] for i in live]) is not None:
        raise TheoremContradiction("reversible set has no positive zero-combination")
    x = [0] * vs.ambient_dim
    for y in ys:
        m = 1
        for r in rows:
            rx = sum(map(mul, r, x))
            if rx < 0:
                m = max(m, sum(map(mul, r, y)) // -rx + 1)
        x = [m * xi + yi for xi, yi in zip(x, y)]
    reversible = set(live)
    for i, r in enumerate(rows):
        s = sum(map(mul, r, x))
        if i in reversible:
            if s != 0:
                raise TheoremContradiction("a reversible vector is not orthogonal to x0")
        elif s >= 0:
            raise TheoremContradiction("a vector off the reversible set is not strict at x0")
    return tuple(x)


def relative_interior_point(h: HalfspaceSystem) -> Vec:
    """A point x0 with a.x0 = 0 for every implicit normal and a.x0 < 0
    strictly for every other normal, lying in the orthogonal complement of
    the lineality space of the normals.  The zero vector when every normal
    is implicit.

    The implicit normals, those with a.x = 0 on every feasible point, are
    the normals lying in the lineality space of pos(normals), and those
    are exactly the reversible normals: a and -a both lie in that
    subspace, and a reversible a has a and -a in pos(normals).  So x0 is
    the checked :func:`complementary_point` of the normals, as Fractions.
    Kept for the benchmark, which reads it; the library reads
    :func:`complementary_point`.
    """
    return tuple(map(Fraction, complementary_point(h.normals)))


def _check_k(k: int, d: int, lowest: int = 1) -> None:
    """The one range check of a dimension k in dimension d."""
    if not lowest <= k <= d:
        raise ValueError(f"k must lie in [{lowest}, {d}], got {k}")


@dataclass(frozen=True)
class InfeasibleCone:
    """Obstruction returned when no k-dimensional cone fits inside the
    intersection: the lineality dimension of the normals caps the cone
    dimension at ambient_dim - lineality_dim."""

    requested_k: int
    max_dim: int
    lineality_dim: int


def extract_cone(h: HalfspaceSystem, k: int) -> VectorSet | InfeasibleCone:
    """Explicit generators of a k-dimensional cone inside the intersection
    of the halfspaces, or the dimension obstruction if none exists.

    Construction: take the relative interior point x0, extend it (or start
    fresh when x0 = 0) to a basis u_1..u_k of the complement of the
    lineality space, and fatten x0 by a small rational step eps along each
    u_i chosen so every inequality still holds.  The generators are built
    as integer rows over a common denominator and stored as such; no
    Fraction is built.
    """
    d = h.ambient_dim
    _check_k(k, d, lowest=0)
    ldim = lineality_dim(h.normals)
    if k > d - ldim:
        return InfeasibleCone(requested_k=k, max_dim=d - ldim, lineality_dim=ldim)
    if k == 0:
        return VectorSet(d, ())
    rows = h.normals.int_rows
    implicit = reversible_indices(h.normals)
    complement = kernel_basis([rows[i] for i in implicit], d)
    x = complementary_point(h.normals)
    if not any(x):
        return complement.subset(range(k))
    # Basis of the complement that starts with the integer point x0,
    # extended greedily in the canonical complement order, as pairs (c, u)
    # of a vector's integer scale and its integer row u = c v.
    u = [(1, x)]
    for c, row in zip(complement.int_scales, complement.int_rows):
        if len(u) == k:
            break
        if rank_of_rows([r for _, r in u] + [row], d) > len(u):
            u.append((c, row))
    # On an integer normal row a with a.v > 0, a.(x0 + t v) <= 0 holds for
    # t up to -a.x0 / a.v = -a.x0 c / a.u.  The least such bound is kept
    # as a pair (num, den) with den > 0, and eps = p / q is half of it.
    bound: tuple[int, int] | None = None
    for i, a in enumerate(rows):
        if i in implicit:
            continue
        ax0 = sum(map(mul, a, x))
        for c, row in u:
            au = sum(map(mul, a, row))
            if au > 0 and (bound is None or -ax0 * c * bound[1] < bound[0] * au):
                bound = (-ax0 * c, au)
    p, q = (1, 1) if bound is None else (bound[0], 2 * bound[1])
    # x0 + eps u / c = (q c x0 + p u) / (q c).
    gens = [(1, x)] + [int_row_over([q * c * xi + p * r for xi, r in zip(x, row)], q * c)
                       for c, row in u]
    return VectorSet.from_int_form(d, (g for g in gens if any(g[1])))


def verify_cone_generators(h: HalfspaceSystem, gens: VectorSet, k: int) -> bool:
    """Independent check of an extract_cone answer: the generators span
    exactly k dimensions and satisfy every inequality exactly.  Both are
    read off integer rows, whose positive scales keep every rank and
    sign."""
    grows = gens.int_rows
    if rank_of_rows(grows, gens.ambient_dim) != k:
        return False
    return all(sum(map(mul, a, g)) <= 0 for a in h.normals.int_rows for g in grows)


def lineality_of_polar(h: HalfspaceSystem) -> SubspaceBasis:
    """Largest subspace contained in the intersection of the halfspaces:
    the kernel of the normal matrix, {x : a.x = 0 for all normals a}."""
    return kernel_basis(h.normals.int_rows, h.ambient_dim)
