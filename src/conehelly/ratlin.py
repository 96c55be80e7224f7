"""Exact rational linear algebra.

Everything in this package reduces to rank and kernel questions over the
rationals, so this module is deliberately boring: dense Gauss-Jordan
elimination.  Vectors at the interface are integer rows: a
:class:`VectorSet` holds each vector v as its scale c, the lcm of its
denominators, and the integer row c v.  :func:`int_row` is the one
Fraction-to-integer converter, and :func:`int_row_over` gives the same
pair for integer numerators over a common denominator, with no Fraction.
A positive scale changes no rank, rref or positive hull, so the cone,
positive-basis and Helly code computes on integer rows.  Elimination is
fraction-free in the manner of Bareiss (Math. Comp. 22, 1968), so the
arithmetic is on Python ints and every division is exact.  No floating
point appears anywhere; rank and dimension decisions are therefore
exact, which is what makes the Helly checkers in the rest of the package
trustworthy.

Vector sets are small frozen dataclasses, so they can be hashed and
memoized; equality and hashing read the integer rows and their scales.
A vector may be given as ints and Fractions (:func:`vec` reads 'p/q'
strings too), and a vector set's Fractions are a view built only on
request, for output.  A :class:`SubspaceBasis` is a vector set of
independent vectors, so subspace bases store integer rows too, and their
Fraction basis is the same view.

Integer rows are the one format that reaches elimination, and one
pivot step, :func:`_pivot`, does every integer-preserving row update,
here and in the simplex of :mod:`conehelly.lp`.  :func:`rank_of_rows`,
for callers that need only the dimension of a span, builds no Fraction.
Callers that need the subspace itself go through :func:`span_basis` and
:func:`kernel_basis`, which read each basis vector of one Gauss-Jordan
pass straight into its integer row, and build no Fraction either.

The Helly searches ask the rank of the same rows many times over, so
:func:`rank_of_rows` is memoized by :func:`rows_memo`, whose docstring
states the policy.  A rank is a fact of the rows alone, so a stored
answer is the one a fresh elimination would give.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, wraps
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]


def vec(coords: Iterable) -> Vec:
    """Coerce an iterable of ints / Fractions / 'p/q' strings to a vector."""
    return tuple(Fraction(c) for c in coords)


def is_index_set(ids, n: int) -> bool:
    """ids is a strictly increasing list or tuple of int indices into n
    items: the one test of every certificate that names a subset."""
    return (isinstance(ids, (list, tuple)) and all(type(i) is int for i in ids)
            and list(ids) == sorted(set(ids)) and all(0 <= i < n for i in ids))


@dataclass(frozen=True, init=False)
class VectorSet:
    """Finite ordered list of vectors in a common ambient dimension.

    Used both for cone generators and for the outer normals of a
    homogeneous halfspace system.  Duplicates are permitted; zero vectors
    are permitted here but rejected by
    :class:`conehelly.cone.HalfspaceSystem`.

    A vector set stores its integer form: per vector, its :func:`int_row`
    (c, c v).  Equality, hashing and memo keys read that form, which
    determines the vectors.  :attr:`vectors`, iteration and indexing are a
    Fraction view, built on first request; :meth:`subset` slices the
    integer form and builds no Fraction.  The hash is a cache outside the
    dataclass fields, so a memo lookup does not rehash every coordinate.
    """

    ambient_dim: int
    int_scales: tuple[int, ...]  # per vector, the lcm of its denominators
    int_rows: tuple[tuple[int, ...], ...]  # each vector times its scale

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence]):
        """vectors are sequences of ints and Fractions, each of length
        ambient_dim."""
        pairs = []
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}")
            pairs.append(int_row(v))
        self._set(ambient_dim, tuple(c for c, _ in pairs), tuple(r for _, r in pairs))

    def _set(self, ambient_dim: int, scales: tuple[int, ...],
             rows: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "int_scales", scales)
        object.__setattr__(self, "int_rows", rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable], ambient_dim: int) -> "VectorSet":
        return cls(ambient_dim, tuple(vec(r) for r in rows))

    @classmethod
    def from_int_form(cls, ambient_dim: int, pairs: Iterable[tuple[int, tuple[int, ...]]]):
        """The vectors row / c for pairs (c, row), each as :func:`int_row`
        or :func:`int_row_over` gives it; builds no Fraction."""
        pairs = tuple(pairs)
        obj = object.__new__(cls)
        obj._set(ambient_dim, tuple(c for c, _ in pairs), tuple(r for _, r in pairs))
        return obj

    def __len__(self) -> int:
        return len(self.int_rows)

    def __iter__(self):
        """The Fraction view, in order; kept for the benchmark, which reads it."""
        return iter(self.vectors)

    def __getitem__(self, i: int) -> Vec:
        return self.vectors[i]

    def subset(self, indices: Iterable[int]) -> "VectorSet":
        indices = tuple(indices)
        sub = object.__new__(VectorSet)
        sub._set(self.ambient_dim, tuple(self.int_scales[i] for i in indices),
                 tuple(self.int_rows[i] for i in indices))
        return sub

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.ambient_dim, self.int_scales, self.int_rows))

    @cached_property
    def vectors(self) -> tuple[Vec, ...]:
        """The vectors as Fraction tuples, each integer row over its scale."""
        return tuple(tuple(map(Fraction, r)) if c == 1
                     else tuple(Fraction(a, c) for a in r)
                     for c, r in zip(self.int_scales, self.int_rows))


class SubspaceBasis(VectorSet):
    """Linear subspace given by a basis: a vector set of linearly
    independent vectors, stored as its integer form like any vector set.
    :attr:`basis` is the Fraction view, for output.  The empty basis is the
    zero subspace, a first-class value here rather than an error.  Every
    construction, from Fraction vectors or from integer pairs, checks
    independence by the rank of the integer rows."""

    def _set(self, ambient_dim: int, scales: tuple[int, ...],
             rows: tuple[tuple[int, ...], ...]) -> None:
        super()._set(ambient_dim, scales, rows)
        if rank_of_rows(rows, ambient_dim) != len(rows):
            raise ValueError("basis vectors are linearly dependent")

    @property
    def basis(self) -> tuple[Vec, ...]:
        """The Fraction view; kept for the benchmark, which reads it."""
        return self.vectors

    @property
    def dim(self) -> int:
        return len(self.int_rows)


def int_row(v: Sequence) -> tuple[int, tuple[int, ...]]:
    """(c, c v) for c the lcm of the denominators of v: the least positive
    multiple of v with integer entries."""
    c = lcm(*(x.denominator for x in v))
    if c == 1:
        return 1, tuple(x.numerator for x in v)
    return c, tuple(x.numerator * (c // x.denominator) for x in v)


def int_row_over(nums: Sequence[int], den: int) -> tuple[int, tuple[int, ...]]:
    """:func:`int_row` of the vector nums / den, for integer numerators and
    a nonzero integer den, with no Fraction: c = |den| / g and
    c v = nums / g, signed as den, for g the gcd of den and the nums."""
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    return den // g, tuple(a // g for a in nums)


def _pivot(m: list[Sequence[int]], r: int, c: int, prev: int,
           exchange: bool = False) -> int:
    """One integer-preserving pivot step (Edmonds, J. Res. NBS 71B, 1967)
    on (r, c) of the rows m, which hold a rational matrix times prev;
    returns the new common factor, the pivot entry p.

    The pivot row keeps its integers; every other row becomes
    (p * row - f * pivot row) / prev, f its entry in column c.  Every
    entry then stays a minor of the matrix, so the division is exact.
    Column c becomes p e_r, as Gauss-Jordan needs.  With exchange it
    becomes what the step makes of the unit column prev e_r instead:
    prev in row r and -f elsewhere.  That is the Jordan exchange of the
    condensed simplex tableau of :mod:`conehelly.lp` (Tucker, Proc. Symp.
    Appl. Math. 10, 1960), where the leaving variable takes over the
    entering one's column; row r must then be a list.
    """
    prow = m[r]
    p = prow[c]
    for i, row in enumerate(m):
        if i != r:
            f = row[c]
            if f:
                new = [(p * a - f * b) // prev for a, b in zip(row, prow)]
                if exchange:
                    new[c] = -f
                m[i] = new
            elif p != prev:
                m[i] = [p * a // prev for a in row]
    if exchange:
        prow[c] = prev
    return p


def _gauss_jordan(m: list[Sequence[int]],
                  ncols: int) -> tuple[list[Sequence[int]], list[int], int]:
    """Fraction-free Gauss-Jordan on integer rows, in place: returns the
    rows, the pivot columns and the last pivot, which the rows hold times
    their reduced row echelon form; every pivot row ends up holding the
    last pivot.

    Pivot selection is the first nonzero entry scanning rows top-down, so
    the computation (not just the canonical result) is deterministic.
    """
    nrows = len(m)
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prev = _pivot(m, r, c, prev)
        pivots.append(c)
    return m, pivots, prev


ROWS_MEMO_SIZE = 4096


def rows_memo(fn):
    """Memoize a function of integer rows on the exact rows, in order.

    The one statement of the memo policy of :func:`rank_of_rows` and
    ``cone._lp_separator``.  The key is the rows as a tuple of row tuples
    plus any further (hashable) arguments, so a list and a tuple of the
    same rows share one entry.  The key is never sorted: an answer may
    depend on the row order (an LP certificate does).  At most
    ``ROWS_MEMO_SIZE`` entries are kept, least recently used out first.
    An exception is not stored, so only answers that returned are.  The
    wrapper keeps ``cache_info()`` (hits and misses) and
    ``cache_clear()``, and ``__wrapped__`` is the uncached function.
    """
    cached = lru_cache(maxsize=ROWS_MEMO_SIZE)(fn)

    @wraps(fn)
    def memo(rows, *args):
        return cached(tuple(map(tuple, rows)), *args)

    memo.cache_info = cached.cache_info
    memo.cache_clear = cached.cache_clear
    return memo


@rows_memo
def rank_of_rows(rows: Sequence[Sequence[int]], ncols: int) -> int:
    """Rank of integer rows, such as :attr:`VectorSet.int_rows`, by
    forward-only Bareiss elimination; builds no Fraction.  The exact
    divisions are floor divisions, so rows must hold ints: a non-integer
    Fraction would floor silently.  Memoized by :func:`rows_memo`.

    It keeps its own forward-only loop rather than count the pivots of
    :func:`_gauss_jordan`: on the ranks a Helly search asks, the hottest
    kernel of the package, that takes about a quarter less time."""
    m = list(rows)
    nrows = len(m)
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(r + 1, nrows):
            row = m[i]
            f = row[c]
            if f or p != prev:  # else the update would leave the row as is
                m[i] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
        prev = p
        r += 1
    return r


def span_basis(rows: Sequence[Sequence[int]], ncols: int) -> SubspaceBasis:
    """Canonical basis of the linear span of integer rows: the nonzero
    rows of their reduced row echelon form, each read off as its integer
    row over the last pivot."""
    m, pivots, prev = _gauss_jordan(list(rows), ncols)
    return SubspaceBasis.from_int_form(
        ncols, (int_row_over(m[i], prev) for i in range(len(pivots))))


def kernel_basis(rows: Sequence[Sequence[int]], ncols: int) -> SubspaceBasis:
    """Canonical basis of ``{x : r.x = 0 for every integer row r}``, one
    vector per free column of the rref; dimension is ncols - rank.  The
    rref depends only on the row space, so any rows spanning it give the
    same basis.  The vector of free column f is e_f minus the rref's
    column f on the pivots, whose numerators over the last pivot are
    read off the rows directly."""
    m, pivots, prev = _gauss_jordan(list(rows), ncols)
    pairs = []
    for f in (c for c in range(ncols) if c not in pivots):
        nums = [0] * ncols
        nums[f] = prev
        for i, p in enumerate(pivots):
            nums[p] = -m[i][f]
        pairs.append(int_row_over(nums, prev))
    return SubspaceBasis.from_int_form(ncols, pairs)
