"""Exact rational linear algebra.

Everything in this package reduces to rank and kernel questions over the
rationals, so this module is deliberately boring: dense Gauss-Jordan
elimination.  Vectors and results are tuples of ``fractions.Fraction``;
inside, each row is scaled to integers and eliminated fraction-free in
the manner of Bareiss (Math. Comp. 22, 1968), so the arithmetic is on
Python ints and every division is exact.  No floating point appears
anywhere; rank and dimension decisions are therefore exact, which is
what makes the Helly checkers in the rest of the package trustworthy.

Vectors are plain tuples of Fractions.  Matrices and subspaces get small
frozen dataclasses so they can be hashed and memoized.

:func:`int_row`, a vector times the lcm of its denominators, is the one
Fraction-to-integer converter.  A positive scale changes no rank, rref or
positive hull, so a :class:`VectorSet` converts its vectors once and the
cone, positive-basis and Helly code computes on those integer rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]


def vec(coords: Iterable) -> Vec:
    """Coerce an iterable of ints / Fractions / 'p/q' strings to a vector."""
    return tuple(Fraction(c) for c in coords)


def zero_vec(d: int) -> Vec:
    return (Fraction(0),) * d


def unit_vec(i: int, d: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(d))


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c: Fraction, u: Vec) -> Vec:
    return tuple(c * a for a in u)


def vneg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def is_zero(u: Vec) -> bool:
    return all(a == 0 for a in u)


@dataclass(frozen=True)
class RationalMatrix:
    """Rectangular matrix of Fractions; ``ncols`` is kept explicitly so the
    zero-row matrix still knows its width."""

    rows: tuple[Vec, ...]
    ncols: int

    def __post_init__(self):
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged matrix")


@dataclass(frozen=True)
class VectorSet:
    """Finite ordered list of vectors in a common ambient dimension.

    Used both for cone generators and for the outer normals of a
    homogeneous halfspace system.  Duplicates are permitted; zero vectors
    are permitted here but rejected by
    :class:`conehelly.cone.HalfspaceSystem`.  The integer form is a cache
    outside the dataclass fields, so equality, hashing and memo keys see
    the vectors only.
    """

    ambient_dim: int
    vectors: tuple[Vec, ...]

    def __post_init__(self):
        for v in self.vectors:
            if len(v) != self.ambient_dim:
                raise ValueError(
                    f"vector of length {len(v)} in ambient dimension {self.ambient_dim}")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable], ambient_dim: int) -> "VectorSet":
        return cls(ambient_dim, tuple(vec(r) for r in rows))

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def __getitem__(self, i: int) -> Vec:
        return self.vectors[i]

    def subset(self, indices: Iterable[int]) -> "VectorSet":
        return VectorSet(self.ambient_dim, tuple(self.vectors[i] for i in indices))

    @cached_property
    def _int_form(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        pairs = [int_row(v) for v in self.vectors]
        return tuple(c for c, _ in pairs), tuple(r for _, r in pairs)

    @property
    def int_scales(self) -> tuple[int, ...]:
        """Per vector, the lcm of its denominators."""
        return self._int_form[0]

    @property
    def int_rows(self) -> tuple[tuple[int, ...], ...]:
        """Each vector times its integer scale, converted once per instance:
        the same ranks and positive hulls, in integers."""
        return self._int_form[1]


@dataclass(frozen=True)
class SubspaceBasis:
    """Linear subspace given by a basis; the empty basis is the zero
    subspace, a first-class value here rather than an error."""

    ambient_dim: int
    basis: tuple[Vec, ...]

    def __post_init__(self):
        for v in self.basis:
            if len(v) != self.ambient_dim:
                raise ValueError("basis vector of wrong length")
        if rank_of_rows(self.basis, self.ambient_dim) != len(self.basis):
            raise ValueError("basis vectors are linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Vec) -> bool:
        """Exact membership of a vector in the spanned subspace."""
        if len(v) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        if is_zero(v):
            return True
        return rank_of_rows([*self.basis, v], self.ambient_dim) == self.dim


def int_row(v: Sequence) -> tuple[int, tuple[int, ...]]:
    """(c, c v) for c the lcm of the denominators of v: the least positive
    multiple of v with integer entries."""
    c = lcm(*(x.denominator for x in v))
    if c == 1:
        return 1, tuple(x.numerator for x in v)
    return c, tuple(x.numerator * (c // x.denominator) for x in v)


def _int_matrix(rows: Iterable[Sequence]) -> list[Sequence[int]]:
    """The rows as integer rows: integer rows as they are, the others
    through :func:`int_row`.  Same row space, same rref."""
    return [r if all(type(x) is int for x in r) else int_row(r)[1] for r in rows]


def rref_rows(rows: Sequence[Sequence],
              ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and its pivot columns, by fraction-free
    Gauss-Jordan on the integer-scaled rows.

    Pivot selection is the first nonzero entry scanning rows top-down, so
    the computation (not just the canonical result) is deterministic.
    Each step replaces every other row by (p * row - f * pivot row) / prev,
    where p is the new pivot and prev the one before it.  Every entry then
    stays a minor of the scaled matrix, so the division is exact, and
    every pivot row ends up holding the last pivot, which divides out into
    the Fraction result.  Rows past the rank come back as zero rows.
    """
    m = _int_matrix(rows)
    nrows = len(m)
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(nrows):
            if i != r:
                row = m[i]
                f = row[c]
                if f:
                    m[i] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
                elif p != prev:
                    m[i] = [p * a // prev for a in row]
        prev = p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = [[Fraction(a, prev) for a in m[i]] for i in range(r)]
    out += [[Fraction(0)] * ncols for _ in range(nrows - r)]
    return out, pivots


def rank_of_rows(rows: Sequence[Sequence], ncols: int) -> int:
    """Rank of rational or integer rows by forward-only Bareiss
    elimination; builds no Fraction."""
    m = _int_matrix(rows)
    nrows = len(m)
    prev = 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(r + 1, nrows):
            row = m[i]
            f = row[c]
            m[i] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
        prev = p
        r += 1
        if r == nrows:
            break
    return r


def span_basis(s: VectorSet) -> SubspaceBasis:
    """Canonical basis of the linear span: the nonzero rows of the rref."""
    rows, pivots = rref_rows(s.vectors, s.ambient_dim)
    basis = tuple(tuple(rows[i]) for i in range(len(pivots)))
    return SubspaceBasis(s.ambient_dim, basis)


def kernel_basis(m: RationalMatrix) -> SubspaceBasis:
    """Canonical basis of ``{x : m x = 0}``; dimension is ncols - rank."""
    rows, pivots = rref_rows(m.rows, m.ncols)
    pivot_set = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * m.ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -rows[i][f]
        basis.append(tuple(v))
    return SubspaceBasis(m.ncols, tuple(basis))


def orth_complement(s: SubspaceBasis) -> SubspaceBasis:
    """Orthogonal complement within the ambient space."""
    m = RationalMatrix(s.basis, s.ambient_dim)
    return kernel_basis(m)


def project_onto_complement(s: SubspaceBasis, v: Vec) -> Vec:
    """Orthogonal projection of ``v`` onto the orthogonal complement of ``s``:
    ``v`` minus sum_j c_j b_j, where c solves the Gram system
    (b_i . b_j) c = (b_i . v), nonsingular as the b_j are a basis."""
    if len(v) != s.ambient_dim:
        raise ValueError("dimension mismatch")
    gram = [[dot(bi, bj) for bj in s.basis] + [dot(bi, v)] for bi in s.basis]
    red, _ = rref_rows(gram, s.dim + 1)
    out = tuple(v)
    for row, b in zip(red, s.basis):
        out = vsub(out, vscale(row[-1], b))
    return out
