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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

Q = Fraction
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

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable], ncols: int | None = None) -> "RationalMatrix":
        rs = tuple(vec(r) for r in rows)
        if ncols is None:
            if not rs:
                raise ValueError("ncols required for an empty matrix")
            ncols = len(rs[0])
        return cls(rs, ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def transpose(self) -> "RationalMatrix":
        cols = tuple(tuple(row[j] for row in self.rows) for j in range(self.ncols))
        return RationalMatrix(cols, self.nrows)


@dataclass(frozen=True)
class VectorSet:
    """Finite ordered list of vectors in a common ambient dimension.

    Used both for cone generators and for the outer normals of a
    homogeneous halfspace system.  Duplicates are permitted (callers that
    care can ask for them); zero vectors are permitted here but rejected
    by :class:`conehelly.cone.HalfspaceSystem`.
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

    def matrix(self) -> RationalMatrix:
        return RationalMatrix(self.vectors, self.ambient_dim)

    def duplicate_indices(self) -> list[int]:
        """Indices of vectors that already occurred earlier in the list."""
        seen: set[Vec] = set()
        dups = []
        for i, v in enumerate(self.vectors):
            if v in seen:
                dups.append(i)
            seen.add(v)
        return dups


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


def _int_rows(rows: Iterable[Sequence]) -> list[list[int]]:
    """Each row times the lcm of its denominators: the same row space, and
    the same rref, in integers."""
    out = []
    for r in rows:
        den = lcm(*(x.denominator for x in r))
        if den == 1:
            out.append([x.numerator for x in r])
        else:
            out.append([x.numerator * (den // x.denominator) for x in r])
    return out


def rref_rows(rows: Sequence[Sequence[Fraction]],
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
    m = _int_rows(rows)
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


def rank_of_rows(rows: Sequence[Sequence[Fraction]], ncols: int) -> int:
    """Rank by forward-only Bareiss elimination; builds no Fraction."""
    m = _int_rows(rows)
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


def rref(m: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row echelon form of ``m`` and its pivot column indices."""
    rows, pivots = rref_rows(m.rows, m.ncols)
    return RationalMatrix(tuple(tuple(r) for r in rows), m.ncols), tuple(pivots)


def rank(m: RationalMatrix) -> int:
    return len(rref(m)[1])


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


def solve_square(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve a nonsingular square system exactly (used for Gram systems)."""
    n = len(rows)
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    red, pivots = rref_rows(aug, n + 1)
    if len(pivots) != n or any(p >= n for p in pivots):
        raise ValueError("singular system")
    return [red[i][n] for i in range(n)]


def project_onto_subspace(s: SubspaceBasis, v: Vec) -> Vec:
    """Orthogonal projection of ``v`` onto the subspace spanned by ``s``."""
    if len(v) != s.ambient_dim:
        raise ValueError("dimension mismatch")
    if s.dim == 0:
        return zero_vec(s.ambient_dim)
    gram = [[dot(bi, bj) for bj in s.basis] for bi in s.basis]
    rhs = [dot(bi, v) for bi in s.basis]
    coeffs = solve_square(gram, rhs)
    out = zero_vec(s.ambient_dim)
    for c, b in zip(coeffs, s.basis):
        out = vadd(out, vscale(c, b))
    return out


def project_onto_complement(s: SubspaceBasis, v: Vec) -> Vec:
    """Orthogonal projection of ``v`` onto the orthogonal complement of ``s``.

    Computed as ``v`` minus its projection onto ``s`` via the rational Gram
    system, so the result is exact.
    """
    return vsub(v, project_onto_subspace(s, v))
