"""Independent checks of conehelly answers.

Nothing here trusts conehelly's own arithmetic:

* ranks are computed by sympy, never by ``conehelly.ratlin``;
* every membership certificate the program hands out (a nonnegative
  combination or a separating functional) is re-checked by plain
  substitution, so a lineality dimension built from certificates is
  proven, whoever produced them;
* the Helly numbers come from the paper's formulas, written out below.

Each check returns a list of problems; an empty list means the answer
holds.
"""

from __future__ import annotations

from fractions import Fraction


def bound_m(k: int, d: int) -> int:
    """Helly number for k-dimensional cones in R^d: max(d+1, 2(d-k+1))."""
    return max(d + 1, 2 * (d - k + 1))


def bound_h(k: int, d: int) -> int:
    """Helly number for lineality dimension at most k: max(d+1, 2(k+1))."""
    return max(d + 1, 2 * (k + 1))


def _sym(rows):
    import sympy  # imported on first use, after peak memory is read

    return sympy.Matrix([[sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
                          for c in row] for row in rows])


def rank(rows) -> int:
    rows = [tuple(r) for r in rows]
    return _sym(rows).rank() if rows else 0


def all_feasible(normals, points, strict=()) -> bool:
    """Every point satisfies a.x <= 0 for every normal a, and a.x < 0 for
    the normals whose indices are in ``strict``."""
    if not normals or not points:
        return True
    products = _sym(normals) * _sym(points).T
    strict = set(strict)
    for i in range(products.rows):
        for j in range(products.cols):
            value = products[i, j]
            if value > 0 or (i in strict and value == 0):
                return False
    return True


def dot(u, v) -> Fraction:
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def substitutes(combination, gens, point) -> bool:
    """(index, coefficient) pairs are nonnegative and reproduce ``point``."""
    total = [Fraction(0)] * len(point)
    for i, c in combination:
        c = Fraction(c)
        if c < 0 or not 0 <= i < len(gens):
            return False
        total = [t + c * Fraction(g) for t, g in zip(total, gens[i])]
    return total == [Fraction(p) for p in point]


def separates(y, gens, point) -> bool:
    """y.a <= 0 for every generator a and y.point > 0."""
    return all(dot(y, a) <= 0 for a in gens) and dot(y, point) > 0


class CertificateError(Exception):
    """A membership certificate from the program failed substitution."""


class Lineality:
    """Lineality spaces of positive hulls from checked certificates.

    Generator v is reversible (lies in the lineality space) exactly when
    -v is in pos A; the lineality space is the span of the reversible
    generators.  ``membership(point, rows)`` asks the program and returns
    ``("combination", pairs)`` or ``("separator", y)``; both kinds are
    re-checked here, so a wrong program answer raises CertificateError
    instead of giving a wrong dimension.
    """

    def __init__(self, membership):
        self._membership = membership
        self._memo: dict = {}

    def certify(self, point, rows) -> bool:
        kind, cert = self._membership(point, rows)
        ok = (substitutes(cert, rows, point) if kind == "combination"
              else separates(cert, rows, point))
        if not ok:
            raise CertificateError(f"{kind} certificate failed substitution")
        return kind == "combination"

    def reversible(self, rows) -> tuple[int, ...]:
        rows = tuple(tuple(Fraction(c) for c in r) for r in rows)
        if rows not in self._memo:
            # -(sum of all) in pos A gives a zero combination with every
            # coefficient >= 1, so one certificate covers a set that is
            # entirely reversible (every witness the checkers produce).
            minus_sum = tuple(-sum(col) for col in zip(*rows))
            if rows and self.certify(minus_sum, rows):
                self._memo[rows] = tuple(range(len(rows)))
            else:
                self._memo[rows] = tuple(
                    i for i, v in enumerate(rows)
                    if self.certify(tuple(-c for c in v), rows))
        return self._memo[rows]

    def dim(self, rows) -> int:
        rows = [tuple(r) for r in rows]
        return rank([rows[i] for i in self.reversible(rows)])

    def implicit(self, rows) -> set[int]:
        """Indices of vectors lying in the lineality space."""
        rev = [rows[i] for i in self.reversible(rows)]
        r = rank(rev)
        return {i for i, v in enumerate(rows) if rank(rev + [v]) == r}


def witness_problems(where: str, ids, n: int, size_bound: int) -> list[str]:
    ids = list(ids)
    if len(set(ids)) != len(ids) or not all(0 <= i < n for i in ids):
        return [f"{where}: witness indices {ids} invalid"]
    if len(ids) > size_bound:
        return [f"{where}: witness of size {len(ids)} exceeds bound {size_bound}"]
    return []


def lineality_witness_problems(lin: Lineality, where: str, rows, ids,
                               threshold: int, size_bound: int) -> list[str]:
    """A witness is a subset whose lineality dimension exceeds threshold,
    of size at most size_bound."""
    problems = witness_problems(where, ids, len(rows), size_bound)
    if not problems and lin.dim([rows[i] for i in ids]) <= threshold:
        problems.append(f"{where}: witness lineality does not exceed {threshold}")
    return problems


def positive_basis_problems(lin: Lineality, where: str, elements,
                            target_dim: int) -> list[str]:
    """pos(elements) is a subspace of dimension target_dim and no element
    can be dropped."""
    elements = [tuple(v) for v in elements]
    r = rank(elements)
    if r != target_dim or lin.dim(elements) != r:
        return [f"{where}: elements do not positively span a {target_dim}-space"]
    for i in range(len(elements)):
        rest = elements[:i] + elements[i + 1:]
        if lin.dim(rest) == target_dim:
            return [f"{where}: element {i} can be dropped"]
    return []


def reay_problems(lin: Lineality, where: str, parts) -> list[str]:
    """Reay invariants: sizes >= 2 and nonincreasing, and every prefix
    union B_j a positive basis of its span, of dimension |B_j| - j."""
    sizes = [len(p) for p in parts]
    if any(s < 2 for s in sizes) or sizes != sorted(sizes, reverse=True):
        return [f"{where}: part sizes {sizes} invalid"]
    prefix: list = []
    for j, part in enumerate(parts, start=1):
        prefix += [tuple(v) for v in part]
        problems = positive_basis_problems(lin, f"{where} prefix {j}", prefix,
                                           len(prefix) - j)
        if problems:
            return problems
    return []
