"""Exact two-phase simplex over the rationals.

Standard form: minimize c.x subject to A x = b, x >= 0.  Bland's rule
(smallest eligible index enters, smallest basic variable leaves on ratio
ties) guarantees termination, and the arithmetic is exact, so the
outcome is a decision, not an estimate.  The tableau is kept as integers
over one positive common denominator and pivoted integer-preservingly
(Edmonds, J. Res. NBS 71B, 1967): every division is exact and every sign
and ratio test reads the same as on the rational tableau, so the pivots
are the same.

:func:`solve_standard_form` takes and returns Fractions.  Its phase 1
serves :func:`nonneg_combination`, which takes integer columns; positive
column and rhs scales change no Bland pivot (each scales a column's
reduced costs, or a ratio test's ratios, alike).

When the system is infeasible the phase-1 multipliers give a Farkas
vector y with y.A <= 0 componentwise and y.b > 0; callers turn that into
separating-functional certificates.  Problems here are desk scale (tens
of rows and columns), so the dense tableau is the right tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

_ZERO = Fraction(0)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    x: list | None = None
    objective: Fraction | None = None
    farkas: list | None = None  # infeasible case: y.A <= 0, y.b > 0
    den: int = 1  # nonneg_combination: x and farkas are integers over den


def _pivot(tab: list[list[int]], basis: list[int], den: int, r: int, c: int) -> int:
    """Pivot the rational tableau tab/den on (r, c) and return its new
    denominator, the pivot entry made positive.

    The pivot row keeps its integers; every other row becomes
    (p * row - f * pivot row) / den, an exact division.  A negative pivot
    negates the pivot row first, which negates the whole new tableau over
    a positive denominator and leaves the fractions unchanged.
    """
    prow = tab[r]
    p = prow[c]
    if p < 0:
        prow = tab[r] = [-v for v in prow]
        p = -p
    for i, row in enumerate(tab):
        if i != r:
            f = row[c]
            if f:
                tab[i] = [(p * a - f * b) // den for a, b in zip(row, prow)]
            elif p != den:
                tab[i] = [p * a // den for a in row]
    basis[r] = c
    return p


def _run_simplex(tab: list[list[int]], basis: list[int], ncols: int,
                 den: int) -> tuple[str, int]:
    """Iterate Bland pivots on a tableau tab/den whose last row is the
    reduced-cost row and last column the rhs.  Returns OPTIMAL or
    UNBOUNDED and the final denominator.  As den > 0, signs are read off
    the integers, and ratios rhs/entry are compared by cross-multiplying."""
    m = len(tab) - 1
    while True:
        cost = tab[m]
        enter = next((j for j in range(ncols) if cost[j] < 0), -1)
        if enter < 0:
            return OPTIMAL, den
        leave = -1
        best_num = best_den = 0
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                num = tab[i][ncols]
                if leave < 0:
                    better = True
                else:
                    lhs, rhs = num * best_den, best_num * a
                    better = lhs < rhs or (lhs == rhs and basis[i] < basis[leave])
                if better:
                    leave, best_num, best_den = i, num, a
        if leave < 0:
            return UNBOUNDED, den
        den = _pivot(tab, basis, den, leave, enter)


def _scaled(values, scale: int) -> list[int]:
    """scale * values as ints; scale is a multiple of every denominator."""
    return [v.numerator * (scale // v.denominator) for v in values]


def _phase1(a: list[list[int]], b: list[int], n: int):
    """Phase 1 for a x = b, x >= 0 on integer data: flip rows so the rhs
    is nonnegative, then minimize the sum of artificials from the
    artificial basis.  Returns the tableau (last row the reduced costs,
    last column the rhs), its basis and denominator, and, when the system
    is infeasible, den times the Farkas vector: the simplex multipliers
    off the artificial columns, y_i = 1 - redcost_i, row flips undone."""
    m = len(a)
    sign = [-1 if b[i] < 0 else 1 for i in range(m)]
    tab = [[sign[i] * v for v in a[i]] + [1 if j == i else 0 for j in range(m)]
           + [sign[i] * b[i]] for i in range(m)]
    ncols = n + m
    basis = [n + i for i in range(m)]
    cost = [-sum(row[j] for row in tab) for j in range(ncols + 1)]
    for i in range(m):
        cost[n + i] = 0
    tab.append(cost)
    status, den = _run_simplex(tab, basis, ncols, 1)
    assert status == OPTIMAL  # phase 1 is bounded below by 0
    farkas = None
    if tab[m][ncols] < 0:
        farkas = [sign[i] * (den - tab[m][n + i]) for i in range(m)]
    return tab, basis, den, farkas


def solve_standard_form(
    a: list[list[Fraction]],
    b: list[Fraction],
    c: list[Fraction],
) -> LPResult:
    """Minimize c.x subject to a x = b, x >= 0, all data rational."""
    m = len(a)
    n = len(c)
    for row in a:
        if len(row) != n:
            raise ValueError("constraint row of wrong length")
    if len(b) != m:
        raise ValueError("rhs of wrong length")

    # One integer scale for all structural columns and the rhs keeps every
    # sign and ratio test of the rational tableau; scaling rows apart
    # would change the phase-1 cost row and so Bland's choices.
    scale = lcm(*(v.denominator for row in a for v in row), *(v.denominator for v in b))
    tab, basis, den, farkas = _phase1([_scaled(row, scale) for row in a],
                                      _scaled(b, scale), n)
    if farkas is not None:
        return LPResult(INFEASIBLE, farkas=[Fraction(v, den) for v in farkas])
    ncols = n + m

    # Drive leftover artificials out of the basis; an all-zero row is a
    # redundant constraint and is dropped.
    drop_rows: list[int] = []
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if tab[i][j] != 0), None)
            if enter is None:
                drop_rows.append(i)
            else:
                den = _pivot(tab, basis, den, i, enter)
    if drop_rows:
        for i in reversed(drop_rows):
            del tab[i]
            del basis[i]
        m = len(basis)

    # Slice off artificial columns and install the real objective, scaled
    # to integers and put over the tableau's denominator.
    tab = [row[:n] + [row[ncols]] for row in tab[:m]]
    c_int = _scaled(c, lcm(*(v.denominator for v in c)))
    cost = [v * den for v in c_int] + [0]
    for i in range(m):
        cb = c_int[basis[i]]
        if cb != 0:
            cost = [x - cb * y for x, y in zip(cost, tab[i])]
    tab.append(cost)

    status, den = _run_simplex(tab, basis, n, den)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    x = [_ZERO] * n
    for i in range(m):
        x[basis[i]] = Fraction(tab[i][n], den)
    obj = sum((ci * xi for ci, xi in zip(c, x)), _ZERO)
    return LPResult(OPTIMAL, x=x, objective=obj)


def nonneg_combination(columns, target) -> LPResult:
    """Feasibility of ``sum_i alpha_i columns[i] = target`` with alpha >= 0,
    on integer columns and target, by phase 1 alone.

    Returns an OPTIMAL result whose x / den is one valid alpha (the point
    where phase 1 stops; driving out artificials at level zero would
    change no value), or an INFEASIBLE result whose farkas / den is the
    Farkas vector y: y.columns[i] <= 0 for every i and y.target > 0.
    """
    n = len(columns)
    a = [[col[i] for col in columns] for i in range(len(target))]
    tab, basis, den, farkas = _phase1(a, list(target), n)
    if farkas is not None:
        return LPResult(INFEASIBLE, farkas=farkas, den=den)
    x = [0] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = tab[i][-1]
    return LPResult(OPTIMAL, x=x, den=den)
