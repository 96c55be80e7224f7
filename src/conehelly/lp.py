"""Exact phase-1 simplex on integer data.

:func:`nonneg_combination` decides whether a target is a nonnegative
combination of integer columns: phase 1 of the simplex method on
A x = b, x >= 0, which minimizes the sum of artificial variables from
the artificial basis.  Bland's rule (smallest eligible index enters,
smallest basic variable leaves on ratio ties) guarantees termination,
and the arithmetic is exact, so the outcome is a decision, not an
estimate.  The tableau is kept as integers over one positive common
denominator and pivoted integer-preservingly by :func:`ratlin._pivot`,
the elimination step of Gauss-Jordan (Edmonds, J. Res. NBS 71B, 1967):
every division is exact and every sign and ratio test reads the same as
on the rational tableau, so the pivots are the same.  Positive
column and rhs scales change no Bland pivot (each scales a column's
reduced costs, or a ratio test's ratios, alike).

When the system is infeasible the phase-1 multipliers give a Farkas
vector y with y.A <= 0 componentwise and y.b > 0; callers turn that into
separating-functional certificates.  Problems here are desk scale (tens
of rows and columns), so the dense tableau is the right tool.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ratlin import _pivot

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


@dataclass
class LPResult:
    status: str
    x: list | None = None
    farkas: list | None = None  # infeasible case: y.A <= 0, y.b > 0
    den: int = 1  # x and farkas are integers over den


def _run_simplex(tab: list[list[int]], basis: list[int], ncols: int) -> int:
    """Iterate Bland pivots on a tableau tab/1 whose last row is the
    reduced-cost row and last column the rhs, until no reduced cost is
    negative; returns the final denominator.  Each pivot is the
    :func:`ratlin._pivot` step on a positive entry, which becomes the
    denominator, so it stays positive: signs are read off the integers,
    and ratios rhs/entry are compared by cross-multiplying."""
    m = len(tab) - 1
    den = 1
    while True:
        cost = tab[m]
        enter = next((j for j in range(ncols) if cost[j] < 0), -1)
        if enter < 0:
            return den
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
        assert leave >= 0, "phase 1 is bounded below by 0"
        den = _pivot(tab, leave, enter, den)
        basis[leave] = enter


def nonneg_combination(columns, target) -> LPResult:
    """Feasibility of ``sum_i alpha_i columns[i] = target`` with alpha >= 0,
    on integer columns and target, by phase 1 alone.

    Rows with a negative rhs are flipped first.  Returns an OPTIMAL
    result whose x / den is one valid alpha (the point where phase 1
    stops; driving out artificials at level zero would change no value),
    or an INFEASIBLE result whose farkas / den is the Farkas vector y:
    y.columns[i] <= 0 for every i and y.target > 0.  It is read off the
    artificial columns, y_i = 1 - (reduced cost of artificial i), with the
    row flips undone.
    """
    n, m = len(columns), len(target)
    sign = [-1 if t < 0 else 1 for t in target]
    tab = [[sign[i] * col[i] for col in columns] + [1 if j == i else 0 for j in range(m)]
           + [sign[i] * target[i]] for i in range(m)]
    ncols = n + m
    basis = [n + i for i in range(m)]
    cost = [-sum(col) for col in zip(*tab)] if m else [0] * (ncols + 1)
    for i in range(m):
        cost[n + i] = 0
    tab.append(cost)
    den = _run_simplex(tab, basis, ncols)
    if tab[m][ncols] < 0:
        return LPResult(INFEASIBLE, farkas=[sign[i] * (den - tab[m][n + i]) for i in range(m)],
                        den=den)
    x = [0] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = tab[i][-1]
    return LPResult(OPTIMAL, x=x, den=den)
