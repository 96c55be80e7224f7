"""Exact phase-1 simplex on integer data.

:func:`nonneg_combination` decides whether a target is a nonnegative
combination of integer columns: phase 1 of the simplex method on
A x = b, x >= 0, which minimizes the sum of artificial variables from
the artificial basis.  Bland's rule (smallest eligible variable enters,
smallest basic variable leaves on ratio ties) guarantees termination,
and the arithmetic is exact, so the outcome is a decision, not an
estimate.  The tableau is kept as integers over one positive common
denominator and pivoted integer-preservingly by :func:`ratlin._pivot`,
the elimination step of Gauss-Jordan (Edmonds, J. Res. NBS 71B, 1967):
every division is exact and every sign and ratio test reads the same as
on the rational tableau, so the pivots are the same.  Positive
column and rhs scales change no Bland pivot (each scales a column's
reduced costs, or a ratio test's ratios, alike).

The tableau is condensed (Tucker, Proc. Symp. Appl. Math. 10, 1960):
a row holds only the nonbasic columns and the rhs.  Phase 1 stops once
the infeasibility is 0.  :func:`nonneg_combination` says why both are
exact.

When the system is infeasible the phase-1 multipliers give a Farkas
vector y with y.A <= 0 componentwise and y.b > 0; callers turn that into
separating-functional certificates.  Problems here are desk scale (tens
of rows and columns), so the dense tableau is the right tool.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TheoremContradiction
from .ratlin import _pivot

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


@dataclass
class LPResult:
    status: str
    x: list | None = None
    farkas: list | None = None  # infeasible case: y.A <= 0, y.b > 0
    den: int = 1  # x and farkas are integers over den


def nonneg_combination(columns, target) -> LPResult:
    """Feasibility of ``sum_i alpha_i columns[i] = target`` with alpha >= 0,
    on integer columns and target, by phase 1 alone.

    Rows with a negative rhs are flipped first, and artificials n..n+m-1
    start basic.  The tableau tab/den is condensed: row i holds the
    columns of the n nonbasic variables, in slots, and the rhs; the last
    row holds their reduced costs and minus the infeasibility.  Each
    pivot is the :func:`ratlin._pivot` exchange on a positive entry,
    which becomes den, so den stays positive: signs are read off the
    integers, and ratios rhs/entry are compared by cross-multiplying.
    Slots are permuted by the exchanges, so Bland's rule picks the
    smallest variable, not the smallest slot, among those with a negative
    reduced cost; an artificial that left the basis keeps its slot and
    may enter again like any other variable.

    Phase 1 stops once the infeasibility is 0.  A pivot lowers it by the
    step times minus the entering reduced cost, and it cannot go below 0,
    so from there every Bland pivot would have step 0 and leave x / den
    as it is, though not the pair x, den.  An infeasible system
    never reaches 0, so it takes the same pivots as a phase 1 run to
    optimality, and a zero target takes none.

    Returns an OPTIMAL result whose x / den is one valid alpha (driving
    out artificials at level zero would change no value), or an
    INFEASIBLE result whose farkas / den is the Farkas vector y:
    y.columns[i] <= 0 for every i and y.target > 0.  It is read off the
    artificials, y_i = 1 - (reduced cost of artificial i), which is 1
    for a basic one, with the row flips undone.
    """
    n, m = len(columns), len(target)
    sign = [-1 if t < 0 else 1 for t in target]
    tab = [[s * col[i] for col in columns] + [s * target[i]] for i, s in enumerate(sign)]
    tab.append([-sum(col) for col in zip(*tab)] if m else [0] * (n + 1))
    basis = [n + i for i in range(m)]  # the variable basic in each row
    slots = list(range(n))  # the nonbasic variable in each column
    den = 1
    while tab[m][n]:
        cost = tab[m]
        enter = -1
        for s in range(n):
            if cost[s] < 0 and (enter < 0 or slots[s] < slots[enter]):
                enter = s
        if enter < 0:
            break
        leave = -1
        best_num = best_den = 0
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                num = tab[i][n]
                if leave < 0:
                    better = True
                else:
                    lhs, rhs = num * best_den, best_num * a
                    better = lhs < rhs or (lhs == rhs and basis[i] < basis[leave])
                if better:
                    leave, best_num, best_den = i, num, a
        if leave < 0:  # Bland's rule never gets here
            raise TheoremContradiction("no leaving row, though phase 1 is bounded below by 0")
        den = _pivot(tab, leave, enter, den, exchange=True)
        basis[leave], slots[enter] = slots[enter], basis[leave]
    if tab[m][n]:
        y = [den] * m
        for s, j in enumerate(slots):
            if j >= n:
                y[j - n] -= tab[m][s]
        return LPResult(INFEASIBLE, farkas=[s * v for s, v in zip(sign, y)], den=den)
    x = [0] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = tab[i][n]
    return LPResult(OPTIMAL, x=x, den=den)
