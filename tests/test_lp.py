"""The integer phase-1 simplex against the Fraction reference in
``oracles``, a full-tableau Bland solver: same status, same rational x,
and on an infeasible system the same Farkas vector.  The pivots are
compared too.  Read as (row, entering variable), the condensed solver's
pivots are the reference's up to the point where phase 1 is feasible,
where the condensed solver stops, and all of them on an infeasible
system, so equal outputs there mean equal pivot sequences."""

import ast
import os
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import conehelly
import oracles
from conehelly import cone
from conehelly.gens import gen_simplex_like
from conehelly.lp import INFEASIBLE, OPTIMAL, nonneg_combination

from conftest import counting_lps, counting_pivots, small_fraction
from oracles import ref_solve_standard_form

F = Fraction


def fr(rows):
    return [[F(v) for v in row] for row in rows]


@contextmanager
def reference_pivots():
    """A list that gains (r, c) for each pivot of the Fraction reference
    inside the block: r its row and c the entering variable."""
    calls = []
    real = oracles._ref_pivot

    def pivot(tab, basis, r, c):
        calls.append((r, c))
        real(tab, basis, r, c)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "_ref_pivot", pivot)
        yield calls


def replay(pivots, n, m):
    """The (row, entering variable) of each condensed pivot (r, slot),
    and the final basis: artificials n..n+m-1 start basic, slot s starts
    with variable s, and each exchange swaps the leaving variable into
    the entering one's slot."""
    basis, slots = list(range(n, n + m)), list(range(n))
    entered = []
    for r, c in pivots:
        entered.append((r, slots[c]))
        basis[r], slots[c] = slots[c], basis[r]
    return entered, basis


def det(rows):
    """Determinant of a square matrix, by Fraction elimination."""
    rows = [[F(v) for v in row] for row in rows]
    out = F(1)
    for c in range(len(rows)):
        r = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if r is None:
            return F(0)
        if r != c:
            rows[c], rows[r] = rows[r], rows[c]
            out = -out
        out *= rows[c][c]
        for i in range(c + 1, len(rows)):
            f = rows[i][c] / rows[c][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return out


def solve_checked(columns, target, a, b):
    """nonneg_combination(columns, target) and the reference on a x = b,
    the same system up to positive column scales and one rhs scale, which
    change no pivot.  Checks the status and the pivots; that den is the
    determinant of the final basis in the row-flipped system [A | I],
    since each pivot entry is that determinant's ratio to the last one
    (Cramer's rule); and on an infeasible system the Farkas vector."""
    n, m = len(columns), len(target)
    with counting_pivots() as pivots, reference_pivots() as ref_pivots:
        res = nonneg_combination(columns, target)
        ref = ref_solve_standard_form(a, b, [F(0)] * n)
    entered, basis = replay(pivots, n, m)
    assert res.status == ref.status and entered == ref_pivots[:len(entered)]
    sign = [-1 if t < 0 else 1 for t in target]
    assert res.den == det([[s * columns[j][i] if j < n else int(j - n == i) for j in basis]
                           for i, s in enumerate(sign)]) > 0
    if res.status == INFEASIBLE:
        assert entered == ref_pivots
        assert [F(y, res.den) for y in res.farkas] == ref.farkas
    return res, ref


def solve_both(a, b):
    """Phase 1 on the rational system a x = b, x >= 0, scaled to integers
    by one common factor, checked by :func:`solve_checked` and for the
    same rational x as the reference; returned as (status, x, farkas) in
    Fractions."""
    n = len(a[0])
    scale = lcm(*(v.denominator for row in a for v in row), *(v.denominator for v in b))
    res, ref = solve_checked([[int(row[j] * scale) for row in a] for j in range(n)],
                             [int(v * scale) for v in b], a, b)
    got = (res.status, res.x and [F(v, res.den) for v in res.x],
           res.farkas and [F(v, res.den) for v in res.farkas])
    assert got == (ref.status, ref.x, ref.farkas)
    return got


@st.composite
def standard_form_systems(draw, max_rows=5, max_cols=8):
    """Rational systems a x = b with denominators up to 7: feasible ones
    (b = a x for a drawn x >= 0), zero targets and arbitrary ones, some
    with a redundant row and some with a column repeating or negating
    another, so that exchanges, re-entries and degenerate tails are
    common."""
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    entry = small_fraction(max_num=4, max_den=7)
    a = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if m >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(m)))[:2]
        q = draw(small_fraction(max_num=3, max_den=3))
        a[j] = [q * v for v in a[i]]
    if n >= 2 and draw(st.booleans()):
        j, k = draw(st.permutations(range(n)))[:2]
        q = draw(st.sampled_from([-1, 1]))
        for row in a:
            row[k] = q * row[j]
    kind = draw(st.sampled_from(["combination", "zero", "arbitrary"]))
    if kind == "combination":
        x = [draw(small_fraction(max_num=3, max_den=3).map(abs)) for _ in range(n)]
        b = [sum((row[j] * x[j] for j in range(n)), F(0)) for row in a]
    elif kind == "zero":
        b = [F(0)] * m
    else:
        b = [draw(entry) for _ in range(m)]
    return a, b


class TestAgainstReference:
    @given(standard_form_systems())
    def test_feasibility_matches_reference(self, system):
        a, b = system
        status, x, y = solve_both(a, b)
        if status == OPTIMAL:
            for row, bi in zip(a, b):
                assert sum((v * xj for v, xj in zip(row, x)), F(0)) == bi
            assert all(xj >= 0 for xj in x)
        else:
            for j in range(len(a[0])):
                assert sum((y[i] * a[i][j] for i in range(len(a))), F(0)) <= 0
            assert sum((yi * bi for yi, bi in zip(y, b)), F(0)) > 0


@st.composite
def scaled_integer_systems(draw, max_d=5, max_n=8):
    """Integer columns and a target (nonnegative combinations of the
    columns, zero or arbitrary), some with a column repeating or negating
    another, with a positive scale per column and one for the target."""
    d = draw(st.integers(0, max_d))
    n = draw(st.integers(0, max_n))
    entry = st.integers(-3, 3)
    cols = [[draw(entry) for _ in range(d)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        j, k = draw(st.permutations(range(n)))[:2]
        q = draw(st.sampled_from([-1, 1]))
        cols[k] = [q * v for v in cols[j]]
    kind = draw(st.sampled_from(["combination", "zero", "arbitrary"]))
    if kind == "combination":
        x = [draw(st.integers(0, 2)) for _ in range(n)]
        target = [sum(xj * col[i] for xj, col in zip(x, cols)) for i in range(d)]
    elif kind == "zero":
        target = [0] * d
    else:
        target = [draw(entry) for _ in range(d)]
    scales = [draw(st.integers(1, 6)) for _ in range(n)]
    return cols, target, scales, draw(st.integers(1, 6))


class TestIntegerCombination:
    @given(scaled_integer_systems())
    def test_matches_reference_under_positive_scales(self, data):
        # Positive column and rhs scales change no Bland pivot: x comes
        # back with the scales undone, and the Farkas vector is the same.
        cols, target, scales, cb = data
        d, n = len(target), len(cols)
        got, ref = solve_checked([[c * v for v in col] for c, col in zip(scales, cols)],
                                 [cb * v for v in target],
                                 [[F(col[i]) for col in cols] for i in range(d)],
                                 [F(v) for v in target])
        if got.status == OPTIMAL:
            assert [F(x * c, got.den * cb) for x, c in zip(got.x, scales)] == ref.x


class TestPivots:
    @given(scaled_integer_systems())
    def test_zero_target_takes_no_pivot(self, data):
        cols, target = data[:2]
        with counting_pivots() as pivots:
            res = nonneg_combination(cols, [0] * len(target))
        assert (res.status, res.x, pivots) == (OPTIMAL, [0] * len(cols), [])

    def test_simplex_linearity_lp_takes_no_pivot(self):
        # -sum S = 0 for the simplex family: its one linearity LP is
        # feasible from the start.
        for d in range(2, 6):
            with counting_lps() as lps, counting_pivots() as pivots:
                assert cone.is_linear(gen_simplex_like(d).int_rows)
            assert (len(lps), pivots) == (1, [])

    @pytest.mark.parametrize("a, b", [
        (fr([[-2, -3, 1, 2, -1, -1], [-2, 2, 1, 3, 2, -1], [-3, 3, -2, -1, -2, 0]]),
         [F(0), F(3), F(3)]),
        (fr([[1, 1]]), [F(-1)]),
        # Beale's system of test_beale_degenerate at the level -3/2, each
        # row times 4 or 1
        (fr([[4, 0, 0, 1, -32, -4, 36], [0, 4, 0, 2, -48, -2, 12],
             [0, 0, 1, 0, 0, 1, 0], [0, 0, 0, -3, 80, -2, 24]]),
         [F(0), F(0), F(1), F(-6)]),
    ])
    def test_infeasible_takes_every_phase1_pivot(self, a, b):
        n = len(a[0])
        with counting_pivots() as pivots, reference_pivots() as ref_pivots:
            res = nonneg_combination([[int(row[j]) for row in a] for j in range(n)],
                                     [int(v) for v in b])
            ref = ref_solve_standard_form(a, b, [F(0)] * n)
        assert res.status == ref.status == INFEASIBLE
        assert len(pivots) == len(ref_pivots)
        assert [F(y, res.den) for y in res.farkas] == ref.farkas


class TestCases:
    def test_feasible(self):
        assert solve_both(fr([[1, 2]]), [F(3)]) == (OPTIMAL, [F(3), F(0)], None)

    def test_infeasible_farkas(self):
        assert solve_both(fr([[1, 1]]), [F(-1)]) == (INFEASIBLE, None, [F(-1)])

    def test_no_constraints(self):
        res = nonneg_combination([[], []], [])
        assert res.status == OPTIMAL and res.x == [0, 0]
        assert ref_solve_standard_form([], [], [F(0), F(0)]).x == [F(0), F(0)]

    def test_redundant_rows(self):
        # Row 3 = row 1 - row 2, so an artificial stays basic at level
        # zero when phase 1 stops; x is read off the structural columns.
        a = [[F(-1), F(0), F(-3)],
             [F(1), F(-3, 2), F(1)],
             [F(-2), F(3, 2), F(-4)]]
        b = [F(-2), F(2), F(-4)]
        assert solve_both(a, b) == (OPTIMAL, [F(2), F(0), F(0)], None)

    def test_bland_tie_break_decides(self):
        # Phase 1 meets a ratio tie; Bland's rule (smallest basic variable
        # leaves) gives this x, the opposite tie-break gives
        # (0, 2/3, 2/3, 1).
        a = fr([[2, 1, 2, 0], [-1, -2, 2, 2], [-1, 0, 0, 1]])
        b = [F(2), F(2), F(1)]
        assert solve_both(a, b)[1] == [F(4, 5), F(2, 5), F(0), F(9, 5)]

    def test_beale_degenerate(self):
        # Beale's cycling example in standard form (slacks x1..x3 first),
        # with its objective as a fourth row: phase 1 pivots through the
        # degenerate vertices, reaches the optimal level -5/4 at Beale's
        # optimum, and proves the level -3/2 infeasible.
        a = [[F(1), F(0), F(0), F(1, 4), F(-8), F(-1), F(9)],
             [F(0), F(1), F(0), F(1, 2), F(-12), F(-1, 2), F(3)],
             [F(0), F(0), F(1), F(0), F(0), F(1), F(0)],
             [F(0), F(0), F(0), F(-3, 4), F(20), F(-1, 2), F(6)]]
        status, x, _ = solve_both(a, [F(0), F(0), F(1), F(-5, 4)])
        assert status == OPTIMAL and x == [F(3, 4), F(0), F(0), F(1), F(0), F(1), F(0)]
        assert solve_both(a, [F(0), F(0), F(1), F(-3, 2)])[0] == INFEASIBLE

    def test_artificial_reenters(self):
        # An artificial leaves the basis and enters again: it keeps the
        # column slot it took over, like any other nonbasic variable.
        columns = [[-2, -2, -3], [-3, 2, 3], [1, 1, -2], [2, 3, -1], [-1, 2, -2], [-1, -1, 0]]
        a = [[F(col[i]) for col in columns] for i in range(3)]
        with counting_pivots() as pivots:
            assert solve_both(a, [F(0), F(3), F(3)])[0] == INFEASIBLE
        entered, _ = replay(pivots, 6, 3)
        assert any(j >= 6 for _, j in entered)

    def test_nonneg_combination(self):
        res = nonneg_combination([[2, 0], [0, 2]], [1, 6])
        assert res.status == OPTIMAL and [F(x, res.den) for x in res.x] == [F(1, 2), F(3)]
        res = nonneg_combination([[1, 0]], [-1, 0])
        assert res.status == INFEASIBLE


# A pivot that, after each real step, zeroes every positive entry of the
# constraint rows: the next entering column then has no leaving row.
NO_LEAVING_ROW = """
from conehelly import lp
from conehelly.errors import TheoremContradiction

real = lp._pivot

def pivot(m, r, c, prev, exchange=False):
    p = real(m, r, c, prev, exchange)
    for row in m[:-1]:
        row[:] = [0 if a > 0 else a for a in row]
    return p

lp._pivot = pivot
try:
    print(lp.nonneg_combination([[1, 0], [0, 1], [1, 1]], [1, 1]))
except TheoremContradiction:
    print("TheoremContradiction")
"""


class TestGuards:
    def test_no_leaving_row_raises_under_optimization(self):
        # python -O strips assert statements; the guard must still fire.
        src = str(Path(conehelly.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", NO_LEAVING_ROW],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.stdout.strip() == "TheoremContradiction", proc.stdout + proc.stderr

    def test_no_assert_statement_in_the_package(self):
        # Every check the package relies on survives python -O.
        found = [f"{path.name}:{node.lineno}"
                 for path in sorted(Path(conehelly.__file__).parent.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Assert)]
        assert found == []
