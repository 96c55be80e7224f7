"""The integer simplex against the Fraction reference in ``oracles``:
same status, same x, same objective, same Farkas vector.  Equal outputs
on degenerate and redundant systems mean equal pivot sequences."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

import conehelly.lp as lp
from conehelly.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, nonneg_combination, solve_standard_form

from conftest import small_fraction
from oracles import ref_solve_standard_form

F = Fraction


def fr(rows):
    return [[F(v) for v in row] for row in rows]


def solve_both(a, b, c):
    got = solve_standard_form(a, b, c)
    assert got == ref_solve_standard_form(a, b, c)
    return got


@st.composite
def standard_form_lps(draw, max_rows=4, max_cols=5):
    """Rational LPs with denominators up to 7: feasible ones (b = a x for a
    drawn x >= 0), arbitrary ones, and ones with a redundant row."""
    m = draw(st.integers(0, max_rows))
    n = draw(st.integers(1, max_cols))
    entry = small_fraction(max_num=4, max_den=7)
    a = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if m >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(m)))[:2]
        q = draw(small_fraction(max_num=3, max_den=3))
        a[j] = [q * v for v in a[i]]
    if draw(st.booleans()):
        x = [draw(small_fraction(max_num=3, max_den=3).map(abs)) for _ in range(n)]
        b = [sum((row[j] * x[j] for j in range(n)), F(0)) for row in a]
    else:
        b = [draw(entry) for _ in range(m)]
    c = [draw(entry) for _ in range(n)]
    return a, b, c


class TestAgainstReference:
    @given(standard_form_lps())
    def test_matches_reference(self, lp_data):
        a, b, c = lp_data
        res = solve_both(a, b, c)
        if res.status == OPTIMAL:
            for row, bi in zip(a, b):
                assert sum((v * x for v, x in zip(row, res.x)), F(0)) == bi
            assert all(x >= 0 for x in res.x)
        elif res.status == INFEASIBLE:
            y = res.farkas
            for j in range(len(c)):
                assert sum((y[i] * a[i][j] for i in range(len(a))), F(0)) <= 0
            assert sum((yi * bi for yi, bi in zip(y, b)), F(0)) > 0

    @given(standard_form_lps())
    def test_feasibility_matches_reference(self, lp_data):
        # c = 0: x is wherever phase 1 stops, so it pins the phase-1 pivots
        a, b, c = lp_data
        solve_both(a, b, [F(0)] * len(c))


@st.composite
def scaled_integer_systems(draw, max_d=4, max_n=5):
    """Integer columns and a target (half of them nonnegative
    combinations of the columns), with a positive scale per column and
    one for the target."""
    d = draw(st.integers(0, max_d))
    n = draw(st.integers(0, max_n))
    entry = st.integers(-3, 3)
    cols = [[draw(entry) for _ in range(d)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        cols[1] = [-v for v in cols[0]]
    if draw(st.booleans()):
        x = [draw(st.integers(0, 2)) for _ in range(n)]
        target = [sum(xj * col[i] for xj, col in zip(x, cols)) for i in range(d)]
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
        got = nonneg_combination([[c * v for v in col] for c, col in zip(scales, cols)],
                                 [cb * v for v in target])
        ref = ref_solve_standard_form([[F(col[i]) for col in cols] for i in range(d)],
                                      [F(v) for v in target], [F(0)] * n)
        assert got.status == ref.status and got.den > 0
        if got.status == OPTIMAL:
            assert [F(x * c, got.den * cb) for x, c in zip(got.x, scales)] == ref.x
        else:
            assert [F(y, got.den) for y in got.farkas] == ref.farkas


class TestCases:
    def test_feasible(self):
        res = solve_both(fr([[1, 2]]), [F(3)], [F(1), F(1)])
        assert res.status == OPTIMAL
        assert res.x == [F(0), F(3, 2)] and res.objective == F(3, 2)

    def test_infeasible_farkas(self):
        res = solve_both(fr([[1, 1]]), [F(-1)], [F(0), F(0)])
        assert res.status == INFEASIBLE
        assert res.farkas == [F(-1)]

    def test_unbounded(self):
        res = solve_both(fr([[1, -1]]), [F(0)], [F(-1), F(0)])
        assert res.status == UNBOUNDED

    def test_no_constraints(self):
        assert solve_both([], [], [F(1), F(2)]).x == [F(0), F(0)]
        assert solve_both([], [], [F(-1)]).status == UNBOUNDED

    def test_redundant_rows_negative_drive_out_pivot(self, monkeypatch):
        # Row 3 = row 1 - row 2.  An artificial stays basic at level zero
        # after phase 1 and is driven out on a negative entry, so the
        # tableau denominator has to be kept positive by negation.
        a = [[F(-1), F(0), F(-3)],
             [F(1), F(-3, 2), F(1)],
             [F(-2), F(3, 2), F(-4)]]
        b = [F(-2), F(2), F(-4)]
        c = [F(-3, 2), F(0), F(-2)]
        signs = []
        pivot = lp._pivot

        def spy(tab, basis, den, r, col):
            signs.append(tab[r][col] < 0)
            return pivot(tab, basis, den, r, col)

        monkeypatch.setattr(lp, "_pivot", spy)
        res = solve_both(a, b, c)
        assert True in signs
        assert res.status == OPTIMAL
        assert res.x == [F(2), F(0), F(0)] and res.objective == F(-3)

    def test_rational_cost(self):
        res = solve_both(fr([[1, 1, 1]]), [F(1)], [F(1, 3), F(-2, 7), F(1, 5)])
        assert res.x == [F(0), F(1), F(0)] and res.objective == F(-2, 7)

    def test_bland_tie_break_decides(self):
        # Phase 1 meets a ratio tie; Bland's rule (smallest basic variable
        # leaves) gives this x, the opposite tie-break gives
        # (0, 2/3, 2/3, 1).
        a = fr([[2, 1, 2, 0], [-1, -2, 2, 2], [-1, 0, 0, 1]])
        b = [F(2), F(2), F(1)]
        res = solve_both(a, b, [F(0)] * 4)
        assert res.x == [F(4, 5), F(2, 5), F(0), F(9, 5)]

    def test_beale_degenerate(self):
        # Beale's cycling example in standard form (slacks x1..x3 first);
        # Bland's rule terminates at the optimum -5/4.
        a = [[F(1), F(0), F(0), F(1, 4), F(-8), F(-1), F(9)],
             [F(0), F(1), F(0), F(1, 2), F(-12), F(-1, 2), F(3)],
             [F(0), F(0), F(1), F(0), F(0), F(1), F(0)]]
        c = [F(0), F(0), F(0), F(-3, 4), F(20), F(-1, 2), F(6)]
        res = solve_both(a, [F(0), F(0), F(1)], c)
        assert res.status == OPTIMAL and res.objective == F(-5, 4)

    def test_nonneg_combination(self):
        res = nonneg_combination([[2, 0], [0, 2]], [1, 6])
        assert res.status == OPTIMAL and [F(x, res.den) for x in res.x] == [F(1, 2), F(3)]
        res = nonneg_combination([[1, 0]], [-1, 0])
        assert res.status == INFEASIBLE
