"""The integer phase-1 simplex against the Fraction reference in
``oracles``: same status, same x, same Farkas vector.  Equal outputs on
degenerate and redundant systems mean equal pivot sequences."""

from fractions import Fraction
from math import lcm

from hypothesis import given
from hypothesis import strategies as st

from conehelly.lp import INFEASIBLE, OPTIMAL, nonneg_combination

from conftest import small_fraction
from oracles import ref_solve_standard_form

F = Fraction


def fr(rows):
    return [[F(v) for v in row] for row in rows]


def solve_both(a, b):
    """Phase 1 on the rational system a x = b, x >= 0, scaled to integers
    by one common factor, which changes no pivot; checked against the
    reference at zero cost and returned as (status, x, farkas) in
    Fractions."""
    n = len(a[0])
    scale = lcm(*(v.denominator for row in a for v in row), *(v.denominator for v in b))
    res = nonneg_combination([[int(row[j] * scale) for row in a] for j in range(n)],
                             [int(v * scale) for v in b])
    got = (res.status, res.x and [F(v, res.den) for v in res.x],
           res.farkas and [F(v, res.den) for v in res.farkas])
    ref = ref_solve_standard_form(a, b, [F(0)] * n)
    assert res.den > 0 and got == (ref.status, ref.x, ref.farkas)
    return got


@st.composite
def standard_form_systems(draw, max_rows=4, max_cols=5):
    """Rational systems a x = b with denominators up to 7: feasible ones
    (b = a x for a drawn x >= 0), arbitrary ones, and ones with a
    redundant row."""
    m = draw(st.integers(1, max_rows))
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
    return a, b


class TestAgainstReference:
    @given(standard_form_systems())
    def test_feasibility_matches_reference(self, system):
        # x is wherever phase 1 stops, so it pins the phase-1 pivots
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

    def test_nonneg_combination(self):
        res = nonneg_combination([[2, 0], [0, 2]], [1, 6])
        assert res.status == OPTIMAL and [F(x, res.den) for x in res.x] == [F(1, 2), F(3)]
        res = nonneg_combination([[1, 0]], [-1, 0])
        assert res.status == INFEASIBLE
