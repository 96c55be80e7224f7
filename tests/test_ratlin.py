import time
from dataclasses import fields
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conehelly import ratlin
from conehelly.gens import gen_simplex_like
from conehelly.ratlin import (
    SubspaceBasis,
    VectorSet,
    int_row,
    kernel_basis,
    rank_of_rows,
    span_basis,
    vec,
)

from conftest import fractions_built, rational_matrices, small_fraction
from oracles import dot, in_span, ref_kernel_basis, ref_rref_rows

F = Fraction


def rows_of(rows):
    return [list(vec(r)) for r in rows]


def ints(rows):
    """The integer rows that elimination takes."""
    return [int_row(r)[1] for r in rows]


def rref(rows, ncols):
    """The nonzero rows of the rref of integer rows, read off
    span_basis, and their pivot columns, read off those rows."""
    basis = [list(v) for v in span_basis(rows, ncols).basis]
    return basis, [next(j for j, x in enumerate(v) if x) for v in basis]


def ref_rref(rows, ncols):
    """The nonzero rows of the reference rref and its pivot columns."""
    red, piv = ref_rref_rows(rows, ncols)
    return red[:len(piv)], piv


class TestRref:
    def test_identity_is_fixed(self):
        m = rows_of([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        red, piv = rref(ints(m), 3)
        assert red == m
        assert piv == [0, 1, 2]

    def test_rank_one_rows(self):
        red, piv = rref(ints(rows_of([[1, 1], [2, 2]])), 2)
        assert red == rows_of([[1, 1]])
        assert piv == [0]

    def test_row_permutation(self):
        red, piv = rref(ints(rows_of([[0, 1], [1, 0]])), 2)
        assert red == rows_of([[1, 0], [0, 1]])
        assert piv == [0, 1]

    @given(rational_matrices())
    def test_idempotent(self, data):
        rows, ncols = data
        if not rows:
            return
        red, _ = rref(ints(rows), ncols)
        again, _ = rref(ints(red), ncols)
        assert again == red

    @given(rational_matrices())
    def test_rank_equals_transpose_rank(self, data):
        rows, ncols = data
        if not rows:
            return
        transpose = ints(zip(*rows))
        assert rank_of_rows(ints(rows), ncols) == rank_of_rows(transpose, len(rows))


@st.composite
def low_rank_rows(draw, max_rows=5, max_cols=5):
    """Rational rows with denominators up to 7; most rows are combinations
    of at most three drawn rows, so the rank is often short of full.  Zero
    rows and the empty matrix occur."""
    ncols = draw(st.integers(1, max_cols))
    entry = small_fraction(max_num=6, max_den=7)
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    base = draw(st.lists(row, max_size=3))
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        if base and draw(st.booleans()):
            coef = draw(st.lists(small_fraction(max_num=3, max_den=4),
                                 min_size=len(base), max_size=len(base)))
            rows.append([sum((q * b[j] for q, b in zip(coef, base)), F(0))
                         for j in range(ncols)])
        else:
            rows.append(draw(row))
    return rows, ncols


class TestAgainstReference:
    """The integer kernels equal plain Fraction Gauss-Jordan."""

    @given(low_rank_rows())
    def test_rref_rows(self, data):
        rows, ncols = data
        assert rref(ints(rows), ncols) == ref_rref(rows, ncols)

    @given(low_rank_rows())
    def test_rank_of_rows(self, data):
        rows, ncols = data
        assert rank_of_rows(ints(rows), ncols) == len(ref_rref_rows(rows, ncols)[1])

    @given(low_rank_rows())
    def test_kernel_basis(self, data):
        rows, ncols = data
        assert kernel_basis(ints(rows), ncols).basis == ref_kernel_basis(rows, ncols)

    def test_empty_matrix(self):
        assert rref([], 3) == ([], [])
        assert rank_of_rows([], 3) == 0
        assert kernel_basis([], 2).basis == (vec([1, 0]), vec([0, 1]))

    def test_kernel_of_no_rows_in_a_large_dimension(self):
        # SubspaceBasis ranks the d x d identity this returns; a row that is
        # 0 in the pivot column is left alone while the pivot stays 1, so
        # that rank takes O(d^2) steps, not O(d^3).
        start = time.perf_counter()
        assert kernel_basis([], 400).dim == 400
        assert time.perf_counter() - start < 1

    def test_zero_rows_stay_below(self):
        # Zero and dependent rows give no basis vector, wherever they sit.
        red, piv = rref(ints([[F(0), F(0)], [F(1, 2), F(1, 3)], [F(3), F(2)]]), 2)
        assert red == [[F(1), F(2, 3)]]
        assert piv == [0]


    def test_no_rows_in_a_huge_dimension(self):
        # Elimination over no rows stops before it walks the columns.
        start = time.perf_counter()
        assert rank_of_rows.__wrapped__([], 10**7) == 0
        assert span_basis([], 10**7).dim == 0
        assert time.perf_counter() - start < 1


@st.composite
def pivot_sequences(draw, max_rows=4, max_cols=5):
    """An integer matrix and up to four pivot positions, each on a
    nonzero entry of the matrix the earlier exchanges leave."""
    nrows, ncols = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    entry = st.integers(-4, 4)
    m = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    return m, draw(st.lists(st.tuples(st.integers(0, nrows - 1),
                                      st.integers(0, ncols - 1)), max_size=4))


class TestPivotExchange:
    """_pivot with exchange is the full step on the matrix with the unit
    column prev e_r appended, that column's result then put in place of
    column c: the Jordan exchange of a condensed simplex tableau.  A
    chain of exchanges from prev = 1 is a valid integer tableau, so every
    division is exact."""

    @given(pivot_sequences())
    def test_equals_full_pivot_with_the_unit_column(self, data):
        m, positions = data
        prev = 1
        for r, c in positions:
            if not m[r][c]:
                continue
            full = [row + [prev if i == r else 0] for i, row in enumerate(m)]
            p_full = ratlin._pivot(full, r, c, prev)
            expected = [row[:c] + [row[-1]] + row[c + 1:-1] for row in full]
            p = ratlin._pivot(m, r, c, prev, exchange=True)
            assert (p, m) == (p_full, expected)
            prev = p

    def test_exchange_column(self):
        # Pivot on the 2: the other row becomes (2 (3, 4) - 3 (2, 1)) / 1
        # with -3 in column 0, and the pivot row keeps 1 there.
        m = [[2, 1], [3, 4]]
        assert ratlin._pivot(m, 0, 0, 1, exchange=True) == 2
        assert m == [[1, 1], [-3, 5]]


class TestRank:
    def test_identity(self):
        for d in (1, 2, 4):
            m = rows_of([[1 if i == j else 0 for j in range(d)] for i in range(d)])
            assert rank_of_rows(ints(m), d) == d

    def test_zero_matrix(self):
        assert rank_of_rows(ints(rows_of([[0, 0], [0, 0]])), 2) == 0

    def test_simplex_like_has_full_rank(self):
        # The rref of the explicit (d+1) x d matrix keeps d pivots: the
        # first d rows already form the identity.
        for d in (2, 3, 5):
            rows = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
            rows.append([-1] * d)
            assert rank_of_rows(ints(rows_of(rows)), d) == d

    @given(low_rank_rows())
    def test_integer_rows_as_they_are(self, data):
        # A positive scale per row changes no rank and no rref, so integer
        # rows and the rational rows they scale give the same answers.
        rows, ncols = data
        den = lcm(*(x.denominator for r in rows for x in r))
        scaled = [[int(x * den * (i + 1)) for x in r] for i, r in enumerate(rows)]
        assert rank_of_rows(scaled, ncols) == rank_of_rows(ints(rows), ncols)
        assert rref(scaled, ncols) == rref(ints(rows), ncols) == ref_rref(rows, ncols)


class TestRankPivots:
    """rank_of_rows takes each elimination step by ratlin._pivot: one call
    per pivot, and none on rows with no nonzero entry."""

    def _pivots(self, monkeypatch, rows, ncols):
        calls = []
        real = ratlin._pivot
        monkeypatch.setattr(ratlin, "_pivot",
                            lambda *args: calls.append(1) or real(*args))
        return rank_of_rows(rows, ncols), len(calls)

    def test_one_pivot_per_rank(self, monkeypatch):
        rows = gen_simplex_like(5).int_rows
        assert self._pivots(monkeypatch, rows, 5) == (5, 5)

    def test_zero_rows_take_no_pivot(self, monkeypatch):
        assert self._pivots(monkeypatch, [(0,) * 5] * 3, 5) == (0, 0)


class TestRankMemo:
    """rank_of_rows is memoized on its rows in order; the memo answers as
    the uncached elimination and the Fraction reference do."""

    @given(low_rank_rows())
    def test_memo_matches_uncached_and_reference(self, data):
        rows, ncols = data
        want = len(ref_rref_rows(rows, ncols)[1])
        as_lists = [list(r) for r in ints(rows)]
        assert rank_of_rows.__wrapped__(as_lists, ncols) == want
        before = rank_of_rows.cache_info()
        for form in (as_lists, ints(rows), tuple(ints(rows))):
            for _ in range(2):
                assert rank_of_rows(form, ncols) == want
        after = rank_of_rows.cache_info()
        # Lists and tuples of the same rows share one entry.
        assert after.misses - before.misses <= 1
        assert after.hits - before.hits >= 5

    def test_key_keeps_row_order_and_ncols(self):
        rank_of_rows([(1, 0), (0, 1)], 2)
        rank_of_rows([(0, 1), (1, 0)], 2)
        rank_of_rows([(1, 0), (0, 1)], 1)
        assert rank_of_rows.cache_info().currsize == 3


class TestSpanBasis:
    def test_collinear_pair(self):
        s = VectorSet.from_rows([[1, 0], [2, 0]], 2)
        b = span_basis(s.int_rows, s.ambient_dim)
        assert b.dim == 1
        assert b.basis == (vec([1, 0]),)

    def test_empty_set_is_zero_subspace(self):
        b = span_basis([], 2)
        assert b.dim == 0
        assert b.basis == ()

    def test_independent_pair(self):
        assert span_basis([[1, 1], [1, -1]], 2).dim == 2


class TestKernel:
    def test_single_axis_row(self):
        b = kernel_basis([[1, 0]], 2)
        assert b.basis == (vec([0, 1]),)

    def test_identity_has_trivial_kernel(self):
        assert kernel_basis([[1, 0], [0, 1]], 2).dim == 0

    def test_rank_nullity(self):
        assert kernel_basis([[1, 1, 0]], 3).dim == 2


class TestOrthComplement:
    """The orthogonal complement of a subspace is the kernel of its basis."""

    def test_axis_line_in_three_dims(self):
        s = SubspaceBasis(3, (vec([1, 0, 0]),))
        comp = kernel_basis(s.int_rows, 3)
        assert comp.dim == 2
        assert in_span(comp, vec([0, 1, 0]))
        assert in_span(comp, vec([0, 0, 1]))

    def test_zero_subspace(self):
        comp = kernel_basis(SubspaceBasis(3, ()).int_rows, 3)
        assert comp.dim == 3

    def test_full_space(self):
        s = SubspaceBasis(2, (vec([1, 0]), vec([0, 1])))
        assert kernel_basis(s.int_rows, 2).dim == 0

    @given(rational_matrices(max_rows=3, max_cols=4))
    def test_dimensions_add_up_and_orthogonal(self, data):
        rows, ncols = data
        s = span_basis(ints(rows), ncols)
        comp = kernel_basis(s.int_rows, ncols)
        assert s.dim + comp.dim == ncols
        for u in s.basis:
            for w in comp.basis:
                assert dot(u, w) == 0


class TestSubspaceIntegerForm:
    """A subspace basis stores its integer form, like a vector set; its
    Fraction basis is a view built on request, for output."""

    def test_fields_are_the_integer_form(self):
        s = SubspaceBasis(2, (vec([F(1, 2), 1]), vec([0, F(1, 3)])))
        assert [f.name for f in fields(SubspaceBasis)] == ["ambient_dim", "int_scales",
                                                          "int_rows"]
        assert s.int_scales == (2, 3) and s.int_rows == ((1, 2), (0, 1))
        assert "vectors" not in vars(s)
        assert s.basis == (vec([F(1, 2), 1]), vec([0, F(1, 3)]))
        assert s.basis is s.basis  # built once
        fresh = SubspaceBasis(2, s.basis)
        assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)
        # A basis is never equal to the vector set of the same vectors.
        assert s != VectorSet(2, s.basis)

    @given(rational_matrices())
    def test_basis_is_the_reference_rref(self, data):
        rows, ncols = data
        span = span_basis(ints(rows), ncols)
        kernel = kernel_basis(ints(rows), ncols)
        assert span.basis == tuple(map(tuple, ref_rref(rows, ncols)[0]))
        assert kernel.basis == ref_kernel_basis(rows, ncols)
        for s in (span, kernel):
            assert list(zip(s.int_scales, s.int_rows)) == [int_row(v) for v in s.basis]

    @given(rational_matrices())
    def test_built_from_fractions_equals_built_from_rows(self, data):
        rows, ncols = data
        for s in (span_basis(ints(rows), ncols), kernel_basis(ints(rows), ncols)):
            fresh = SubspaceBasis(ncols, tuple(vec(v) for v in s.basis))
            assert fresh == s and hash(fresh) == hash(s)

    def test_dependent_rows_raise_on_every_construction(self):
        with pytest.raises(ValueError, match="dependent"):
            SubspaceBasis(2, (vec([1, 0]), vec([F(-1, 2), 0])))
        with pytest.raises(ValueError, match="dependent"):
            SubspaceBasis(2, (vec([0, 0]),))
        with pytest.raises(ValueError, match="dependent"):
            SubspaceBasis.from_int_form(2, [(1, (1, 2)), (3, (2, 4))])
        with pytest.raises(ValueError):
            SubspaceBasis(2, (vec([1, 0, 0]),))

    def test_int_row_over_is_int_row(self):
        for nums, den in [((2, -4, 6), 4), ((2, -4, 6), -4), ((0, 0), -7),
                          ((3, 5), 1), ((-6, 9), -3)]:
            want = int_row(tuple(F(a, den) for a in nums))
            assert ratlin.int_row_over(nums, den) == want

    def test_integer_input_builds_no_fraction(self):
        # Only output builds Fractions: the basis and generator views.
        from conehelly.cone import HalfspaceSystem, extract_cone

        rows = [(2, 4, 1), (0, 3, 5)]
        spans, kernels = [], []
        assert fractions_built(lambda: spans.append(span_basis(rows, 3))) == 0
        assert fractions_built(lambda: kernels.append(kernel_basis(rows, 3))) == 0
        assert spans[0].int_scales == (6, 3) and kernels[0].int_scales == (6,)
        h = HalfspaceSystem(VectorSet(3, [(2, 1, 0), (1, -3, 1), (0, 1, -2)]))
        gens = []
        assert fractions_built(lambda: gens.append(extract_cone(h, 3))) == 0
        assert max(gens[0].int_scales) > 1
        for out in (spans[0], kernels[0], gens[0]):
            assert fractions_built(lambda: out.vectors) > 0


class TestSubspaceBasis:
    def test_rejects_dependent_basis(self):
        with pytest.raises(ValueError):
            SubspaceBasis(2, (vec([1, 0]), vec([2, 0])))


class TestIntegerForm:
    def test_rows_and_scales(self):
        a = VectorSet.from_rows([[F(1, 2), F(-1, 3)], [2, 0], [0, F(3, 4)]], 2)
        assert a.int_scales == (6, 1, 4)
        assert a.int_rows == ((3, -2), (2, 0), (0, 3))

    def test_integer_form_is_the_data(self):
        # The integer rows and scales are the fields; the Fraction view is
        # built on first request and is not one.
        a = VectorSet.from_rows([[F(1, 2), 1], [0, 3]], 2)
        assert [f.name for f in fields(VectorSet)] == ["ambient_dim", "int_scales",
                                                      "int_rows"]
        assert "vectors" not in vars(a)
        assert a.vectors is a.vectors  # built once
        assert repr(a) == repr(VectorSet(2, a.vectors))

    def test_hash_reads_the_integer_form(self):
        a = VectorSet.from_rows([[F(1, 2), 1], [0, 3]], 2)
        b = VectorSet.from_rows([[F(1, 2), 1], [0, 3]], 2)
        assert a is not b and a == b and hash(a) == hash(b)
        assert hash(a) == hash((a.ambient_dim, a.int_scales, a.int_rows))
        assert "_hash" in vars(a)  # computed once, then read back
        assert {a: 1}[b] == 1
        # [1/2] and [1] share an integer row, not a scale.
        assert VectorSet(1, [(F(1, 2),)]) != VectorSet(1, [(1,)])

    def test_equal_from_every_source(self):
        sets = [
            VectorSet(2, [(F(3, 2), F(0)), (F(-1), F(1, 3))]),
            VectorSet(2, [(F(3, 2), 0), (-1, F(1, 3))]),
            VectorSet.from_rows([["3/2", "0"], ["-1", "1/3"]], 2),
            VectorSet.from_rows([["1.5", 0], [-1, "2/6"]], 2),
            VectorSet.from_rows([[0, 0], [F(3, 2), 0], [7, 7], [-1, F(1, 3)]], 2)
            .subset([1, 3]),
        ]
        for b in sets:
            assert b == sets[0] and hash(b) == hash(sets[0])
            assert b.int_scales == (2, 3) and b.int_rows == ((3, 0), (-3, 1))
        ints = [VectorSet(2, [(3, 0), (-1, 2)]),
                VectorSet.from_rows([["3", 0], ["-2/2", "2"]], 2)]
        assert ints[0] == ints[1] and hash(ints[0]) == hash(ints[1])

    def test_vectors_are_the_vec_tuples(self):
        rows = [[F(1, 2), 3, "-2/4"], [0, 0, 0], ["0.25", -7, 2]]
        a = VectorSet.from_rows(rows, 3)
        expected = tuple(vec(r) for r in rows)
        assert a.vectors == expected and tuple(a) == expected
        assert [a[i] for i in range(len(a))] == list(expected)
        assert all(type(x) is Fraction for v in a.vectors for x in v)
        b = VectorSet(3, [(1, 2, 3)])
        assert b.vectors == (vec([1, 2, 3]),)
        assert all(type(x) is Fraction for x in b[0])

    def test_subset_builds_no_fraction(self):
        a = VectorSet.from_rows([[F(1, 2), 1], [0, 3], [-1, F(2, 3)]], 2)
        assert fractions_built(lambda: a.subset([2, 0]).int_rows) == 0
        assert a.subset([2, 0]) == VectorSet(2, (a[2], a[0]))
        assert a.subset([]) == VectorSet(2, ())

    @given(st.data())
    def test_matches_the_vec_form(self, data):
        # Raw ints and Fractions, and the same numbers as "p/q" strings.
        d = data.draw(st.integers(1, 4))
        coord = st.one_of(st.integers(-5, 5), small_fraction())
        rows = data.draw(st.lists(st.lists(coord, min_size=d, max_size=d), max_size=5))
        ref = VectorSet(d, tuple(vec(r) for r in rows))
        a = VectorSet(d, rows)
        strings = VectorSet.from_rows([[str(F(c)) for c in r] for r in rows], d)
        for b in (a, strings):
            assert b == ref and hash(b) == hash(ref)
            assert b.vectors == ref.vectors == tuple(vec(r) for r in rows)
        pairs = [int_row(vec(r)) for r in rows]
        assert a.int_scales == tuple(c for c, _ in pairs)
        assert a.int_rows == tuple(r for _, r in pairs)
        ids = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=6)
                        if rows else st.just([]))
        sub = a.subset(ids)
        assert sub == VectorSet(d, tuple(ref.vectors[i] for i in ids))
        assert hash(sub) == hash(VectorSet(d, tuple(ref.vectors[i] for i in ids)))

    def test_one_converter(self):
        # The cone, positive-basis and Helly layers compute on the integer
        # rows of their vector sets and convert nothing themselves.
        from conehelly import cone, helly, posbasis

        for module in (cone, posbasis, helly):
            names = vars(module)
            assert "_int_rows" not in names and "lcm" not in names, module
        for module in (posbasis, helly):
            assert "int_row" not in vars(module), module
        # Elimination takes integer rows only: no per-call type check.
        assert not hasattr(ratlin, "_int_matrix")
