import sys
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conehelly import cone, helly, lp
from conehelly.cone import (
    FarkasCertificate,
    HalfspaceSystem,
    InfeasibleCone,
    complementary_point,
    extract_cone,
    is_linear,
    lineality_dim,
    lineality_of_polar,
    lineality_space,
    max_cone_dim,
    membership,
    relative_interior_point,
    reversible_indices,
    verify_cone_generators,
)
from conehelly.errors import TheoremContradiction
from conehelly.fuzzing import run_trial_checks, trial_instance
from conehelly.gens import gen_axis_pairs, gen_example2, gen_simplex_like
from conehelly.posbasis import (
    extract_positive_basis,
    extract_positive_basis_indices,
    is_positive_basis,
    reay_parts,
)
from conehelly.ratlin import VectorSet, rank_of_rows, vec

from conftest import (
    CACHES,
    CONE_FUZZ,
    POS_FUZZ,
    counting_lps,
    int_vector_sets,
    small_fraction,
    with_negated_copies,
)
from oracles import (
    dot,
    in_span,
    oracle_in_pos,
    oracle_lineality_dim,
    oracle_reversible,
    ref_solve_standard_form,
)

F = Fraction


def vs(rows, d):
    return VectorSet.from_rows(rows, d)


class TestMembership:
    def test_inside_quadrant(self):
        cert = membership(vec([1, 1]), vs([[1, 0], [0, 1]], 2))
        assert cert.is_member
        assert cert.combination == ((0, F(1)), (1, F(1)))

    def test_outside_quadrant(self):
        cert = membership(vec([-1, 0]), vs([[1, 0], [0, 1]], 2))
        assert not cert.is_member
        y = cert.separator
        assert dot(y, vec([1, 0])) <= 0
        assert dot(y, vec([0, 1])) <= 0
        assert dot(y, vec([-1, 0])) > 0

    def test_simplex_like_spans_positively(self):
        gens = gen_simplex_like(3)
        target = vec([0, 0, 1])
        assert oracle_in_pos(target, gens)  # independent confirmation
        cert = membership(target, gens)
        assert cert.is_member

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            membership(vec([1]), vs([[1, 0]], 2))

    def test_certificate_shape_is_exclusive(self):
        with pytest.raises(ValueError):
            FarkasCertificate(combination=None, separator=None)
        with pytest.raises(ValueError):
            FarkasCertificate(combination=(), separator=vec([1]))

    @settings(max_examples=150, deadline=None)
    @given(int_vector_sets(max_d=3, max_n=5, bound=2),
           st.lists(st.integers(-2, 2), min_size=3, max_size=3))
    def test_farkas_exclusivity_and_oracle_agreement(self, gens, coords):
        b = vec(coords[: gens.ambient_dim])
        cert = membership(b, gens)
        if cert.is_member:
            total = vec([0] * gens.ambient_dim)
            for i, c in cert.combination:
                assert c > 0
                total = tuple(t + c * g for t, g in zip(total, gens[i]))
            assert total == b
        else:
            y = cert.separator
            assert all(dot(y, a) <= 0 for a in gens)
            assert dot(y, b) > 0
        assert cert.is_member == oracle_in_pos(b, gens)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(
        st.lists(st.lists(small_fraction(max_num=3, max_den=4), min_size=d, max_size=d),
                 max_size=5),
        st.lists(small_fraction(max_num=3, max_den=4), min_size=d, max_size=d))))
    def test_matches_fraction_reference(self, data):
        # The LP runs on each generator and the point times its own
        # integer scale; scaled back, the certificate is the one the
        # Fraction simplex gives on the rational data.
        rows, b = data
        d = len(b)
        gens = VectorSet(d, tuple(tuple(r) for r in rows))
        ref = ref_solve_standard_form([[r[i] for r in rows] for i in range(d)], b,
                                      [F(0)] * len(rows))
        cert = membership(tuple(b), gens)
        if ref.status == lp.OPTIMAL:
            assert cert.combination == tuple((i, c) for i, c in enumerate(ref.x) if c)
        else:
            assert cert.separator == tuple(ref.farkas)

    # Integer rows (1, 0) and (0, 1), with scales 2 and 3.  The point
    # (1/4, 1) has scale 4 and integer form t = (1, 4), so x = t, and
    # coefficient i is x_i c_i / (den c_b): 1 * 2 / 4 and 4 * 3 / 4.
    QUADRANT = [[F(1, 2), 0], [0, F(1, 3)]]

    def test_scales_are_undone(self):
        cert = membership(vec(["1/4", 1]), vs(self.QUADRANT, 2))
        assert cert.combination == ((0, F(1, 2)), (1, F(3)))

    def test_wrong_combination_raises(self, monkeypatch):
        monkeypatch.setattr(lp, "nonneg_combination", lambda cols, target: lp.LPResult(
            lp.OPTIMAL, x=[1, 3], den=1))
        with pytest.raises(TheoremContradiction):
            membership(vec(["1/4", 1]), vs(self.QUADRANT, 2))

    def test_wrong_farkas_vector_raises(self, monkeypatch):
        monkeypatch.setattr(lp, "nonneg_combination", lambda cols, target: lp.LPResult(
            lp.INFEASIBLE, farkas=[1, 0], den=1))
        with pytest.raises(TheoremContradiction):
            membership(vec([-1, 0]), vs(self.QUADRANT, 2))


@st.composite
def _membership_queries(draw):
    """Integer rows, possibly none, and a target that is zero, a
    nonnegative combination of the rows or any small integer vector, so
    that both answers are common."""
    a = draw(int_vector_sets(max_d=3, max_n=5, bound=2))
    rows, d = a.int_rows, a.ambient_dim
    kind = draw(st.sampled_from(["zero", "combination", "any"]))
    if kind == "zero":
        t = (0,) * d
    elif kind == "combination":
        x = draw(st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows)))
        t = tuple(sum(xi * r[j] for xi, r in zip(x, rows)) for j in range(d))
    else:
        t = tuple(draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d)))
    return a, t


class TestCheckedMembership:
    """_checked_membership, the one call of the membership LP behind
    membership, the linearity certificate and the drop-one test of
    posbasis, answers as the brute-force oracle does."""

    @staticmethod
    def _holds(rows, t, res):
        # The certificate, substituted once more here.
        if res.status == lp.OPTIMAL:
            assert res.den > 0 and min(res.x, default=0) >= 0
            assert [sum(x * r[j] for x, r in zip(res.x, rows)) for j in range(len(t))] \
                == [res.den * c for c in t]
        else:
            assert all(dot(res.farkas, r) <= 0 for r in rows)
            assert dot(res.farkas, t) > 0

    @settings(max_examples=150, deadline=None)
    @given(_membership_queries())
    def test_matches_the_oracle(self, query):
        a, t = query
        res = cone._checked_membership(a.int_rows, t)
        self._holds(a.int_rows, t, res)
        assert (res.status == lp.OPTIMAL) == oracle_in_pos(t, a)

    @pytest.mark.parametrize("rows, t, member", [
        ([], (0, 0), True),
        ([], (0, 1), False),
        ([(1, 0)], (0, 0), True),
        ([(0, 0)], (0, 0), True),
        ([(1, 0), (-1, 0)], (-3, 0), True),
        ([(1, 0), (0, 1)], (1, -1), False),
    ])
    def test_empty_rows_and_zero_targets(self, rows, t, member):
        res = cone._checked_membership(rows, t)
        self._holds(rows, t, res)
        assert (res.status == lp.OPTIMAL) == member == oracle_in_pos(t, VectorSet(2, rows))


class TestLineality:
    def test_reversible_axis(self):
        ls = lineality_space(vs([[1, 0], [-1, 0], [0, 1]], 2))
        assert ls.dim == 1
        assert ls.basis == (vec([1, 0]),)

    def test_axis_pairs_dimension(self):
        for d in range(1, 5):
            for k in range(1, d + 1):
                assert lineality_space(gen_axis_pairs(k, d)).dim == k

    def test_simplex_like_full_and_subsets_pointed(self):
        for d in (2, 3, 4):
            a = gen_simplex_like(d)
            assert lineality_space(a).dim == d
            for sub in combinations(range(d + 1), d):
                assert lineality_space(a.subset(sub)).dim == 0

    @settings(max_examples=120, deadline=None)
    @given(int_vector_sets(max_d=3, max_n=5, bound=2))
    def test_bruteforce_oracle_agreement(self, a):
        assert lineality_space(a).dim == oracle_lineality_dim(a)

    @settings(max_examples=60, deadline=None)
    @given(int_vector_sets(max_d=3, max_n=5, bound=2))
    def test_monotone_under_subsets(self, a):
        full = lineality_space(a).dim
        for size in range(len(a)):
            sub = a.subset(range(size))
            assert lineality_space(sub).dim <= full


class TestLinealityDim:
    """The integer rank of the reversible generators is the dimension of
    the rref basis."""

    @staticmethod
    def _agrees(a):
        assert lineality_dim(a) == lineality_space(a).dim

    @settings(max_examples=120, deadline=None)
    @given(int_vector_sets(max_d=4, max_n=8, bound=3))
    def test_matches_the_basis(self, a):
        self._agrees(a)

    @pytest.mark.parametrize("trial", [13, 16, 25, 48])
    def test_fuzz_trials(self, trial):
        self._agrees(trial_instance(POS_FUZZ, trial)[1])

    def test_fractional_generators(self):
        self._agrees(vs([[F(1, 2), F(1, 3), 0], [F(-3, 2), -1, 0],
                         [0, F(2, 5), 1], [F(1, 7), 0, F(-1, 4)]], 3))

    def test_signs_settle_a_pointed_set_with_no_lp(self):
        # -e1 drops both rows, and the empty set left is linear with no LP.
        a = vs([[1, 0], [1, 1]], 2)
        with counting_lps() as solved:
            assert lineality_dim(a) == 0
        assert solved == []
        assert cone._deflation(a) == ((), ((-1, 0),))

    def test_dimension_only_paths_build_no_basis(self, monkeypatch):
        # These answers need only dimensions; none may build a Fraction
        # basis of a lineality space.
        def refuse(*_):
            raise AssertionError("span_basis on a dimension-only path")

        monkeypatch.setattr(cone, "span_basis", refuse)
        helly._witness_answers.cache_clear()
        a = gen_simplex_like(3)
        assert max_cone_dim(HalfspaceSystem(a)) == 0
        assert not helly.verify_cone_helly(HalfspaceSystem(a), 1).hypothesis
        assert not helly.check_lineality_hypothesis(a, 1)
        assert helly.witness_lineality_enum(a, 2).subset_indices == (0, 1, 2, 3)
        with pytest.raises(AssertionError, match="dimension-only"):
            lineality_space(a)


class TestPointedness:
    """pos A is pointed iff its lineality dimension is 0; the
    complementary point then certifies it, strict on every nonzero
    generator."""

    def test_quadrant_is_pointed(self):
        a = vs([[1, 0], [0, 1]], 2)
        assert lineality_dim(a) == 0
        assert all(dot(v, complementary_point(a)) < 0 for v in a)

    def test_line_is_not(self):
        a = vs([[1, 0], [-1, 0]], 2)
        assert lineality_dim(a) == 1
        assert complementary_point(a) == (0, 0)


class TestComplementaryPoint:
    """complementary_point certifies the reversible set R of generators
    and normals alike: r.x0 = 0 on R and r.x0 < 0 off R."""

    @staticmethod
    def _certified(a, reversible):
        assert reversible_indices(a) == reversible
        x0 = complementary_point(a)
        assert all(type(c) is int for c in x0)
        for i, v in enumerate(a):
            assert dot(v, x0) == 0 if i in reversible else dot(v, x0) < 0
        return x0

    def test_zero_generator_is_reversible(self):
        x0 = self._certified(vs([[0, 0], [1, 0], [0, 1]], 2), (0,))
        assert x0[0] < 0 and x0[1] < 0

    def test_line_with_zero_in_one_dimension(self):
        assert self._certified(vs([[0], [1], [-2]], 1), (0, 1, 2)) == (0,)

    def test_ray_with_zero_in_one_dimension(self):
        assert self._certified(vs([[0], [1], [2]], 1), (0,))[0] < 0

    def test_fractional_generators(self):
        # Generator 1 is -3 times generator 0; nothing else is reversible.
        a = vs([[F(1, 2), F(1, 3), 0], [F(-3, 2), -1, 0],
                [0, F(2, 5), 1], [F(1, 7), 0, F(-1, 4)]], 3)
        self._certified(a, oracle_reversible(a))

    def test_empty_set(self):
        assert self._certified(VectorSet(3, ()), ()) == (0, 0, 0)

    def test_all_reversible_set_gives_origin(self):
        assert self._certified(gen_simplex_like(3), (0, 1, 2, 3)) == (0, 0, 0)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.lists(
        st.lists(small_fraction(max_num=2, max_den=3), min_size=d, max_size=d),
        max_size=6).map(lambda rows: VectorSet(d, tuple(map(tuple, rows))))))
    def test_zero_exactly_on_the_oracle_set(self, a):
        # Drawn sets include zero vectors, repeated directions and fractions.
        x0 = complementary_point(a)
        assert tuple(i for i, v in enumerate(a) if dot(v, x0) == 0) == oracle_reversible(a)
        assert all(dot(v, x0) <= 0 for v in a)


class TestMaxConeDim:
    def test_example2_value(self):
        for d in range(1, 6):
            for k in range(1, d + 1):
                assert max_cone_dim(gen_example2(d, k)) == k - 1

    def test_halfplane(self):
        assert max_cone_dim(HalfspaceSystem(vs([[-1, 0]], 2))) == 2

    def test_simplex_system_is_origin_only(self):
        for d in (2, 3, 4):
            assert max_cone_dim(HalfspaceSystem(gen_simplex_like(d))) == 0

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            HalfspaceSystem(vs([[0, 0]], 2))


class TestRelativeInteriorPoint:
    def test_halfplane_interior(self):
        x0 = relative_interior_point(HalfspaceSystem(vs([[-1, 0]], 2)))
        assert x0[0] > 0

    def test_opposite_pair_gives_origin(self):
        x0 = relative_interior_point(HalfspaceSystem(vs([[1, 0], [-1, 0]], 2)))
        assert x0 == vec([0, 0])

    def test_simplex_system_gives_origin(self):
        # Every normal of the simplex-like system lies in the lineality
        # space of the normals (which is everything), so all are implicit.
        x0 = relative_interior_point(HalfspaceSystem(gen_simplex_like(3)))
        assert x0 == vec([0, 0, 0])

    @settings(max_examples=60, deadline=None)
    @given(int_vector_sets(max_d=3, max_n=5, bound=2, min_n=1, nonzero=True))
    def test_contract(self, a):
        h = HalfspaceSystem(a)
        ls = lineality_space(a)
        x0 = relative_interior_point(h)
        for normal in a:
            s = dot(normal, x0)
            if in_span(ls, normal):
                assert s == 0
            else:
                assert s < 0

    @settings(max_examples=100, deadline=None)
    @given(int_vector_sets(max_d=4, max_n=6, bound=2, min_n=1, nonzero=True))
    def test_matches_the_interior_point_program(self, a):
        # The interior-point LP, with one t_i per normal so that it needs no
        # implicit set as input: maximize sum_i t_i subject to
        # a_i.(p - q) + t_i <= 0 and t_i <= 1.  Scaling a feasible point
        # scales every slack, so at the optimum t_i = 1 off the implicit
        # normals and t_i = 0 on them.
        d, n = a.ambient_dim, len(a)
        width = 2 * d + 3 * n  # p, q, t, then the slacks of both row blocks
        rows, b = [], []
        for i, normal in enumerate(a):
            row = list(normal) + [-c for c in normal] + [F(0)] * (3 * n)
            row[2 * d + i] = row[2 * d + n + i] = F(1)
            rows.append(row)
            b.append(F(0))
        for i in range(n):
            row = [F(0)] * width
            row[2 * d + i] = row[2 * d + 2 * n + i] = F(1)
            rows.append(row)
            b.append(F(1))
        cost = [F(0)] * (2 * d) + [F(-1)] * n + [F(0)] * (2 * n)
        ref = ref_solve_standard_form(rows, b, cost)
        assert ref.status == lp.OPTIMAL
        implicit = {i for i in range(n) if ref.x[2 * d + i] == 0}
        x0 = relative_interior_point(HalfspaceSystem(a))
        assert {i for i, normal in enumerate(a) if dot(normal, x0) == 0} == implicit
        assert all(dot(normal, x0) < 0 for i, normal in enumerate(a) if i not in implicit)
        assert all(dot(w, x0) == 0 for w in lineality_space(a).basis)

    # Separators e1, e3 and -e2 drop normals 1, 4 and 0 in three rounds and
    # leave the reversible pair 2, 3 on the e4 axis.  The last round needs
    # M = 3: normal 1 is -1 at x = (1, 0, 1, 0) and +2 on -e2, so the plain
    # sum (1, -1, 1, 0) of the separators violates it.
    CHAIN = [[0, 2, 0, -1], [-1, -2, 0, -1], [0, 0, 0, 2], [0, 0, 0, -2], [0, -1, -2, -1]]

    def test_fold_scales_the_earlier_rounds(self):
        a = vs(self.CHAIN, 4)
        assert cone._deflation(a) == ((2, 3), ((1, 0, 0, 0), (0, 0, 1, 0), (0, -1, 0, 0)))
        assert dot(a[1], vec([1, -1, 1, 0])) > 0
        assert complementary_point(a) == (3, -1, 3, 0)
        assert relative_interior_point(HalfspaceSystem(a)) == vec([3, -1, 3, 0])

    # No coordinate is one-signed on these normals, so t = (6, 6) has no
    # sign certificate and the first round asks the LP of all five.
    OBTUSE = [[1, -3], [-3, -2], [0, -1], [-3, 2], [-1, -2]]

    def test_a_round_without_a_sign_certificate_asks_the_lp(self, monkeypatch):
        a = vs(self.OBTUSE, 2)
        assert cone._sign_farkas(a.int_rows, [6, 6]) is None
        asked = []
        separator = cone._lp_separator
        monkeypatch.setattr(cone, "_lp_separator",
                            lambda rows: asked.append(len(rows)) or separator(rows))
        assert reversible_indices(a) == ()
        assert asked[0] == 5

    def test_shares_the_deflation_memo(self, monkeypatch):
        calls = []
        sign = cone._sign_farkas
        monkeypatch.setattr(cone, "_sign_farkas",
                            lambda rest, x: calls.append(len(rest)) or sign(rest, x))
        cone._deflation.cache_clear()
        a = vs(self.CHAIN, 4)
        assert lineality_dim(a) == 1
        assert calls == [5, 4, 3, 2]  # three separators, then the linear pair
        before = cone._lp_separator.cache_info()
        relative_interior_point(HalfspaceSystem(a))
        # No second deflation and no sign pretest: only the certificate's
        # linearity check on the reversible pair, which the LP memo answers.
        assert calls == [5, 4, 3, 2]
        after = cone._lp_separator.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    @settings(max_examples=150, deadline=None)
    @given(int_vector_sets(max_d=4, max_n=7, bound=2, min_n=1, nonzero=True))
    def test_implicit_normals_are_the_reversible_ones(self, a):
        # Against the definition: the normals lying in the lineality space
        # of pos(normals).  Drawn sets include normals of low rank.
        ls = lineality_space(a)
        want = tuple(i for i, normal in enumerate(a) if in_span(ls, normal))
        assert reversible_indices(a) == want


class TestExtractCone:
    def test_halfplane_full_dimension(self):
        h = HalfspaceSystem(vs([[-1, 0]], 2))
        out = extract_cone(h, 2)
        assert isinstance(out, VectorSet)
        assert verify_cone_generators(h, out, 2)

    def test_slab_axis(self):
        h = HalfspaceSystem(vs([[1, 0], [-1, 0]], 2))
        out = extract_cone(h, 1)
        assert out.vectors in ((vec([0, 1]),), (vec([0, -1]),))

    def test_simplex_system_infeasible(self):
        h = HalfspaceSystem(gen_simplex_like(3))
        out = extract_cone(h, 1)
        assert isinstance(out, InfeasibleCone)
        assert out.max_dim == 0
        assert out.lineality_dim == 3

    def test_k_zero_is_trivial(self):
        h = HalfspaceSystem(vs([[-1, 0]], 2))
        out = extract_cone(h, 0)
        assert isinstance(out, VectorSet) and len(out) == 0

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            extract_cone(HalfspaceSystem(vs([[-1, 0]], 2)), 3)

    @settings(max_examples=80, deadline=None)
    @given(int_vector_sets(max_d=3, max_n=5, bound=2, min_n=1, nonzero=True))
    def test_every_feasible_k_verifies(self, a):
        h = HalfspaceSystem(a)
        top = max_cone_dim(h)
        for k in range(0, h.ambient_dim + 1):
            out = extract_cone(h, k)
            if k <= top:
                assert isinstance(out, VectorSet)
                assert verify_cone_generators(h, out, k)
            else:
                assert isinstance(out, InfeasibleCone)
                assert out.max_dim == top

    def test_one_generator_per_dimension(self):
        # x0 = (1, 1) heads both lists, and its ray appears once in each.
        h = HalfspaceSystem(vs([[1, -3], [-3, -2], [0, -1], [-3, 2], [-1, -2]], 2))
        assert extract_cone(h, 1).int_rows == ((1, 1),)
        assert extract_cone(h, 2).int_rows == ((1, 1), (2, 1))

    @settings(max_examples=80, deadline=None)
    @given(int_vector_sets(max_d=4, max_n=6, bound=2, nonzero=True))
    def test_simplicial_with_one_ray_each(self, a):
        h = HalfspaceSystem(a)
        d = h.ambient_dim
        for k in range(1, max_cone_dim(h) + 1):
            rows = extract_cone(h, k).int_rows
            assert len(rows) == k
            for g, g2 in combinations(rows, 2):
                assert not (rank_of_rows([g, g2], d) == 1 and dot(g, g2) > 0)


class TestPolarQuantities:
    def test_solution_rank_examples(self):
        for d in range(1, 6):
            for k in range(1, d + 1):
                assert max_cone_dim(gen_example2(d, k)) == k - 1
        assert max_cone_dim(HalfspaceSystem(VectorSet(3, ()))) == 3
        assert max_cone_dim(HalfspaceSystem(gen_simplex_like(3))) == 0

    def test_duality_identity(self):
        for d in range(1, 6):
            for k in range(1, d + 1):
                h = gen_example2(d, k)
                assert max_cone_dim(h) + lineality_space(h.normals).dim == d

    def test_polar_lineality_single_normal(self):
        assert lineality_of_polar(HalfspaceSystem(vs([[1, 0, 0]], 3))).dim == 2

    def test_polar_lineality_spanning_normals(self):
        h = HalfspaceSystem(vs([[1, 0], [0, 1], [-1, -1]], 2))
        assert lineality_of_polar(h).dim == 0

    def test_polar_lineality_example2(self):
        for d in range(2, 6):
            for k in range(1, d + 1):
                h = gen_example2(d, k)
                ker = lineality_of_polar(h)
                assert ker.dim == k - 1
                m = d - k + 1
                for w in ker.basis:
                    assert all(w[i] == 0 for i in range(m))
                for a in h.normals:
                    for w in ker.basis:
                        assert dot(a, w) == 0


class TestOracleCrossChecks:
    def test_reversible_indices_match_oracle_exhaustively(self):
        # Small deterministic sweep: all sign patterns of a fixed shape.
        base = [(1, 0), (-1, 1), (0, -1), (1, 1)]
        for signs in product((1, -1), repeat=4):
            rows = [(s * x, s * y) for s, (x, y) in zip(signs, base)]
            a = vs(rows, 2)
            got = lineality_space(a).dim
            want = oracle_lineality_dim(a)
            assert got == want, rows

    def test_reversible_set_equals_oracle(self):
        a = vs([[1, 0], [-1, 0], [0, 1], [1, 1]], 2)
        assert tuple(reversible_indices(a)) == oracle_reversible(a)

    @settings(max_examples=100, deadline=None)
    @given(int_vector_sets(max_d=4, max_n=7, bound=2))
    def test_deflation_matches_oracle(self, a):
        assert reversible_indices(a) == oracle_reversible(a)


class TestDropOneCertificate:
    """_in_pos_of_rest, the drop-one test of posbasis: a no that signs
    settle asks no LP, as a coordinate where the element is nonzero and
    no other row shares its sign gives a Farkas certificate, checked by
    substitution like the LP's."""

    @settings(max_examples=150, deadline=None)
    @given(with_negated_copies(int_vector_sets(max_d=3, max_n=5, bound=2, min_n=1)))
    def test_matches_the_oracle(self, a):
        rows = list(a.int_rows)
        for i in range(len(rows)):
            assert cone._in_pos_of_rest(rows, i) == oracle_in_pos(
                a[i], a.subset(j for j in range(len(rows)) if j != i))

    def test_zero_row_is_still_dropped(self):
        rows = [(1, 0), (0, 0), (-1, 0)]
        with counting_lps() as lps:
            assert cone._in_pos_of_rest(rows, 1)
        assert len(lps) == 1  # no sign certificate exists for the zero row
        assert extract_positive_basis_indices(vs(rows, 2)) == (0, 2)
        assert not is_positive_basis(vs(rows, 2), lineality_space(vs(rows, 2)))

    def test_wrong_sign_certificate_raises(self, monkeypatch):
        # The one checked sign step catches a wrong certificate in a
        # deflation round, in a drop-one test and in the Reay search.  Three
        # axis pairs, so that a prefix short of the whole basis, which the
        # search still checks, takes drop-one tests.
        pb = extract_positive_basis(gen_axis_pairs(3, 3))
        real = cone._sign_farkas
        monkeypatch.setattr(cone, "_sign_farkas", lambda rest, x: (
            (y := real(rest, x)) and [-c for c in y]))
        with pytest.raises(TheoremContradiction):
            reversible_indices(vs([[1, 0], [0, 1]], 2))
        with pytest.raises(TheoremContradiction):
            cone._in_pos_of_rest([(1, 0), (-1, 0), (0, 1), (0, -1)], 0)
        with pytest.raises(TheoremContradiction):
            reay_parts(pb)


class TestLinearityCertificate:
    """is_linear substitutes the LP's answer back before trusting it."""

    # Both sets pass the sign pretest, so each answer comes from the LP.
    LINEAR = [[1, 0], [0, 1], [-1, -1]]
    HALFPLANE = [[-1, -1], [-1, 0], [1, 1]]

    def test_lp_answers_pass_their_checks(self):
        assert is_linear(self.LINEAR)
        assert not is_linear(self.HALFPLANE)

    def test_wrong_combination_raises(self, monkeypatch):
        monkeypatch.setattr(lp, "nonneg_combination", lambda cols, target: lp.LPResult(
            lp.OPTIMAL, x=[0, 0, 5], den=1))
        with pytest.raises(TheoremContradiction):
            is_linear(self.LINEAR)

    def test_wrong_farkas_vector_raises(self, monkeypatch):
        monkeypatch.setattr(lp, "nonneg_combination", lambda cols, target: lp.LPResult(
            lp.INFEASIBLE, farkas=[1, 0], den=1))
        with pytest.raises(TheoremContradiction):
            is_linear(self.HALFPLANE)


class TestLinearityMemo:
    """_lp_separator is memoized on its rows in order and stores only
    checked answers."""

    @settings(max_examples=100, deadline=None)
    @given(int_vector_sets(min_n=1))
    def test_memo_matches_uncached_and_oracle(self, a):
        rows = a.int_rows
        fresh = cone._lp_separator.__wrapped__([list(r) for r in rows])
        linear = oracle_in_pos(tuple(-sum(col) for col in zip(*a.vectors)), a)
        assert (fresh is None) == linear
        for form in ([list(r) for r in rows], list(rows), rows):
            for _ in range(2):
                assert cone._lp_separator(form) == fresh

    def test_key_keeps_row_order(self):
        # The Bland pivots follow the row order, and so does the separator:
        # a key that sorted the rows would hand one order the other's.
        rows = [(-1, -2, 2), (-1, -1, 1), (1, 1, 0), (0, 2, -2)]
        swapped = [rows[0], rows[1], rows[3], rows[2]]
        assert cone._lp_separator(rows) == (1, -1, -1)
        assert cone._lp_separator(swapped) == (2, -2, -2)

    @pytest.mark.parametrize("rows, wrong", [
        (TestLinearityCertificate.LINEAR,
         lp.LPResult(lp.INFEASIBLE, farkas=[1, 0], den=1)),
        (TestLinearityCertificate.HALFPLANE,
         lp.LPResult(lp.OPTIMAL, x=[0, 0, 5], den=1)),
    ])
    def test_failed_check_is_not_stored(self, monkeypatch, rows, wrong):
        with monkeypatch.context() as patch:
            patch.setattr(lp, "nonneg_combination", lambda cols, target: wrong)
            with pytest.raises(TheoremContradiction):
                cone._lp_separator(rows)
        assert cone._lp_separator.cache_info().currsize == 0
        assert (cone._lp_separator(rows) is None) == (wrong.status == lp.INFEASIBLE)
        assert cone._lp_separator.cache_info().currsize == 1

    def test_no_linearity_lp_solved_twice_in_a_trial(self, monkeypatch):
        # Every linearity LP is solved by the uncached _lp_separator,
        # through _checked_membership; within one trial, as the benchmark
        # runs it with every memo emptied first, none is solved twice on
        # the same rows.
        inner = cone._lp_separator.__wrapped__.__code__
        solve = lp.nonneg_combination
        solved = []

        def counting(cols, target):
            if sys._getframe(2).f_code is inner:
                solved.append(tuple(map(tuple, cols)))
            return solve(cols, target)

        monkeypatch.setattr(lp, "nonneg_combination", counting)
        total = 0
        for i in range(10):
            for cache in CACHES:
                cache.cache_clear()
            solved.clear()
            run_trial_checks(trial_instance(CONE_FUZZ, i)[1])
            assert len(solved) == len(set(solved)), f"trial {i}"
            total += len(solved)
        assert total > 0
