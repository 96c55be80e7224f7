from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conehelly import cone, helly
from conehelly.errors import CapacityError
from conehelly.cone import (
    HalfspaceSystem,
    lineality_space,
    max_cone_dim,
    reversible_indices,
)
from conehelly.fuzzing import trial_instance
from conehelly.gens import gen_axis_pairs, gen_example2, gen_random, gen_simplex_like
from conehelly.helly import (
    HellyBounds,
    Witness,
    bound_h,
    bound_m,
    check_flat_helly,
    check_lineality_hypothesis,
    corollary_check,
    verify_cone_helly,
    witness_holds,
    witness_lineality_enum,
    witness_lineality_reay,
)
from conehelly.ratlin import VectorSet, rank_of_rows, vec

from conftest import (
    CACHES,
    POS_FUZZ,
    counting_lps,
    int_vector_sets,
    with_negated_copies,
)
from oracles import (
    oracle_check_hypothesis,
    oracle_first_independent,
    oracle_minimal_witness,
    plain_minimal_witness,
)

F = Fraction


def vs(rows, d):
    return VectorSet.from_rows(rows, d)


# 25 generators, every one reversible: the axis pairs of R^2, cycled.
AXIS_PAIRS_25 = [[[1, 0], [-1, 0], [0, 1], [0, -1]][i % 4] for i in range(25)]


class TestBounds:
    def test_halfline_bound_is_twice_d(self):
        for d in range(1, 21):
            assert bound_m(1, d) == 2 * d

    def test_top_k(self):
        for d in range(1, 21):
            assert bound_m(d, d) == d + 1

    def test_direct_substitution(self):
        assert bound_m(2, 5) == 8
        assert bound_h(1, 3) == 4
        assert bound_h(3, 4) == 8

    def test_dominated_branch(self):
        assert bound_h(1, 5) == 6  # d+1 beats 2(k+1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bound_m(0, 3)
        with pytest.raises(ValueError):
            bound_h(4, 3)

    def test_bound_duality(self):
        for d in range(2, 21):
            for k in range(1, d):
                assert bound_m(k, d) == bound_h(d - k, d)

    def test_claim_inequality(self):
        # jk/(j-1) + j <= h(k,d) for 2 <= j <= k+1 <= d+1 <= 21, j-1 <= k
        for d in range(1, 21):
            for k in range(1, d + 1):
                h = bound_h(k, d)
                for j in range(2, k + 2):
                    assert F(j * k, j - 1) + j <= h, (j, k, d)

    def test_bounds_record(self):
        b = HellyBounds(2, 5)
        assert (b.m, b.h) == (8, 6)
        with pytest.raises(ValueError):
            HellyBounds(6, 5)
        with pytest.raises(TypeError):
            HellyBounds(k=2, d=5, m=8, h=6)


class TestWitnessType:
    def test_size_bound_enforced(self):
        with pytest.raises(ValueError):
            Witness(subset_indices=(0, 1, 2), property="x", size_bound=2)

    @pytest.mark.parametrize("ids, size_bound, holds", [
        ([0, 1], 3, True), ((0, 1), 2, True), ([0, 1], 1, False),
        ([1, 0], 3, False), ([0, 0, 1], 3, False), ([0, 4], 3, False),
        ([False, 1], 3, False), ([0, 2], 3, False), ("01", 3, False),
    ])
    def test_witness_holds_checks_the_whole_witness(self, ids, size_bound, holds):
        # +-e1 has lineality dimension 1 > 0; {e1, e2} has none
        a = vs([[1, 0], [-1, 0], [0, 1], [0, -1]], 2)
        assert witness_holds(a, 0, ids, "lineality_dim_exceeds", size_bound) is holds


class TestLinealityHypothesis:
    def test_simplex_like_fails_below_top_dimension(self):
        for d in (2, 3, 4):
            a = gen_simplex_like(d)
            for k in range(1, d):
                assert not check_lineality_hypothesis(a, k)
            assert check_lineality_hypothesis(a, d)

    def test_axis_pairs_fail_one_below(self):
        for k in (2, 3):
            a = gen_axis_pairs(k, k)
            assert not check_lineality_hypothesis(a, k - 1)

    def test_trivially_true_when_lineality_small(self):
        a = vs([[1, 0], [0, 1]], 2)
        assert check_lineality_hypothesis(a, 1)

    def test_known_lineality_within_k_ranks_nothing(self, monkeypatch):
        # e1, e2 and -e1-e2 span a reversible plane; e3 is not reversible.
        a = vs([[1, 0, 0], [0, 1, 0], [-1, -1, 0], [0, 0, 1]], 3)
        assert cone.lineality_dim(a) == 2
        ranked = []
        rank = helly.rank_of_rows
        monkeypatch.setattr(helly, "rank_of_rows",
                            lambda rows, d: ranked.append(rows) or rank(rows, d))
        assert check_lineality_hypothesis(a, 2)
        assert ranked == []

    def test_capacity_cutoff(self):
        # All 25 generators are reversible, and the scan must run at k = 1.
        a = vs(AXIS_PAIRS_25, 2)
        with pytest.raises(CapacityError, match="cutoff"):
            check_lineality_hypothesis(a, 1)

    def test_gate_fires_before_any_linearity_test(self, monkeypatch):
        calls = []
        real = helly._lp_separator
        monkeypatch.setattr(helly, "_lp_separator",
                            lambda rows: calls.append(1) or real(rows))
        helly._witness_answers.cache_clear()
        with pytest.raises(CapacityError):
            witness_lineality_enum(vs(AXIS_PAIRS_25, 2), 1)
        assert calls == []

    @settings(max_examples=60, deadline=None)
    @given(int_vector_sets(max_d=3, max_n=5, bound=2))
    def test_matches_direct_subset_scan(self, a):
        for k in range(1, a.ambient_dim + 1):
            cap = min(bound_h(k, a.ambient_dim), len(a))
            assert check_lineality_hypothesis(a, k) == \
                oracle_check_hypothesis(a, k, cap)


class TestWitnessExtractors:
    def test_simplex_like_whole_set(self):
        for d in (2, 3):
            a = gen_simplex_like(d)
            w = witness_lineality_enum(a, d - 1)
            assert w.subset_indices == tuple(range(d + 1))
            assert w.size_bound == bound_h(d - 1, d)

    def test_axis_pairs_need_all_vectors(self):
        for k in (2, 3):
            a = gen_axis_pairs(k, k)
            w = witness_lineality_enum(a, k - 1)
            assert len(w.subset_indices) == 2 * k
            assert 2 * k <= bound_h(k - 1, k)

    def test_reay_witness_on_axis_pairs(self):
        a = gen_axis_pairs(2, 2)
        w = witness_lineality_reay(a, 1)
        assert len(w.subset_indices) == 4

    def test_embedded_pairs_in_three_dims(self):
        a = vs([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]], 3)
        w = witness_lineality_reay(a, 1)
        assert len(w.subset_indices) == 4
        assert bound_h(1, 3) == 4

    def test_few_reversible_among_many_vectors(self):
        # 25 vectors, of which only the axis pairs of the plane z = 0 are
        # reversible: the gate counts those 4, not the 25.
        rows = [[(i % 5) - 2, (i // 5) - 2, 1] for i in range(21)]
        for i, v in zip((3, 8, 15, 22), ([1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0])):
            rows.insert(i, v)
        a = vs(rows, 3)
        assert len(a) == 25
        for witness in (witness_lineality_enum, witness_lineality_reay):
            assert witness(a, 1).subset_indices == (3, 8, 15, 22)

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            witness_lineality_enum(vs([[1, 0], [-1, 0]], 2), 0)

    def test_rejects_satisfied_conclusion(self):
        # Lineality 0 and lineality 1, both at most k = 1.
        for witness in (witness_lineality_enum, witness_lineality_reay):
            for rows in ([[1, 0], [0, 1]], [[1, 0], [-1, 0]]):
                with pytest.raises(ValueError):
                    witness(vs(rows, 2), 1)

    @settings(max_examples=50, deadline=None)
    @given(int_vector_sets(max_d=3, max_n=5, bound=2))
    def test_enum_witness_is_lex_first_minimal(self, a):
        d = a.ambient_dim
        ldim = lineality_space(a).dim
        for k in range(1, d + 1):
            if ldim <= k:
                continue
            w = witness_lineality_enum(a, k)
            expect = oracle_minimal_witness(a, k, bound_h(k, d))
            assert w.subset_indices == expect


def _pool_and_plain(a, threshold):
    """(the pooled search's witness and LP calls, the plain scan's witness,
    candidates scanned and LP calls), both run cold on a."""
    reversible_indices(a)  # its deflation LPs belong to neither search
    with counting_lps() as plain_lps:
        want, scanned = plain_minimal_witness(a, threshold)
    # Neither the deflation nor the plain scan may leave the pooled search
    # a stored answer: each of its LPs is then counted.
    for memo in (helly._witness_answers, cone._lp_separator, rank_of_rows):
        memo.cache_clear()
    with counting_lps() as pool_lps:
        got = helly._minimal_lineality_witness(a, threshold)
    return got, len(pool_lps), want, scanned, len(plain_lps)


@st.composite
def _closed_sets(draw):
    """Up to 8 vectors in R^1..R^4 and minus their sum: every generator
    is reversible, so the search has the most subsets to scan."""
    a = draw(int_vector_sets(max_d=4, max_n=8, bound=2, min_n=1))
    minus_sum = tuple(-sum(col) for col in zip(*a.vectors))
    return VectorSet(a.ambient_dim, a.vectors + (minus_sum,))


class TestCutPool:
    """The cut pool changes what the witness search costs, not what it
    finds: the plain scan of tests/oracles.py is the reference."""

    @pytest.mark.parametrize("trial", [13, 16, 25, 48])
    def test_fuzz_trials_at_every_threshold(self, trial):
        _, a = trial_instance(POS_FUZZ, trial)
        for threshold in range(a.ambient_dim + 1):
            got, _, want, _, _ = _pool_and_plain(a, threshold)
            assert got == want, threshold

    def test_lps_reach_at_most_a_tenth_of_the_candidates(self):
        # The seed cuts alone leave about a third of the candidates of
        # this search to the LP; the learned cuts settle nearly all of those.
        a = gen_random(6, 16, 3, 1)
        got, pool_lps, want, scanned, _ = _pool_and_plain(a, 2)
        assert got == want is not None
        assert pool_lps * 10 <= scanned

    def test_search_skips_the_sign_pretest(self, monkeypatch):
        # Its seed cuts hold every functional the pretest can return, so
        # a candidate they leave goes straight to the LP.
        a = gen_random(6, 16, 3, 1)
        reversible_indices(a)  # the deflation does use the pretest
        helly._witness_answers.cache_clear()
        monkeypatch.setattr(cone, "_sign_farkas", lambda rest, x: pytest.fail(
            "sign pretest inside the witness search"))
        assert helly._minimal_lineality_witness(a, 2) is not None

    @settings(max_examples=80, deadline=None)
    @given(_closed_sets())
    def test_same_witness_as_the_plain_scan(self, a):
        for threshold in range(a.ambient_dim + 1):
            got, pool_lps, want, _, plain_lps = _pool_and_plain(a, threshold)
            assert got == want
            assert pool_lps <= plain_lps


class TestSharedAnswers:
    """One memo per instance: a threshold resumes after the witness of
    the largest answered threshold below, and finds what a cold search
    finds."""

    def test_memo_is_among_the_cleared_caches(self):
        assert helly._witness_answers in CACHES

    @settings(max_examples=60, deadline=None)
    @given(with_negated_copies(_closed_sets(), max_copies=2), st.data())
    def test_any_order_of_thresholds(self, a, data):
        thresholds = range(a.ambient_dim + 1)
        cold = {}
        for t in thresholds:
            helly._witness_answers.cache_clear()
            cold[t] = helly._minimal_lineality_witness(a, t)
            assert cold[t] == plain_minimal_witness(a, t)[0], t
        shuffled = data.draw(st.permutations(thresholds))
        for order in (thresholds, reversed(thresholds), shuffled):
            helly._witness_answers.cache_clear()
            assert {t: helly._minimal_lineality_witness(a, t) for t in order} == cold

    def test_resumes_within_the_size_of_the_witness_below(self):
        # The witness at 1 is the axis pairs of a plane, of rank 2; at 2 it
        # is the next linear 4-set in order, a simplex basis of rank 3.
        a = vs([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1],
                [-1, -1, -1]], 3)
        assert [helly._minimal_lineality_witness(a, t) for t in range(4)] == \
            [(0, 1), (0, 1, 2, 3), (0, 2, 4, 5), None]

    @pytest.mark.parametrize("trial", [13, 16, 25, 48])
    def test_witness_below_answers_without_an_lp(self, trial):
        # The threshold-1 witness has rank 5, so it is the witness at 2-4.
        _, a = trial_instance(POS_FUZZ, trial)
        w = helly._minimal_lineality_witness(a, 1)
        cone._lp_separator.cache_clear()
        with counting_lps() as lps:
            assert [helly._minimal_lineality_witness(a, t) for t in (2, 3, 4)] == [w] * 3
        assert lps == []

    @pytest.mark.parametrize("trial", [13, 16, 25, 48])
    def test_threshold_zero_is_the_witness_at_one(self, trial):
        # No two representatives are antipodal, so threshold 0 reads the
        # answer at 1 off the memo.
        _, a = trial_instance(POS_FUZZ, trial)
        members = reversible_indices(a)
        reps = helly._class_representatives(a.int_rows, members)
        assert helly._antipodal_pair(a.int_rows, reps) is None
        w = helly._minimal_lineality_witness(a, 1)
        cone._lp_separator.cache_clear()
        with counting_lps() as lps:
            assert helly._minimal_lineality_witness(a, 0) == w
        assert lps == []
        assert w == plain_minimal_witness(a, 0)[0]

    def test_threshold_zero_takes_the_first_antipodal_pair(self):
        a = gen_axis_pairs(3, 3)
        reversible_indices(a)  # its deflation LPs come before the search
        with counting_lps() as lps:
            assert helly._minimal_lineality_witness(a, 0) == (0, 1)
        assert lps == []
        # The pair is the lex-first one, also when its vectors are not
        # adjacent and an earlier vector has no partner.
        b = vs([[1, 1], [0, 1], [2, 0], [-1, 0], [0, -3]], 2)
        assert helly._minimal_lineality_witness(b, 0) == (1, 4) \
            == plain_minimal_witness(b, 0)[0]

    def test_gate_fires_at_every_threshold_before_any_lp(self):
        a = vs(AXIS_PAIRS_25, 2)
        reversible_indices(a)  # its deflation LPs come before the search
        with counting_lps() as lps:
            for t in (0, 1):
                with pytest.raises(CapacityError, match="cutoff"):
                    helly._minimal_lineality_witness(a, t)
            assert helly._minimal_lineality_witness(a, 2) is None
        assert lps == []


@st.composite
def _sets_with_parallels(draw):
    """A set with positive multiples of some of its vectors and zero
    vectors added, all shuffled, so a multiple may come before the vector
    it repeats."""
    a = draw(int_vector_sets(max_d=4, max_n=5, bound=2, min_n=1))
    rows = list(a.int_rows)
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)):
        rows.append(tuple(draw(st.integers(2, 3)) * x for x in rows[i]))
    rows += [(0,) * a.ambient_dim] * draw(st.integers(0, 2))
    order = draw(st.permutations(range(len(rows))))
    return VectorSet(a.ambient_dim, [rows[i] for i in order])


# +-e_1..+-e_9 and +-2e_1..+-2e_3 in R^10: 24 reversible generators in
# 18 positive-parallel classes.
AXIS_MULTIPLES = ([tuple(s * int(i == j) for i in range(10)) for j in range(9)
                   for s in (1, -1)]
                  + [tuple(s * 2 * int(i == j) for i in range(10)) for j in range(3)
                     for s in (1, -1)])


class TestParallelClasses:
    """The scan runs over the first generator of each positive-parallel
    class and finds what the plain scan over all of them finds."""

    def test_key_keeps_the_sign(self):
        a = vs([[1], [-1], [2], [-2]], 1)
        assert helly._class_representatives(a.int_rows, range(4)) == [0, 1]
        assert helly._minimal_lineality_witness(a, 0) == (0, 1)

    def test_zero_rows_and_later_multiples_are_dropped(self):
        a = vs([[0, 0], [2, 4], [-1, 0], [1, 2], [0, 0], [-3, 0], [0, -1]], 2)
        assert helly._class_representatives(a.int_rows, range(7)) == [1, 2, 6]

    @settings(max_examples=60, deadline=None)
    @given(_sets_with_parallels())
    def test_same_witness_as_the_plain_scan(self, a):
        for t in range(a.ambient_dim + 1):
            assert helly._minimal_lineality_witness(a, t) == plain_minimal_witness(a, t)[0], t

    def test_no_lp_on_two_positive_multiples(self, monkeypatch):
        a = VectorSet(10, AXIS_MULTIPLES)
        assert len(reversible_indices(a)) == 24  # within the capacity gate
        separator = helly._lp_separator

        def one_per_class(rows):
            # Each row is a multiple of an axis vector, so dividing it by
            # its largest absolute entry gives its class.
            primitive = {tuple(x // max(map(abs, r)) for x in r) for r in rows}
            assert len(primitive) == len(rows), rows
            return separator(rows)

        monkeypatch.setattr(helly, "_lp_separator", one_per_class)
        assert witness_lineality_enum(a, 8).subset_indices == tuple(range(18))


class TestConeHelly:
    def test_example1_whole_family_witness(self):
        for d in (2, 3, 4):
            h = HalfspaceSystem(gen_simplex_like(d))
            rep = verify_cone_helly(h, 1)
            assert not rep.conclusion
            assert not rep.hypothesis
            assert rep.witness.subset_indices == tuple(range(d + 1))
            assert d + 1 <= rep.bounds.m == bound_m(1, d)

    def test_example2_meets_bound_exactly(self):
        for d in (3, 5):
            for k in range(1, d + 1):
                h = gen_example2(d, k)
                rep = verify_cone_helly(h, k)
                assert not rep.conclusion
                size = len(rep.witness.subset_indices)
                assert size == 2 * (d - k + 1)
                assert size <= rep.bounds.m

    def test_single_halfspace_all_good(self):
        rep = verify_cone_helly(HalfspaceSystem(vs([[-1, 0]], 2)), 1)
        assert rep.hypothesis and rep.conclusion
        assert rep.witness is None

    def test_k_equals_d(self):
        rep = verify_cone_helly(HalfspaceSystem(vs([[1, 0], [-1, 0]], 2)), 2)
        assert not rep.conclusion
        assert rep.witness is not None
        assert max_cone_dim(HalfspaceSystem(
            vs([[1, 0], [-1, 0]], 2).subset(rep.witness.subset_indices))) < 2

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            verify_cone_helly(HalfspaceSystem(vs([[-1, 0]], 2)), 0)

    @settings(max_examples=60, deadline=None)
    @given(int_vector_sets(max_d=3, max_n=6, bound=2, min_n=1, nonzero=True))
    def test_cone_and_corollary_share_the_lex_first_witness(self, a):
        h = HalfspaceSystem(a)
        d = a.ambient_dim
        dims = {}  # the oracle's lineality dimension of each subset, for every k
        for k in range(1, d + 1):
            # Each side runs its own search, not the other's memoized one.
            helly._witness_answers.cache_clear()
            cone = verify_cone_helly(h, k).witness
            helly._witness_answers.cache_clear()
            cor = corollary_check(h, k).witness
            expect = oracle_minimal_witness(a, d - k, bound_m(k, d), dims)
            got = [None if w is None else w.subset_indices for w in (cone, cor)]
            assert got == [expect, expect]


class TestCorollary:
    def test_example2(self):
        for d in (3, 5):
            for k in range(1, d + 1):
                rep = corollary_check(gen_example2(d, k), k)
                assert rep.rank == k - 1
                assert not rep.global_holds
                assert not rep.subsystems_hold
                assert len(rep.witness.subset_indices) <= rep.bounds.m

    def test_empty_system(self):
        h = HalfspaceSystem(VectorSet(3, ()))
        for k in (1, 2, 3):
            rep = corollary_check(h, k)
            assert rep.rank == 3
            assert rep.global_holds and rep.subsystems_hold
            assert rep.witness is None

    def test_example1(self):
        for d in (2, 3):
            rep = corollary_check(HalfspaceSystem(gen_simplex_like(d)), 1)
            assert rep.rank == 0
            assert rep.witness.subset_indices == tuple(range(d + 1))
            assert d + 1 <= 2 * d or d == 1


class TestFlatHelly:
    def test_independent_normals_witnessed(self):
        h = HalfspaceSystem(vs([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3))
        rep = check_flat_helly(h, 2)
        assert not rep.subspace_conclusion
        assert rep.witness.subset_indices == (0, 1, 2)

    def test_rank_two_normals_hold(self):
        h = HalfspaceSystem(vs([[1, 0, 0], [2, 0, 0], [1, 1, 0]], 3))
        rep = check_flat_helly(h, 2)
        assert rep.normal_rank == 2
        assert rep.subspace_conclusion
        assert rep.all_small_subsets_dependent
        assert rep.witness is None

    def test_example2_rank_consistency(self):
        for d in (3, 4):
            for k in range(1, d + 1):
                h = gen_example2(d, k)
                m = d - k + 1
                rep = check_flat_helly(h, m)
                # rank of the normals is exactly m, so m+1 normals are
                # always dependent and the conclusion holds
                assert rep.normal_rank == m
                assert rep.subspace_conclusion

    def test_k_zero_accepted(self):
        h = HalfspaceSystem(vs([[1, 0]], 2))
        rep = check_flat_helly(h, 0)
        assert not rep.subspace_conclusion
        assert rep.witness.subset_indices == (0,)

    def test_k_zero_empty_system(self):
        rep = check_flat_helly(HalfspaceSystem(VectorSet(2, ())), 0)
        assert rep.subspace_conclusion
        assert rep.all_small_subsets_dependent

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda r: st.tuples(
        st.just(r), int_vector_sets(max_d=5, max_n=8, bound=2, min_n=1, nonzero=True))))
    def test_greedy_witness_is_lex_first(self, data):
        # Normals of rank at most r (their first r coordinates, or e_1
        # where those vanish), so for k >= r no (k+1)-subset is independent.
        r, a = data
        d = a.ambient_dim
        e1 = (F(1),) + (F(0),) * (d - 1)
        low = [v[:r] + (F(0),) * (d - r) if any(v[:r]) else e1 for v in a]
        h = HalfspaceSystem(VectorSet(d, tuple(low)))
        for k in range(0, d + 1):
            rep = check_flat_helly(h, k)
            want = oracle_first_independent(h.normals, k + 1)
            assert (rep.witness and rep.witness.subset_indices) == (want or None)


class TestTheoremAsProperty:
    @settings(max_examples=60, deadline=None)
    @given(int_vector_sets(max_d=3, max_n=6, bound=2))
    def test_pos_hypothesis_implies_conclusion(self, a):
        for k in range(1, a.ambient_dim + 1):
            if check_lineality_hypothesis(a, k):
                assert lineality_space(a).dim <= k

    @settings(max_examples=60, deadline=None)
    @given(int_vector_sets(max_d=3, max_n=6, bound=2, min_n=1, nonzero=True))
    def test_cone_hypothesis_implies_conclusion(self, a):
        h = HalfspaceSystem(a)
        for k in range(1, a.ambient_dim + 1):
            rep = verify_cone_helly(h, k)
            if rep.hypothesis:
                assert rep.conclusion

    @settings(max_examples=40, deadline=None)
    @given(int_vector_sets(max_d=3, max_n=6, bound=2))
    def test_witness_soundness(self, a):
        d = a.ambient_dim
        ldim = lineality_space(a).dim
        for k in range(1, d + 1):
            if ldim <= k:
                continue
            w_enum = witness_lineality_enum(a, k)
            w_reay = witness_lineality_reay(a, k)
            for w in (w_enum, w_reay):
                assert len(w.subset_indices) <= bound_h(k, d)
                assert lineality_space(a.subset(w.subset_indices)).dim > k
            assert len(w_enum.subset_indices) <= len(w_reay.subset_indices)
