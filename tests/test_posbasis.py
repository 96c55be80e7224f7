import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conehelly import cone, posbasis
from conehelly.cone import is_linear, lineality_space, reversible_indices
from conehelly.fuzzing import trial_instance
from conehelly.gens import gen_axis_pairs, gen_simplex_like
from conehelly.helly import witness_lineality_reay
from conehelly.posbasis import (
    PositiveBasis,
    extract_positive_basis,
    extract_positive_basis_indices,
    is_positive_basis,
    reay_partition,
    reay_parts,
    verify_reay,
)
from conehelly.ratlin import SubspaceBasis, VectorSet, span_basis, vec

from conftest import POS_FUZZ, counting_lps, int_vector_sets, with_negated_copies
from oracles import (
    oracle_is_positive_basis,
    oracle_reay_parts,
    oracle_reversible,
    ref_extract_positive_basis_indices,
)

F = Fraction


def vs(rows, d):
    return VectorSet.from_rows(rows, d)


def line(d, axis=0):
    basis = [0] * d
    basis[axis] = 1
    return SubspaceBasis(d, (vec(basis),))


class TestIsPositiveBasis:
    def test_opposite_pair(self):
        assert is_positive_basis(vs([[1, 0], [-1, 0]], 2), line(2))

    def test_redundant_triple_is_not_minimal(self):
        assert not is_positive_basis(vs([[1, 0], [-1, 0], [2, 0]], 2), line(2))

    def test_simplex_like_is_positive_basis_of_everything(self):
        for d in (2, 3, 4):
            a = gen_simplex_like(d)
            full = span_basis(a.int_rows, d)
            assert full.dim == d
            assert is_positive_basis(a, full)

    def test_wrong_target(self):
        assert not is_positive_basis(vs([[1, 0], [-1, 0]], 2), line(2, axis=1))

    def test_empty_set_is_basis_of_zero_subspace(self):
        assert is_positive_basis(VectorSet(2, ()), SubspaceBasis(2, ()))

    def test_spanning_but_not_minimal(self):
        a = vs([[1, 0], [0, 1], [-1, 0], [0, -1], [-1, -1]], 2)
        full = span_basis(a.int_rows, 2)
        assert not is_positive_basis(a, full)
        assert not oracle_is_positive_basis(a, full)
        assert is_positive_basis(a.subset([0, 1, 4]), full)
        assert oracle_is_positive_basis(a.subset([0, 1, 4]), full)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_brute_force_on_subsets(self, data):
        # Negated copies give the instance a lineality space; the reversible
        # generators minus a few then span it, minimally or not, while
        # arbitrary subsets mostly do not.
        base = data.draw(int_vector_sets(max_d=3, max_n=4, bound=2, min_n=1))
        negate = sorted(data.draw(st.sets(st.sampled_from(range(len(base))))))
        a = VectorSet(base.ambient_dim, base.vectors + tuple(
            tuple(-c for c in base[i]) for i in negate))
        target = lineality_space(a)
        pool = data.draw(st.sampled_from([range(len(a)), reversible_indices(a)]))
        drop = data.draw(st.sets(st.sampled_from(pool))) if pool else set()
        x = a.subset([i for i in pool if i not in drop])
        assert is_positive_basis(x, target) == oracle_is_positive_basis(x, target)


class TestExtract:
    def test_drops_unreversible(self):
        pb = extract_positive_basis(vs([[1, 0], [-1, 0], [0, 1]], 2))
        assert pb.elements.vectors == (vec([1, 0]), vec([-1, 0]))
        assert pb.target.dim == 1

    def test_axis_pairs_already_minimal(self):
        for d in (1, 2, 3):
            a = gen_axis_pairs(d, d)
            pb = extract_positive_basis(a)
            assert pb.elements == a

    def test_greedy_deletion_order(self):
        # Trace: e1 deletes (since -e1 and 2e1 still span the line both
        # ways), then nothing else can go.
        pb = extract_positive_basis(vs([[1, 0], [-1, 0], [2, 0], [0, 1]], 2))
        assert pb.elements.vectors == (vec([-1, 0]), vec([2, 0]))

    def test_indices_follow_input_order(self):
        kept = extract_positive_basis_indices(vs([[1, 0], [-1, 0], [2, 0], [0, 1]], 2))
        assert kept == (1, 2)

    @settings(max_examples=80, deadline=None)
    @given(with_negated_copies(int_vector_sets(max_d=3, max_n=5, bound=2)))
    def test_matches_the_reference_greedy(self, a):
        # Negated copies give most drawn sets a lineality space, so most
        # deletions are decided by the membership LP.
        assert extract_positive_basis_indices(a) == ref_extract_positive_basis_indices(a)

    @pytest.mark.parametrize("trial", [13, 16, 25, 48])
    def test_fuzz_trials_match_the_reference_greedy(self, trial):
        _, a = trial_instance(POS_FUZZ, trial)
        assert extract_positive_basis_indices(a) == ref_extract_positive_basis_indices(a)

    def test_one_membership_lp_per_member_examined(self, monkeypatch):
        # The deletion test asks no rank, only one LP; the
        # one rank left is that of the target, the lineality dimension.
        _, a = trial_instance(POS_FUZZ, 16)
        members = reversible_indices(a)  # its deflation LPs come first
        ranks = []
        rank = cone.rank_of_rows
        monkeypatch.setattr(cone, "rank_of_rows",
                            lambda rows, d: ranks.append(rows) or rank(rows, d))
        monkeypatch.setattr(posbasis, "rank_of_rows", lambda *args: pytest.fail(
            "rank in a drop-one test"))
        with counting_lps() as lps:
            kept = extract_positive_basis_indices(a)
        assert ranks == [[a.int_rows[i] for i in members]]
        # Members are examined in order, and the size rule stops the loop
        # once the last deletion leaves dim + 1 of them.
        assert len(kept) == a.ambient_dim + 1  # the lineality space is R^5
        dropped = [i for i in members if i not in kept]
        assert 0 < len(lps) <= members.index(dropped[-1]) + 1

    @settings(max_examples=80, deadline=None)
    @given(int_vector_sets(max_d=3, max_n=6, bound=2))
    def test_output_is_positive_basis_of_the_lineality(self, a):
        pb = extract_positive_basis(a)  # construction re-certifies
        target = lineality_space(a)
        assert pb.target.dim == target.dim
        assert is_positive_basis(pb.elements, target)
        m = target.dim
        if m == 0:
            assert len(pb) == 0
        else:
            assert m + 1 <= len(pb) <= 2 * m


class TestSizeRule:
    """For dim > 0, dim vectors never positively span a dim-dimensional
    space, so certification and extraction ask no rank or LP of them."""

    @pytest.fixture
    def separators(self, monkeypatch):
        calls = []
        separator = cone._lp_separator
        monkeypatch.setattr(cone, "_lp_separator",
                            lambda rows: calls.append(rows) or separator(rows))
        return calls

    def test_simplex_certified_by_one_linearity(self, separators):
        a = gen_simplex_like(5)
        assert is_positive_basis(a, span_basis(a.int_rows, 5))
        assert len(separators) == 1  # 7 without the rule

    def test_simplex_extracted_and_certified_by_two(self, separators):
        pb = extract_positive_basis(gen_simplex_like(5))
        assert len(pb) == 6
        assert len(separators) == 2  # 14 without the rule

    def test_dim_vectors_ask_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("asked a rank or an LP")

        monkeypatch.setattr(posbasis, "rank_of_rows", refuse)
        monkeypatch.setattr(cone, "_lp_separator", refuse)
        for d in (1, 2, 3):
            for n in range(d + 1):
                rows = list(gen_simplex_like(d).int_rows[:n])
                assert not posbasis._minimally_spans(rows, d, d)

    def test_dim_zero_keeps_the_empty_basis(self):
        zero = SubspaceBasis(2, ())
        assert is_positive_basis(VectorSet(2, ()), zero)
        assert not is_positive_basis(vs([[0, 0]], 2), zero)
        assert extract_positive_basis_indices(vs([[0, 0], [1, 0], [0, 0]], 2)) == ()

    @settings(max_examples=80, deadline=None)
    @given(int_vector_sets(max_d=3, max_n=7, bound=2))
    def test_extraction_matches_the_full_greedy(self, a):
        # The greedy deletion of the docstring, run to the end.
        assert extract_positive_basis_indices(a) == ref_extract_positive_basis_indices(a)


class TestDropOneCertificate:
    """The extraction and the Reay search ask the drop-one test of cone,
    which signs settle with no LP on axis pairs."""

    @pytest.mark.parametrize("k, d", [(1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5)])
    def test_axis_pairs_match_the_reference_greedy(self, k, d):
        a = gen_axis_pairs(k, d)
        assert extract_positive_basis_indices(a) == ref_extract_positive_basis_indices(a)

    def test_axis_pair_lp_counts(self):
        # Every drop-one test of a Reay prefix of axis pairs is settled by
        # signs; the LPs left are the linearity certificates (12 and 25
        # LPs when each drop-one test was an LP).
        pb = extract_positive_basis(gen_axis_pairs(3, 3))
        with counting_lps() as lps:
            assert reay_parts(pb) == ((0, 1), (2, 3), (4, 5))
        assert len(lps) == 2
        with counting_lps() as lps:
            witness_lineality_reay(gen_axis_pairs(3, 4), 2)
        assert len(lps) == 3


def reay_checked(pb):
    """reay_parts of pb, after verify_reay has accepted them."""
    parts = reay_parts(pb)
    assert verify_reay(pb.elements, parts)
    return parts


class TestReayPartition:
    def test_single_pair(self):
        pb = PositiveBasis(target=line(2), elements=vs([[1, 0], [-1, 0]], 2))
        assert reay_checked(pb) == ((0, 1),)

    def test_axis_pairs_split_into_pairs(self):
        pb = extract_positive_basis(gen_axis_pairs(2, 2))
        assert [len(part) for part in reay_checked(pb)] == [2, 2]
        p = reay_partition(pb)
        groups = {frozenset(part.vectors) for part in p.parts}
        assert groups == {
            frozenset({vec([1, 0]), vec([-1, 0])}),
            frozenset({vec([0, 1]), vec([0, -1])}),
        }

    def test_simplex_like_is_one_part(self):
        for d in (2, 3, 4):
            pb = extract_positive_basis(gen_simplex_like(d))
            assert reay_checked(pb) == (tuple(range(d + 1)),)

    def test_mixed_structure(self):
        a = vs([[1, 0, 0], [0, 1, 0], [-1, -1, 0], [0, 0, 1], [0, 0, -1]], 3)
        pb = extract_positive_basis(a)
        assert [len(part) for part in reay_checked(pb)] == [3, 2]

    def test_rejects_non_basis_input(self):
        with pytest.raises(ValueError):
            PositiveBasis(target=line(2), elements=vs([[1, 0], [-1, 0], [2, 0]], 2))

    @settings(max_examples=50, deadline=None)
    @given(int_vector_sets(max_d=3, max_n=6, bound=2))
    def test_partition_always_verifies(self, a):
        pb = extract_positive_basis(a)
        parts = reay_checked(pb)
        # the vector view holds the same parts
        p = reay_partition(pb)
        assert p.parts == tuple(pb.elements.subset(part) for part in parts)
        # prefix dimension grows at least linearly in the part count
        prefix = []
        for j, part in enumerate(p.parts, start=1):
            prefix.extend(part.vectors)
            assert span_basis(VectorSet(a.ambient_dim, tuple(prefix)).int_rows,
                              a.ambient_dim).dim >= j


# Planar simplices on e1, e2 and on e3, e4, and the pair +-e5.  No four
# of these vectors positively span a 3-space, so the first size profile
# (4, 2, 2) fails and the search falls back to (3, 3, 2).
R5_BLOCKS = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (-1, -1, 0, 0, 0),
             (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, -1, -1, 0),
             (0, 0, 0, 0, 1), (0, 0, 0, 0, -1)]


@st.composite
def block_bases(draw, max_d=5):
    """Positive bases of blocks on disjoint coordinates, planar simplices
    e_i, e_j, -e_i - e_j and axis pairs +-e_i, with some coordinates
    left out and the vectors shuffled."""
    d = draw(st.integers(1, max_d))
    free = list(draw(st.permutations(range(d))))

    def unit(i, c=1):
        return tuple(c * (j == i) for j in range(d))

    rows = []
    while free:
        width = draw(st.integers(0, min(2, len(free))))
        if width == 1:
            i = free.pop()
            rows += [unit(i), unit(i, -1)]
        elif width == 2:
            i, j = free.pop(), free.pop()
            rows += [unit(i), unit(j), tuple(-a - b for a, b in zip(unit(i), unit(j)))]
        else:
            free.pop()
    return vs(draw(st.permutations(rows)), d)


def reay_of(a):
    """reay_parts of the positive basis a of its own span."""
    return reay_parts(PositiveBasis(span_basis(a.int_rows, a.ambient_dim), a))


class TestReayFallbackOrder:
    """The search's fallback order, a size profile that fails and the
    next one tried, against the brute force of oracle_reay_parts."""

    def test_first_profile_fails(self):
        a = vs(R5_BLOCKS, 5)
        assert list(posbasis._profiles(8, 3, 8)) == [(4, 2, 2), (3, 3, 2)]
        assert reay_of(a) == ((0, 1, 2), (3, 4, 5), (6, 7)) == oracle_reay_parts(a)

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_shuffles(self, seed):
        rows = R5_BLOCKS[:]
        random.Random(seed).shuffle(rows)
        a = vs(rows, 5)
        assert reay_of(a) == oracle_reay_parts(a)

    @settings(max_examples=40, deadline=None)
    @given(block_bases())
    def test_block_bases(self, a):
        assert reay_of(a) == oracle_reay_parts(a)


AXIS_PAIRS = vs([[1, 0], [-1, 0], [0, 1], [0, -1]], 2)


class TestVerifyReay:
    def test_bad_split_rejected(self):
        assert not verify_reay(AXIS_PAIRS, [[0, 2], [1, 3]])

    def test_single_part_of_non_basis_rejected(self):
        assert not verify_reay(vs([[1, 0], [0, 1]], 2), [[0, 1]])

    def test_size_ordering_enforced(self):
        a = vs([[0, 0, 1], [0, 0, -1], [1, 0, 0], [0, 1, 0], [-1, -1, 0]], 3)
        assert not verify_reay(a, [[0, 1], [2, 3, 4]])
        assert verify_reay(a, [[2, 3, 4], [0, 1]])

    def test_undersized_part_rejected(self):
        assert not verify_reay(vs([[1, 0]], 2), [[0]])

    def test_empty_partition_is_valid(self):
        assert verify_reay(VectorSet(2, ()), ())

    def test_parts_must_cover_the_basis(self):
        # {e1, -e1} is a Reay partition of itself, not of +-e1, +-e2
        assert verify_reay(AXIS_PAIRS.subset([0, 1]), [[0, 1]])
        assert not verify_reay(AXIS_PAIRS, [[0, 1]])
        assert not verify_reay(AXIS_PAIRS, [])
        assert verify_reay(AXIS_PAIRS, [[0, 1], [2, 3]])

    def test_overlapping_parts_rejected(self):
        assert not verify_reay(AXIS_PAIRS, [[0, 1], [0, 1], [2, 3]])
        assert not verify_reay(AXIS_PAIRS, [[0, 1, 2], [2, 3]])

    @pytest.mark.parametrize("part", [[1, 0], [0, 0, 1], [-1, 0], [0, 4],
                                      [False, 1], [0.0, 1], "01", 1])
    def test_part_must_be_an_index_set(self, part):
        assert not verify_reay(AXIS_PAIRS, [part, [2, 3]])


class TestLinear:
    def test_opposite_pair_is_linear(self):
        assert is_linear(vs([[1, 0], [-1, 0]], 2).int_rows)
        assert not is_linear(vs([[1, 0], [-1, 0], [0, 1]], 2).int_rows)

    def test_simplex_like_is_linear(self):
        assert is_linear(gen_simplex_like(2).int_rows)

    def test_duplicate_vectors_are_not_linear(self):
        assert not is_linear(vs([[1, 0], [1, 0]], 2).int_rows)

    def test_scaled_opposites(self):
        assert is_linear(vs([[2, 0], [-3, 0]], 2).int_rows)

    @settings(max_examples=150, deadline=None)
    @given(int_vector_sets(max_d=4, max_n=6, bound=2))
    def test_matches_exhaustive_reversibility(self, a):
        assert is_linear(a.int_rows) == (len(oracle_reversible(a)) == len(a))
