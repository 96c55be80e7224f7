import json
import os

import pytest

from conehelly.cli import instance_to_json
from conehelly.cone import lineality_space
from conehelly.gens import (
    SplitMix64,
    gen_axis_pairs,
    gen_example2,
    gen_random,
    gen_simplex_like,
    verify_tightness_example1,
    verify_tightness_example2,
)
from conehelly.ratlin import rank_of_rows, vec

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


class TestSimplexLike:
    def test_d2_values(self):
        assert gen_simplex_like(2).vectors == (
            vec([1, 0]), vec([0, 1]), vec([-1, -1]))

    def test_sums_to_zero(self):
        for d in (1, 3, 6):
            total = [sum(v[i] for v in gen_simplex_like(d)) for i in range(d)]
            assert all(c == 0 for c in total)

    def test_every_d_subset_full_rank(self):
        from itertools import combinations

        for d in range(1, 7):
            a = gen_simplex_like(d)
            for sub in combinations(range(d + 1), d):
                assert rank_of_rows(a.subset(sub).int_rows, d) == d

    def test_lineality_structure(self):
        from itertools import combinations

        for d in (2, 3):
            a = gen_simplex_like(d)
            assert lineality_space(a).dim == d
            for size in range(d + 1):
                for sub in combinations(range(d + 1), size):
                    assert lineality_space(a.subset(sub)).dim == 0


class TestAxisPairs:
    def test_k1_d2(self):
        assert gen_axis_pairs(1, 2).vectors == (vec([1, 0]), vec([-1, 0]))

    def test_lineality_dim(self):
        for d in range(1, 6):
            for k in range(1, d + 1):
                assert lineality_space(gen_axis_pairs(k, d)).dim == k

    def test_single_removal_drops_dimension(self):
        for d in range(1, 5):
            for k in range(1, d + 1):
                a = gen_axis_pairs(k, d)
                for j in range(len(a)):
                    sub = a.subset([i for i in range(len(a)) if i != j])
                    assert lineality_space(sub).dim < k

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            gen_axis_pairs(3, 2)


class TestExample2:
    def test_d2_k1(self):
        h = gen_example2(2, 1)
        assert h.normals.vectors == (
            vec([1, 0]), vec([-1, 0]), vec([0, 1]), vec([0, -1]))

    def test_counts(self):
        for d in range(1, 6):
            for k in range(1, d + 1):
                assert len(gen_example2(d, k)) == 2 * (d - k + 1)


class TestGenRandom:
    def test_deterministic_across_generators(self):
        a = gen_random(4, 9, 3, 123456789)
        b = gen_random(4, 9, 3, 123456789)
        assert a == b

    def test_no_zero_vectors(self):
        for seed in range(20):
            a = gen_random(3, 10, 1, seed)
            assert all(any(c != 0 for c in v) for v in a)

    def test_entries_within_bound(self):
        a = gen_random(5, 20, 2, 99)
        assert all(-2 <= c <= 2 for v in a for c in v)

    def test_golden_file(self):
        with open(os.path.join(FIXTURES, "gen_random_d3_n8_b2_s1.json")) as fh:
            want = json.load(fh)
        got = instance_to_json(gen_random(3, 8, 2, 1), "generators")
        assert got == want

    def test_splitmix_reference_values(self):
        # First outputs for seed 0; pinned so ports can cross-check.
        rng = SplitMix64(0)
        assert rng.next_u64() == 16294208416658607535
        assert rng.next_u64() == 7960286522194355700

    def test_negative_seed_masked(self):
        assert gen_random(2, 3, 2, -1) == gen_random(2, 3, 2, (1 << 64) - 1)


class TestTightness:
    # Neither term of m(k,d) = max(d+1, 2(d-k+1)) can be lowered, for every
    # d <= 6: the simplex-like system needs all d+1 members, the axis-pair
    # system all 2(d-k+1) halfspaces.
    def test_example1_small(self):
        for d in range(1, 7):
            assert verify_tightness_example1(d)

    def test_example2_small(self):
        for d in range(1, 7):
            for k in range(1, d + 1):
                assert verify_tightness_example2(d, k)

    def test_example2_top_k_single_pair(self):
        assert verify_tightness_example2(6, 6)
