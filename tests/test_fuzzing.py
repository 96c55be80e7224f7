import json
import os
import sys
from collections import Counter

import pytest

import conehelly.fuzzing as fuzzing
from conehelly import cone, helly, lp, posbasis, ratlin
from conehelly.cli import EXIT_INTERNAL, instance_from_json, run
from conehelly.errors import TheoremContradiction
from conehelly.fuzzing import ALL_CHECKS, FuzzConfig, run_fuzz, trial_instance
from conehelly.gens import gen_axis_pairs
from conehelly.ratlin import VectorSet, span_basis

from conftest import CONE_FUZZ


class TestConfig:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            FuzzConfig(d_max=0, n_max=5, bound=2, trials=1, seed=0)
        with pytest.raises(ValueError):
            FuzzConfig(d_max=2, n_max=5, bound=2, trials=-1, seed=0)
        with pytest.raises(ValueError):
            FuzzConfig(d_max=2, n_max=5, bound=2, trials=1, seed=0,
                       checks=("nope",))

    def test_rejects_a_repeated_check(self):
        # run_fuzz runs each listed name, so a repeat would count twice.
        with pytest.raises(ValueError, match="repeated"):
            FuzzConfig(d_max=2, n_max=5, bound=2, trials=3, seed=0,
                       checks=("lineality", "lineality"))

    def test_defaults_cover_everything(self):
        cfg = FuzzConfig(d_max=2, n_max=4, bound=2, trials=0, seed=0)
        assert cfg.checks == ALL_CHECKS


class TestDeterminism:
    def test_trial_instance_matches_run(self):
        cfg = FuzzConfig(d_max=3, n_max=6, bound=2, trials=8, seed=42,
                         checks=("lineality",))
        # reconstruct instances the sharded way and compare dimensions
        from conehelly.gens import SplitMix64, gen_random

        base = SplitMix64(cfg.seed)
        for index in range(cfg.trials):
            expected_seed = base.next_u64()
            seed, vs = trial_instance(cfg, index)
            assert seed == expected_seed
            rng = SplitMix64(seed)
            d = rng.next_in_range(1, cfg.d_max)
            n = rng.next_in_range(1, cfg.n_max)
            assert vs == gen_random(d, n, cfg.bound, rng.next_u64())
        # an index far into the stream, which trial_instance reaches in one step
        for _ in range(cfg.trials, 1234):
            base.next_u64()
        assert trial_instance(cfg, 1234)[0] == base.next_u64()

    def test_summaries_identical(self):
        cfg = FuzzConfig(d_max=3, n_max=5, bound=2, trials=10, seed=3,
                         checks=("lineality", "posbasis"))
        a = run_fuzz(cfg)
        b = run_fuzz(cfg)
        assert a.checks_passed == b.checks_passed
        assert a.failures == b.failures

    def test_check_seconds_per_check(self):
        cfg = FuzzConfig(d_max=3, n_max=5, bound=2, trials=4, seed=3,
                         checks=("lineality", "posbasis"))
        seconds = run_fuzz(cfg).check_seconds
        assert list(seconds) == list(cfg.checks)
        assert all(s > 0 for s in seconds.values())


class TestPosHelly:
    def test_one_witness_search_per_k(self, monkeypatch):
        # axis pairs in the plane: lineality 2, so the conclusion fails at
        # k=1 (the witness search alone decides) and holds at k=2
        calls = []
        hyp = fuzzing.check_lineality_hypothesis
        monkeypatch.setattr(fuzzing, "check_lineality_hypothesis",
                            lambda vs, k: calls.append(k) or hyp(vs, k))
        fuzzing.check_pos_helly(gen_axis_pairs(2, 2))
        assert calls == [2]

    def test_missing_witness_is_a_mismatch(self, monkeypatch):
        def no_witness(vs, k):
            raise TheoremContradiction("no witness")

        monkeypatch.setattr(fuzzing, "witness_lineality_enum", no_witness)
        with pytest.raises(fuzzing.CheckFailed,
                           match="hypothesis/conclusion mismatch at k=1"):
            fuzzing.check_pos_helly(gen_axis_pairs(2, 2))


class TestLineality:
    def test_no_lp_after_the_deflation(self, monkeypatch):
        # The certificate reads the deflation's memo, so once the
        # lineality dimension is known the check solves no LP.
        solve = lp.nonneg_combination
        solved = []
        monkeypatch.setattr(lp, "nonneg_combination",
                            lambda cols, t: solved.append(t) or solve(cols, t))
        instances = [gen_axis_pairs(2, 3)] + [trial_instance(CONE_FUZZ, i)[1]
                                              for i in range(10)]
        for vs in instances:
            fuzzing.lineality_dim(vs)
            before = len(solved)
            fuzzing.check_lineality(vs)
            assert len(solved) == before, vs
        assert solved

    def test_a_basis_of_the_wrong_line_fails(self, monkeypatch):
        # The lineality space of +-e1 is the e1 axis; a basis of the e2 axis
        # has the right dimension and fails the span check.
        monkeypatch.setattr(fuzzing, "lineality_space", lambda vs: span_basis([(0, 1)], 2))
        with pytest.raises(fuzzing.CheckFailed, match="does not span"):
            fuzzing.check_lineality(gen_axis_pairs(1, 2))


class TestConeHelly:
    # Normals 0, 1 and 2 lie on the first axis and are reversible; normal 3
    # is not.  The library certifies the reversible set from both sides.
    NORMALS = [[1, 0], [-1, 0], [2, 0], [0, -1]]

    def test_passes_on_the_true_set(self):
        fuzzing.check_cone_helly(VectorSet.from_rows(self.NORMALS, 2))

    @pytest.mark.parametrize("listed, message", [
        ((0, 1), "not strict at x0"),
        ((0, 1, 2, 3), "no positive zero-combination"),
    ])
    def test_a_wrong_reversible_set_fails(self, monkeypatch, listed, message):
        # A deflation that lists the wrong set, with the true separators.
        vs = VectorSet.from_rows(self.NORMALS, 2)
        separators = cone._deflation(vs)[1]
        monkeypatch.setattr(cone, "_deflation", lambda vs: (listed, separators))
        with pytest.raises(TheoremContradiction, match=message):
            fuzzing.check_cone_helly(vs)


class TestOneAnswerPerInstance:
    """The checks of one trial share each exact fact of the instance: its
    lineality basis, certificate point and extracted positive basis are
    computed once.  The Reay search is not memoized, so its time is that
    of the search."""

    def test_each_fact_is_computed_once(self, monkeypatch):
        vs = next(vs for vs in (trial_instance(CONE_FUZZ, i)[1] for i in range(100))
                  if cone.lineality_dim(vs) >= 2)
        calls = Counter()  # (function, its caller) -> calls

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                calls[name, sys._getframe(1).f_code.co_name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(ratlin, "_gauss_jordan")
        counted(cone, "_deflation")
        # Within posbasis, only the extraction's greedy loop reads the
        # reversible generators.
        counted(posbasis, "reversible_indices")
        counted(fuzzing, "reay_parts")
        counted(helly, "reay_parts")
        fuzzing.run_trial_checks(vs)
        assert calls["_gauss_jordan", "span_basis"] == 1
        assert calls["reversible_indices", "extract_positive_basis_indices"] == 1
        assert calls["_deflation", "complementary_point"] == 1
        assert sum(n for (name, _), n in calls.items() if name == "reay_parts") == 2
        assert not hasattr(posbasis.reay_parts, "cache_clear")


class TestFailureRecording:
    def test_failure_is_captured_with_instance(self, monkeypatch):
        def broken(vs):
            raise fuzzing.CheckFailed("synthetic failure")

        monkeypatch.setitem(fuzzing._CHECK_FUNCS, "lineality", broken)
        cfg = FuzzConfig(d_max=2, n_max=3, bound=2, trials=3, seed=9,
                         checks=("lineality",))
        summary = run_fuzz(cfg)
        assert not summary.ok
        assert len(summary.failures) == 3
        f = summary.failures[0]
        assert f.check == "lineality"
        assert "synthetic failure" in f.message
        assert f.instance == trial_instance(cfg, 0)[1]  # recorded for replay

    def test_unwritable_dump_keeps_the_report(self, monkeypatch, tmp_path, capsys):
        def broken(vs):
            raise fuzzing.CheckFailed("synthetic failure")

        monkeypatch.setitem(fuzzing._CHECK_FUNCS, "lineality", broken)
        missing = tmp_path / "missing"
        code = run(["fuzz", "--trials", "1", "--checks", "lineality",
                    "--dump-dir", str(missing)])
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL
        assert len(json.loads(captured.out)["result"]["failures"]) == 1
        assert "fuzz_failure_trial0_lineality.json" in captured.err
        assert not missing.exists()

    def test_cli_dumps_and_exits_internal(self, monkeypatch, tmp_path, capsys):
        def broken(vs):
            raise fuzzing.CheckFailed("synthetic failure")

        monkeypatch.setitem(fuzzing._CHECK_FUNCS, "posbasis", broken)
        code = run(["fuzz", "--trials", "2", "--d-max", "2", "--n-max", "3",
                    "--seed", "1", "--checks", "posbasis",
                    "--dump-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == EXIT_INTERNAL
        rep = json.loads(out)
        assert len(rep["result"]["failures"]) == 2
        dumps = sorted(os.listdir(tmp_path))
        assert len(dumps) == 2
        dumped = json.loads((tmp_path / dumps[0]).read_text())
        assert dumped["check"] == "posbasis"
        cfg = FuzzConfig(d_max=2, n_max=3, bound=3, trials=2, seed=1,
                         checks=("posbasis",))
        assert instance_from_json(dumped["instance"]) \
            == (trial_instance(cfg, 0)[1], "generators")
