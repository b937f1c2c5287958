"""Relation checkers: direction, slack, equality detection, serialization."""

import dataclasses
import hashlib
import json
from fractions import Fraction

import pytest

from centrel import (FamilySpec, PreconditionError, RelationReport, all_pairs,
                     check_all, check_cor_sandwich, check_lemma1, check_lemma2,
                     check_lemma3, check_thm1, check_thm2, check_thm3,
                     check_thm4, check_thm5, check_thm6, clustering,
                     compute_report, generate, profiles, sweep_windmill)
import centrel.centralities as cents
from centrel import relations
from centrel.graphs import FamilyParameterError, Graph
from centrel.paths import orbits
from centrel.relations import neighborhoods_unique_two_paths
from centrel.serialize import csv_value, human_value, json_text
from triples import reference_clustering


def make(family, *params, seed=None):
    return generate(FamilySpec(family, params, seed=seed))


def analysed(family, *params, seed=None):
    return all_pairs(make(family, *params, seed=seed))


class TestLemma1:
    def test_k4(self):
        r = check_lemma1(analysed("complete", 4))
        assert r.holds and r.lhs == 1 and r.rhs == 1 and r.slack == 0

    def test_c5(self):
        r = check_lemma1(analysed("cycle", 5))
        assert r.holds and r.lhs == 2 and r.rhs == 2

    def test_random(self):
        r = check_lemma1(analysed("random-min-degree-2", 30, seed=7))
        assert r.holds and r.slack == 0

    @pytest.mark.parametrize("family, params, vertex, planted, lhs, rhs, slack, note", [
        # every c_i = 0 and L(N(i)) = 2; c_5 planted as 1/3
        ("hypercube", (3,), 5, (2, 6), 2, Fraction(47, 24), Fraction(1, 3),
         "vertex 5: L(N)=2 vs 2-c=5/3"),
        # the hub's c_0 = 1/3 planted as 1/2, against L(N(0)) = 5/3
        ("windmill", (2, 3), 0, (6, 12), Fraction(17, 15), Fraction(11, 10),
         Fraction(1, 6), "vertex 0: L(N)=5/3 vs 2-c=3/2"),
    ])
    def test_planted_clustering_is_named(self, monkeypatch, family, params, vertex,
                                         planted, lhs, rhs, slack, note):
        kernel = cents.prefix_clusterings

        def plant(g, sizes):
            rows, local = kernel(g, sizes)
            return rows, [planted if v == vertex else r for v, r in enumerate(local)]
        monkeypatch.setattr(cents, "prefix_clusterings", plant)
        r = check_lemma1(analysed(family, *params))
        assert (r.holds, r.lhs, r.rhs, r.slack, r.notes) == (False, lhs, rhs, slack, [note])


class TestThm1:
    def test_k4(self):
        r = check_thm1(analysed("complete", 4))
        assert r.holds and r.lhs == 1 and r.rhs == 1

    def test_c5(self):
        r = check_thm1(analysed("cycle", 5))
        assert r.holds and r.lhs == Fraction(1, 2)

    def test_windmill_5_4(self):
        r = check_thm1(analysed("windmill", 5, 4))
        assert r.holds and r.slack == 0


class TestThm2:
    def test_c5_equality(self):
        r = check_thm2(analysed("cycle", 5))
        assert r.holds and r.lhs == 0 and r.rhs == 0
        assert r.equality_expected and r.equality_observed

    def test_k4_trivial_equality(self):
        r = check_thm2(analysed("complete", 4))
        assert r.holds and r.lhs == 1 and r.rhs == 1 and r.equality_observed

    def test_c6_strict(self):
        r = check_thm2(analysed("cycle", 6))
        assert r.holds and not r.equality_expected and not r.equality_observed
        assert r.rhs <= 0  # the stress term overshoots past zero


class TestThm3:
    def test_complete_equality(self):
        r = check_thm3(analysed("complete", 6))
        assert r.holds and r.equality_expected and r.equality_observed

    @pytest.mark.parametrize("eta,k", [(2, 3), (3, 3), (2, 4), (3, 4)])
    def test_windmill_equality(self, eta, k):
        r = check_thm3(analysed("windmill", eta, k))
        assert r.holds and r.equality_expected and r.equality_observed

    def test_c4_strict(self):
        g = make("cycle", 4)
        r = check_thm3(all_pairs(g))
        assert r.holds and r.rhs == Fraction(1, 2) and r.lhs == 0
        assert not r.equality_expected and not r.equality_observed

    def test_c4_shows_why_clique_unions_are_not_enough(self):
        # the induced neighborhoods of a 4-cycle are clique unions (two
        # isolated vertices), yet the antipodal pair has two 2-hop routes,
        # so the bound stays strict; the detector must look at path counts
        assert not neighborhoods_unique_two_paths(analysed("cycle", 4))

    def test_detectors_agree_on_windmills(self):
        for eta, k in [(2, 3), (4, 4), (3, 5)]:
            assert neighborhoods_unique_two_paths(analysed("windmill", eta, k))


class TestCorSandwich:
    def test_k4(self):
        r = check_cor_sandwich(analysed("complete", 4))
        assert r.holds and r.lhs == 0 and r.rhs == 0

    def test_c5(self):
        r = check_cor_sandwich(analysed("cycle", 5))
        assert r.holds and r.lhs == 1 and r.rhs == 1

    def test_random(self):
        r = check_cor_sandwich(analysed("random-min-degree-2", 25, seed=3))
        assert r.holds

    def test_planted_stress_fault_is_named(self):
        # windmill(2,3): Str(1) = 0 is planted as -1; the orbit {1, 2, 3, 4}
        # reads it at vertex 1, whose right side becomes -1/2 < mid = 0
        an = analysed("windmill", 2, 3)
        stress = list(an.stress)
        stress[1] -= 1
        r = check_cor_sandwich(dataclasses.replace(an, stress=stress))
        assert not r.holds and r.slack == Fraction(-1, 2)
        assert r.notes == ["vertex 1: 0 <= 0 <= -1/2 fails"]


class TestLemma2:
    def test_complete_equality(self):
        r = check_lemma2(analysed("complete", 5))
        assert r.holds and r.equality_observed and r.lhs == 1

    def test_c5_equality(self):
        r = check_lemma2(analysed("cycle", 5))
        assert r.holds and r.equality_expected and r.equality_observed
        assert r.lhs == Fraction(2, 3)

    def test_windmill_strict(self):
        an = analysed("windmill", 2, 3)
        assert set(an.row_sums) == {4, 6}
        r = check_lemma2(an)
        assert r.holds and not r.equality_expected and not r.equality_observed


class TestThm4:
    def test_k4_equality(self):
        r = check_thm4(analysed("complete", 4))
        assert r.holds and r.lhs == 1 and r.rhs == 1

    def test_c5_equality(self):
        r = check_thm4(analysed("cycle", 5))
        assert r.holds and r.lhs == Fraction(1, 2) and r.rhs == Fraction(1, 2)

    def test_random(self):
        r = check_thm4(analysed("random-min-degree-2", 30, seed=11))
        assert r.holds


class TestLemma3:
    def test_k4(self):
        r = check_lemma3(analysed("complete", 4))
        assert r.holds and r.lhs == 1 and r.rhs == 1

    def test_c5(self):
        r = check_lemma3(analysed("cycle", 5))
        assert r.holds and r.lhs == Fraction(3, 2)

    def test_every_family(self, family_suite):
        for name, g in family_suite:
            assert check_lemma3(all_pairs(g)).slack == 0, name


class TestThm5:
    def test_k4(self):
        r = check_thm5(analysed("complete", 4))
        assert r.holds and r.lhs == 1

    def test_c5(self):
        r = check_thm5(analysed("cycle", 5))
        assert r.holds and r.lhs == 0

    def test_windmill(self):
        r = check_thm5(analysed("windmill", 2, 3))
        assert r.holds and r.lhs == Fraction(13, 15)
        assert "4 of 5" in r.notes[0]


class TestThm6:
    def test_regular_graphs(self):
        # the last: two diamonds (K4 minus an edge) joined at their degree-2
        # corners, 3-regular with clusterings 1/3 and 2/3, so regular wins
        # over the mixed clustering values
        diamonds = Graph([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (4, 5), (4, 6),
                          (5, 6), (5, 7), (6, 7), (0, 4), (3, 7)], 8)
        for g in (make("cycle", 5), make("hypercube", 3),
                  make("circulant", 8, 1, 2), diamonds):
            r = check_thm6(all_pairs(g))
            assert r.relation == "cor_regular"
            assert r.holds and r.slack == 0 and r.equality_observed
        assert len(set(clustering(all_pairs(diamonds))[0])) == 2

    def test_windmill_anti_monotone(self):
        r = check_thm6(analysed("windmill", 2, 3))
        assert r.relation == "cor_thm6" and r.direction == "ge"
        assert r.hypothesis_met and r.holds
        assert r.lhs == Fraction(13, 15) and r.rhs == Fraction(3, 5)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_glued_cycles_reverse_order(self, n):
        r = check_thm6(analysed("complete-with-glued-4-cycles", n))
        assert r.relation == "thm6" and r.direction == "le"
        assert r.holds and r.lhs < r.rhs

    def test_tied_degree_classes_co_monotone(self):
        # degree classes 2, 3, 4 with clusterings 0, 1/3, 1/3: a tie in the
        # clustering still orders them
        g = Graph([(0, 1), (0, 5), (1, 6), (2, 3), (2, 4), (3, 5), (3, 6),
                   (4, 5), (4, 6), (5, 6)], 7)
        r = check_thm6(all_pairs(g))
        assert (r.relation, r.direction, r.lhs, r.rhs) == (
            "thm6", "le", Fraction(4, 21), Fraction(2, 7))
        assert r.holds and r.notes == ["co-monotone degree/clustering ordering"]

    def test_tied_degree_classes_anti_monotone(self):
        # degree classes 2, 3, 4 with clusterings 1, 1, 2/3
        g = Graph([(0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4),
                   (3, 4)], 5)
        r = check_thm6(all_pairs(g))
        assert (r.relation, r.direction, r.lhs, r.rhs) == (
            "cor_thm6", "ge", Fraction(13, 15), Fraction(15, 19))
        assert r.holds and r.notes == ["anti-monotone degree/clustering ordering"]

    def test_no_ordering_asserts_nothing(self):
        # triangle and square sharing vertex 2: the degree-2 class mixes
        # clustering 1 (triangle corners) and 0 (square corners)
        g = Graph([(0, 1), (1, 2), (2, 0),
                   (2, 3), (3, 4), (4, 5), (5, 2)], 6)
        r = check_thm6(all_pairs(g))
        assert not r.hypothesis_met and r.direction == "none" and r.holds

    def test_one_clustering_per_degree_and_no_ordering_asserts_nothing(self):
        # degrees 2, 2, 3, 3, 4, 4 with clusterings 0, 0, 1, 1, 1/2, 1/2:
        # one value per degree class, rising and then falling
        g = Graph([(0, 1), (0, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4),
                   (3, 5), (4, 5)], 6)
        an = all_pairs(g)
        assert clustering(an)[0] == (0, 0, 1, 1, Fraction(1, 2), Fraction(1, 2))
        assert check_thm6(an) == RelationReport(
            "thm6", "none", Fraction(1, 2), Fraction(3, 5), holds=True,
            slack=Fraction(0), equality_expected=False, equality_observed=False,
            hypothesis_met=False,
            notes=["no degree/clustering ordering holds; no direction asserted"])

    def test_all_clusterings_equal_on_k23(self):
        # two degree classes, every clustering 0: both orderings hold
        g = Graph([(a, b) for a in (0, 1) for b in (2, 3, 4)], 5)
        r = check_thm6(all_pairs(g))
        assert (r.relation, r.direction, r.lhs, r.rhs) == ("thm6", "eq", 0, 0)
        assert r.holds and r.equality_expected and r.equality_observed
        assert r.notes == ["all local clusterings equal"]


class TestPreconditionsAndPendants:
    def test_lemma1_pendant_override_skips_degree_one(self, path3):
        r = check_lemma1(all_pairs(path3))
        assert r.holds
        assert any("skipped 2" in note for note in r.notes)

    def test_thm2_fails_under_conventions(self, path3):
        # degree-1 terms drop to 0, which breaks the stress bound: an honest
        # violation report rather than an error
        r = check_thm2(all_pairs(path3))
        assert not r.holds and r.lhs == 0 and r.rhs == Fraction(2, 3)

    def test_lemma3_fine_with_pendants(self, path3):
        assert check_lemma3(all_pairs(path3)).holds

    def test_convention_outcomes_on_path3(self, path3):
        # the radiality identity survives the degree-1 conventions (the two
        # singleton neighborhoods count as complete), the closeness bound
        # does not; both are reported, not masked
        r5 = check_thm5(all_pairs(path3))
        assert r5.holds and r5.notes[0] == "complete neighborhoods: 2 of 3"
        r4 = check_thm4(all_pairs(path3))
        assert not r4.holds
        assert r4.lhs == Fraction(1, 2) and r4.rhs == Fraction(1, 6)

    def test_check_all_on_path3_pinned(self, path3):
        # every report under the degree-1 conventions, skip notes and the
        # violated relations included, byte for byte
        text = json.dumps(json.loads(json_text(check_all(path3, allow_pendant=True))))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "fbed2f330ca352cb9d1be69277cd76cab9d148895a4e30ec91b85546eb52e12d")

    def test_check_all_order_and_meta_invariant(self, family_suite):
        for name, g in family_suite:
            reports = check_all(g)
            assert [r.relation for r in reports[:9]] == [
                "lemma1", "thm1", "thm2", "thm3", "cor_sandwich", "lemma2",
                "thm4", "lemma3", "thm5"]
            for r in reports:
                assert r.holds, f"{name}: {r.relation}"
                if r.equality_expected:
                    assert r.equality_observed, f"{name}: {r.relation}"

    def test_check_and_compute_run_one_bfs_per_orbit(self, monkeypatch,
                                                     family_suite):
        import centrel.paths as paths
        calls = []
        kernel = paths.bfs
        monkeypatch.setattr(paths, "bfs", lambda g, s: calls.append(s) or kernel(g, s))
        for _, g in family_suite[:10]:
            calls.clear()
            check_all(g)
            # one call per orbit, on its smallest vertex: K_n and C_n run one
            assert calls == [members[0] for members in paths.orbits(g)] == [0]
            # the report and the profiles of one analysis read its pass
            an = all_pairs(g)
            calls.clear()
            compute_report(an)
            profiles(an)
            assert calls == []

    def test_check_all_refuses_a_pendant_before_any_bfs(self, monkeypatch, path3):
        import centrel.paths as paths
        calls = []
        kernel = paths.bfs
        monkeypatch.setattr(paths, "bfs", lambda g, s: calls.append(s) or kernel(g, s))
        with pytest.raises(PreconditionError, match="degree < 2"):
            check_all(path3)
        assert calls == []

    def test_check_all_builds_per_graph_quantities_once(self, monkeypatch,
                                                         family_suite):
        import centrel.neighborhood as nbhd
        calls = {"profile": 0, "prefix_clusterings": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(module, name, wrapper)

        counted(nbhd, "profile")  # once per orbit
        counted(cents, "prefix_clusterings")  # the one clustering pass
        for name, g in family_suite:
            calls.update(dict.fromkeys(calls, 0))
            check_all(g)
            assert calls == {"profile": len(orbits(g)), "prefix_clusterings": 1}, name


class TestSerialization:
    def test_json_schema(self):
        r = check_thm5(analysed("windmill", 2, 3))
        d = json.loads(json_text(r))
        assert d["relation"] == "thm5"
        assert d["lhs"] == {"exact": "13/15", "value": 13 / 15}
        assert d["holds"] is True
        assert list(d) == ["relation", "direction", "lhs", "rhs", "holds",
                           "slack", "equality_expected", "equality_observed",
                           "hypothesis_met", "notes"]

    def test_float_mode(self):
        r = check_thm1(analysed("complete", 4))
        d = json.loads(json_text(r, exact=False))
        assert d["lhs"] == 1.0 and isinstance(d["lhs"], float)

    def test_value_rendering(self):
        assert json.loads(json_text(Fraction(1, 2))) == {"exact": "1/2", "value": 0.5}
        assert json.loads(json_text(Fraction(3))) == {"exact": "3", "value": 3.0}
        assert json_text(3) == "3" and json_text(None) == "null"
        assert human_value(Fraction(6, 4)) == "3/2"
        assert human_value(Fraction(6, 4), exact=False) == "1.5"
        assert human_value(None) == "undefined"
        assert csv_value(Fraction(1, 3)) == "0.333333333333"
        assert csv_value(True) == "true" and csv_value(None) == ""


class TestAtScale:
    def test_relations_hold_on_large_generator_instances(self):
        specs = [FamilySpec("cycle", (200,)),
                 FamilySpec("complete", (14,)),
                 FamilySpec("circulant", (200, 1, 7)),
                 FamilySpec("hypercube", (7,)),
                 FamilySpec("windmill", (40, 5)),
                 FamilySpec("complete-with-glued-4-cycles", (50,))]
        for spec in specs:
            g = generate(spec)
            for r in check_all(g):
                assert r.holds, f"{spec.name()}: {r.relation}"
                if r.direction == "eq":
                    assert r.slack == 0, f"{spec.name()}: {r.relation}"
                if r.equality_expected:
                    assert r.equality_observed, f"{spec.name()}: {r.relation}"

    def test_relations_hold_on_500_random_graphs(self):
        for seed in range(500):
            g = make("random-min-degree-2", 8 + seed % 26, seed=seed)
            for r in check_all(g):
                assert r.holds, f"seed={seed}: {r.relation}"
                if r.equality_expected:
                    assert r.equality_observed, f"seed={seed}: {r.relation}"


class TestSweep:
    def test_windmill_3_values(self):
        result = sweep_windmill(8, 3)
        assert result.rows[0] == (2, Fraction(13, 15), Fraction(3, 5))
        for eta, _, glob in result.rows:
            assert glob == Fraction(3, 2 * eta + 1)
        assert result.avg_strictly_increasing
        assert result.glob_strictly_decreasing

    def test_windmill_4_trends(self):
        result = sweep_windmill(10, 4)
        assert result.avg_strictly_increasing
        assert result.glob_strictly_decreasing

    def test_degenerate_start_flagged(self):
        result = sweep_windmill(4, 3, eta_min=1)
        assert result.rows[0] == (1, 1, 1)
        # trend flags ignore the single-clique point
        assert result.avg_strictly_increasing

    def test_bad_parameters(self):
        for eta_max, k, eta_min in ((10, 2, 2), (3, 2, 2), (1, 3, 5), (5, 3, 0)):
            with pytest.raises(FamilyParameterError, match="sweep needs k >= 3"):
                sweep_windmill(eta_max, k, eta_min=eta_min)

    @pytest.mark.parametrize("k", range(3, 7))
    def test_rows_equal_the_coefficients_of_each_windmill(self, k):
        result = sweep_windmill(25, k, eta_min=1)
        assert [r.eta for r in result.rows] == list(range(1, 26))
        for eta, avg, glob in result.rows:
            # the oracle's n^3 pass is too slow for 25 windmills of up to 126 vertices
            _, *expected = reference_clustering(make("windmill", eta, k))
            assert [avg, glob] == expected

    def test_builds_one_windmill(self, monkeypatch):
        built = []
        def counting(spec):
            built.append(spec)
            return generate(spec)
        monkeypatch.setattr(relations, "generate", counting)
        sweep_windmill(30, 4)
        assert built == [FamilySpec("windmill", (30, 4))]

    def test_oversized_sweep_refused_before_any_graph_is_built(self, unbuildable):
        unbuildable("windmill")
        with pytest.raises(PreconditionError, match=r"\(n=200000001 > 20000\)"):
            sweep_windmill(10 ** 8, 3)
