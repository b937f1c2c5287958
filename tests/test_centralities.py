"""Clustering, betweenness/stress, closeness, radiality, local efficiency."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrel import (DisconnectedGraphError, FamilySpec, all_pairs,
                     average_clustering, betweenness_and_stress, bfs, closeness,
                     compute_report, generate, global_clustering,
                     local_clustering, local_clusterings, local_efficiency,
                     radiality)
from centrel.centralities import triangle_count
from centrel.graphs import from_edge_list
from centrel.oracle import oracle_measures


def make(family, *params, seed=None):
    return generate(FamilySpec(family, params, seed=seed))


def analysed(family, *params, seed=None):
    return all_pairs(make(family, *params, seed=seed))


class TestClustering:
    def test_local_clusterings_memoized_per_distance_data(self, monkeypatch):
        import centrel.centralities as cents
        calls = []
        per_vertex = cents.local_clustering
        monkeypatch.setattr(cents, "local_clustering",
                            lambda g, i: calls.append(i) or per_vertex(g, i))
        g = make("windmill", 2, 3)
        dd = all_pairs(g)
        first = local_clusterings(dd)
        first[0] = Fraction(7)
        assert local_clusterings(dd) == [per_vertex(g, i) for i in range(g.n)]
        assert calls == list(range(g.n))

    def test_local_complete(self):
        g = make("complete", 4)
        assert all(local_clustering(g, i) == 1 for i in range(4))

    def test_local_cycle(self):
        g = make("cycle", 5)
        assert all(local_clustering(g, i) == 0 for i in range(5))

    def test_local_windmill_hub(self):
        g = make("windmill", 2, 3)
        assert local_clustering(g, 0) == Fraction(1, 3)

    def test_degree_one_convention(self, path3):
        assert local_clustering(path3, 0) == 0
        assert local_clustering(path3, 1) == 0

    def test_average_and_global_complete(self):
        for n in (3, 5, 8):
            g = make("complete", n)
            assert average_clustering(g) == 1
            assert global_clustering(g) == 1

    def test_windmill_2_3(self):
        g = make("windmill", 2, 3)
        assert average_clustering(g) == Fraction(13, 15)
        assert global_clustering(g) == Fraction(3, 5)

    def test_triangle_free(self):
        g = make("cycle", 5)
        assert average_clustering(g) == 0
        assert global_clustering(g) == 0

    def test_global_undefined_on_k2(self):
        g = from_edge_list([(0, 1)], 2)
        with pytest.raises(ValueError):
            global_clustering(g)

    def test_triangle_count(self):
        assert triangle_count(make("complete", 5)) == 10
        assert triangle_count(make("windmill", 3, 4)) == 12
        assert triangle_count(make("cycle", 6)) == 0

    def test_regular_graphs_have_equal_coefficients(self):
        for g in (make("cycle", 5), make("hypercube", 3),
                  make("circulant", 8, 1, 2), make("complete", 6),
                  make("circulant", 10, 1, 5)):
            assert average_clustering(g) == global_clustering(g)


@st.composite
def connected_graphs_with_pendants(draw, max_n=25):
    """A random spanning tree, so with degree-1 vertices, plus random chords."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    return from_edge_list(sorted(edges), n)


@given(connected_graphs_with_pendants())
@settings(max_examples=100, deadline=None)
def test_average_clustering_is_the_mean_of_the_local_ones(g):
    # degree <= 1 vertices contribute 0 and still count in n
    an = all_pairs(g)
    mean = sum(local_clusterings(an), Fraction(0)) / g.n
    assert average_clustering(g) == mean == compute_report(an).avg_clustering


class TestBetweennessStress:
    def test_complete_zero(self):
        for n in (3, 5, 7):
            bc, st = betweenness_and_stress(analysed("complete", n))
            assert all(x == 0 for x in bc)
            assert all(x == 0 for x in st)

    def test_c5(self):
        bc, st = betweenness_and_stress(analysed("cycle", 5))
        assert all(x == 2 for x in bc)
        assert all(x == 2 for x in st)

    def test_c4(self):
        bc, st = betweenness_and_stress(analysed("cycle", 4))
        assert all(x == 1 for x in bc)
        assert all(x == 2 for x in st)

    def test_read_from_one_pass_per_analysis(self, monkeypatch):
        import centrel.paths as paths
        calls = []
        kernel = paths.bfs
        monkeypatch.setattr(paths, "bfs", lambda g, s: calls.append(s) or kernel(g, s))
        g = make("complete-with-glued-4-cycles", 4)
        an = all_pairs(g)
        first = betweenness_and_stress(an)
        first[0][0] = Fraction(-1)  # callers get copies
        second = betweenness_and_stress(an)
        # one call per orbit, on its smallest vertex
        assert calls == [members[0] for members in paths.orbits(g)] == [0, 4, 5]
        assert second[0][0] != -1
        assert betweenness_and_stress(all_pairs(g)) == second  # a fresh pass, same values
        assert calls == 2 * [0, 4, 5]

    def test_needs_connected_graph(self):
        with pytest.raises(DisconnectedGraphError):
            all_pairs(from_edge_list([(0, 1), (2, 3)], 4))

    def test_brandes_equals_definitional(self, family_suite):
        for name, g in family_suite:
            bc, st = betweenness_and_stress(all_pairs(g))
            slow = oracle_measures(g)
            assert bc == slow.betweenness, name
            assert st == slow.stress, name

    def test_stress_dominates_betweenness(self, full_suite):
        for name, g in full_suite[:30]:
            bc, st = betweenness_and_stress(all_pairs(g))
            for b, s in zip(bc, st):
                assert b >= 0 and s >= b, name

    def test_betweenness_sum_on_unique_path_graphs(self):
        # with all shortest paths unique, the total equals the number of
        # ordered pairs weighted by interior length
        for g in (make("complete", 6), make("windmill", 2, 3),
                  make("windmill", 4, 5)):
            rows = [bfs(g, s)[1:] for s in range(g.n)]
            bc, _ = betweenness_and_stress(all_pairs(g))
            assert all(count == 1 for _, sigma in rows for count in sigma)
            expected = sum(d - 1 for dist, _ in rows for d in dist if d)
            assert sum(bc) == expected


class TestClosenessRadiality:
    def test_complete(self):
        dd = analysed("complete", 5)
        for v in range(5):
            assert closeness(dd, v) == 1
            assert radiality(dd, v) == 1

    def test_c5(self):
        dd = analysed("cycle", 5)
        for v in range(5):
            assert closeness(dd, v) == Fraction(2, 3)
            assert radiality(dd, v) == Fraction(3, 2)

    def test_windmill_hub(self):
        dd = analysed("windmill", 2, 3)
        assert closeness(dd, 0) == 1


class TestLocalEfficiency:
    def test_complete(self):
        assert local_efficiency(analysed("complete", 4)) == 1

    def test_c5(self):
        assert local_efficiency(analysed("cycle", 5)) == Fraction(1, 2)

    def test_windmill(self):
        assert local_efficiency(analysed("windmill", 2, 3)) == Fraction(14, 15)

    def test_half_one_plus_clustering_identity(self, full_suite):
        for name, g in full_suite[:40]:
            dd = all_pairs(g)
            assert local_efficiency(dd) == (1 + average_clustering(g)) / 2, name


class TestReport:
    def test_report_fields_consistent(self):
        g = make("windmill", 2, 3)
        rep = compute_report(all_pairs(g))
        assert rep.degree == [4, 2, 2, 2, 2]
        assert rep.avg_clustering == Fraction(13, 15)
        assert rep.global_clustering == Fraction(3, 5)
        assert rep.diameter == 2
        assert rep.local_efficiency == Fraction(14, 15)
        assert rep.betweenness[0] == 8
        assert rep.stress[0] == 8

    def test_report_value_ranges(self, full_suite):
        for name, g in full_suite[:25]:
            rep = compute_report(all_pairs(g))
            assert 0 <= rep.avg_clustering <= 1, name
            assert 0 <= rep.density <= 1, name
            assert 0 <= rep.local_efficiency <= 1, name
            if rep.global_clustering is not None:
                assert 0 <= rep.global_clustering <= 1, name
            for i in range(g.n):
                assert 0 <= rep.local_clustering[i] <= 1, name
                assert rep.betweenness[i] >= 0, name
                assert rep.stress[i] >= rep.betweenness[i], name
