"""Clustering, betweenness/stress, closeness, radiality, local efficiency."""

import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrel import (DisconnectedGraphError, FamilySpec, all_pairs,
                     average_clustering, betweenness_and_stress, bfs, closeness,
                     clustering, compute_report, generate, global_clustering,
                     local_efficiency, radiality)
import centrel.centralities as cents
from centrel.centralities import prefix_clusterings
from centrel.graphs import Graph, PreconditionError
from centrel.oracle import oracle_measures
from triples import reference_clustering


def make(family, *params, seed=None):
    return generate(FamilySpec(family, params, seed=seed))


def analysed(family, *params, seed=None):
    return all_pairs(make(family, *params, seed=seed))


def local_of(g):
    return [Fraction(*r) for r in prefix_clusterings(g, [g.n])[1]]


def prefix(g, s):
    """The subgraph induced on vertices 0..s-1."""
    return Graph([(i, j) for i, j in g.edges() if j < s], s)


class TestClustering:
    def test_local_clusterings_memoized_per_distance_data(self, monkeypatch):
        calls = []
        kernel = cents.prefix_clusterings
        monkeypatch.setattr(cents, "prefix_clusterings",
                            lambda g, sizes: calls.append(sizes) or kernel(g, sizes))
        g = make("windmill", 2, 3)
        dd = all_pairs(g)
        local = clustering(dd)[0]
        with pytest.raises(TypeError):
            local[0] = Fraction(7)  # every reader shares one immutable tuple
        slow = oracle_measures(g)
        assert clustering(dd) == (tuple(slow.local_clustering), slow.avg_clustering,
                                  slow.global_clustering)
        assert clustering(dd)[0] is local
        assert compute_report(dd).avg_clustering == slow.avg_clustering
        assert calls == [[g.n]]  # one pass, whatever reads it

    def test_local_complete(self):
        assert local_of(make("complete", 4)) == [1] * 4

    def test_local_cycle(self):
        assert local_of(make("cycle", 5)) == [0] * 5

    def test_local_windmill_hub(self):
        assert local_of(make("windmill", 2, 3))[0] == Fraction(1, 3)

    def test_degree_one_convention(self, path3):
        assert local_of(path3) == [0, 0, 0]
        assert clustering(all_pairs(Graph([(0, 1)], 2)))[0] == (0, 0)

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
        g = Graph([(0, 1)], 2)
        with pytest.raises(ValueError):
            global_clustering(g)

    def test_triangle_count(self):
        # 6T over the sum of d(d-1), for T = 10, 12 and 0 triangles
        assert global_clustering(make("complete", 5)) == Fraction(6 * 10, 5 * 4 * 3)
        assert global_clustering(make("windmill", 3, 4)) == Fraction(6 * 12,
                                                                     9 * 8 + 9 * 3 * 2)
        assert global_clustering(make("cycle", 6)) == 0

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
    return Graph(sorted(edges), n)


@given(connected_graphs_with_pendants())
@settings(max_examples=100, deadline=None)
def test_average_clustering_is_the_mean_of_the_local_ones(g):
    # degree <= 1 vertices contribute 0 and still count in n
    an = all_pairs(g)
    slow = oracle_measures(g)
    assert clustering(an)[0] == tuple(slow.local_clustering)
    mean = sum(slow.local_clustering, Fraction(0)) / g.n
    assert average_clustering(g) == mean == compute_report(an).avg_clustering
    assert compute_report(an).global_clustering == slow.global_clustering


@st.composite
def graphs_up_to_30(draw):
    """Any simple graph on 1..30 vertices: pendants, isolated vertices and
    disconnected pieces included."""
    n = draw(st.integers(min_value=1, max_value=30))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(draw(st.lists(st.sampled_from(pairs), max_size=3 * n))
                 if pairs else [], n)


def assert_prefixes_equal_the_reference(g):
    """``prefix_clusterings`` at every prefix size of ``g`` equals the
    reference on the induced subgraph, on either counting path: bit masks
    for every joining vertex (from 0 earlier neighbours), and set
    intersections for every one (from more than any degree)."""
    expected = {s: reference_clustering(prefix(g, s)) for s in range(1, g.n + 1)}
    every = list(expected)
    for mask_from in (0, g.n):
        with mock.patch.object(cents, "MASK_FROM", mask_from):
            for sizes in (every, every[::3], every[-1:]):  # one pass each
                rows, local = prefix_clusterings(g, sizes)
                assert rows == [expected[s][1:] for s in sizes]
                assert [Fraction(*r) for r in local] == expected[sizes[-1]][0]


@given(graphs_up_to_30())
@settings(max_examples=150, deadline=None)
def test_prefix_clusterings_equal_those_of_the_induced_subgraphs(g):
    assert_prefixes_equal_the_reference(g)


def dense_random(n: int, density: float, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph([(i, j) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < density], n)


@pytest.mark.parametrize("g", [make("complete", n) for n in (25, 38, 60)] + [
    dense_random(n, density, seed) for n, density, seed in
    ((30, 0.9, 1), (45, 0.7, 2), (60, 0.8, 3))], ids=repr)
def test_dense_prefix_clusterings_equal_those_of_the_induced_subgraphs(g):
    # past MASK_FROM = 24 earlier neighbours the default counts on masks too
    assert_prefixes_equal_the_reference(g)


def test_masks_are_dropped_at_the_last_neighbour():
    # 25 disjoint K_28 in a row: each clique's masks die with the clique, so
    # counting on masks peaks within a few masks of counting on sets alone;
    # keeping them all would take about 50 KB more
    k, cliques = 28, 25
    g = Graph([(c * k + i, c * k + j) for c in range(cliques)
               for i in range(k) for j in range(i + 1, k)], k * cliques)

    def peak(mask_from):
        with mock.patch.object(cents, "MASK_FROM", mask_from):
            tracemalloc.start()
            try:
                prefix_clusterings(g, [g.n])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert peak(cents.MASK_FROM) - peak(g.n) < 16 * 1024


class TestPrefixClusterings:
    @pytest.mark.parametrize("sizes", [[1], [2], [2, 3]])
    def test_prefix_without_a_degree_2_vertex_raises_the_documented_error(
            self, sizes):
        path = Graph([(0, 1), (1, 2), (2, 3)], 4)
        rows, _ = prefix_clusterings(path, sizes)
        assert rows[0][1] is None  # its global ratio reads None in the pass
        with pytest.raises(PreconditionError,
                           match="^global clustering undefined: no vertex of "
                                 "degree >= 2$"):
            global_clustering(prefix(path, sizes[0]))


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
            all_pairs(Graph([(0, 1), (2, 3)], 4))

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
