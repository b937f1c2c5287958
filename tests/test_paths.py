"""Distance/path-count correctness and the global distance metrics."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrel import (DisconnectedGraphError, FamilySpec, all_pairs,
                     avg_path_length, density, diameter, generate,
                     global_efficiency)
from centrel.graphs import from_edge_list, is_connected
from centrel.oracle import enumerate_shortest_paths


def cycle(n):
    return generate(FamilySpec("cycle", (n,)))


def complete(n):
    return generate(FamilySpec("complete", (n,)))


class TestAllPairs:
    def test_c4_antipodal(self):
        dd = all_pairs(cycle(4))
        assert dd.dist[0][2] == 2
        assert dd.sigma[0][2] == 2

    def test_complete_all_unit(self):
        for n in (3, 5, 7):
            dd = all_pairs(complete(n))
            for s in range(n):
                for t in range(n):
                    if s != t:
                        assert dd.dist[s][t] == 1 and dd.sigma[s][t] == 1

    def test_c5_unique_two_hop(self):
        dd = all_pairs(cycle(5))
        assert dd.dist[1][4] == 2
        assert dd.sigma[1][4] == 1

    def test_sigma_diagonal_convention(self):
        dd = all_pairs(cycle(5))
        assert all(dd.sigma[v][v] == 1 for v in range(5))

    def test_disconnected_rejected(self, two_triangles):
        with pytest.raises(DisconnectedGraphError):
            all_pairs(two_triangles)

    def test_dense_size_guard(self):
        g = generate(FamilySpec("cycle", (20_001,)))
        with pytest.raises(ValueError, match="too large"):
            all_pairs(g)

    def test_matrices_symmetric_zero_diagonal(self, family_suite):
        for name, g in family_suite[:10]:
            dd = all_pairs(g)
            for s in range(g.n):
                assert dd.dist[s][s] == 0
                for t in range(g.n):
                    assert dd.dist[s][t] == dd.dist[t][s]
                    assert dd.sigma[s][t] == dd.sigma[t][s]

    def test_distance_one_iff_edge(self):
        g = generate(FamilySpec("windmill", (3, 4)))
        dd = all_pairs(g)
        for s in range(g.n):
            for t in range(g.n):
                if s == t:
                    continue
                assert (dd.dist[s][t] == 1) == g.adjacent(s, t)
                if dd.dist[s][t] == 1:
                    assert dd.sigma[s][t] == 1


class TestGlobalMetrics:
    def test_complete_k4(self):
        g = complete(4)
        dd = all_pairs(g)
        assert diameter(dd) == 1
        assert avg_path_length(dd) == 1
        assert global_efficiency(dd) == 1
        assert density(g) == 1

    def test_c5(self):
        g = cycle(5)
        dd = all_pairs(g)
        assert diameter(dd) == 2
        assert avg_path_length(dd) == Fraction(3, 2)
        assert global_efficiency(dd) == Fraction(3, 4)
        assert density(g) == Fraction(1, 2)

    def test_c4(self):
        g = cycle(4)
        dd = all_pairs(g)
        assert diameter(dd) == 2
        assert avg_path_length(dd) == Fraction(4, 3)
        assert density(g) == Fraction(2, 3)

    def test_efficiency_and_length_bounds(self, full_suite):
        for name, g in full_suite[:40]:
            dd = all_pairs(g)
            eg = global_efficiency(dd)
            apl = avg_path_length(dd)
            assert 0 < eg <= 1, name
            assert apl >= 1, name
            complete_graph = g.m == g.n * (g.n - 1) // 2
            assert (eg == 1) == complete_graph, name
            assert (apl == 1) == complete_graph, name
            # harmonic vs arithmetic mean of the same distance multiset
            assert 1 / apl <= eg, name


@st.composite
def connected_graphs(draw, max_n=9):
    n = draw(st.integers(min_value=3, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    g = from_edge_list(edges, n)
    if not is_connected(g):
        # connect greedily along the vertex order; keeps the sample broad
        extra = [(i, i + 1) for i in range(n - 1)]
        g = from_edge_list(sorted(set(edges) | set(extra)), n)
    return g


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_all_pairs_matches_enumeration(g):
    dd = all_pairs(g)
    pe = enumerate_shortest_paths(g, cap=10)
    for s in range(g.n):
        for t in range(g.n):
            if s == t:
                continue
            assert dd.dist[s][t] == pe.dist[s][t]
            assert dd.sigma[s][t] == pe.count(s, t)


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_triangle_inequality(g):
    dd = all_pairs(g)
    for s in range(g.n):
        for t in range(g.n):
            for u in range(g.n):
                assert dd.dist[s][t] <= dd.dist[s][u] + dd.dist[u][t]
