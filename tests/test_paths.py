"""Distance/path-count correctness and the global distance metrics."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from centrel import (DisconnectedGraphError, FamilySpec, all_pairs,
                     avg_path_length, bfs, density, diameter, generate,
                     global_efficiency, paths)
from centrel.graphs import Graph, PreconditionError, from_edge_list, is_connected
from centrel.oracle import oracle_measures, oracle_neighborhood_profiles
from centrel.paths import exact_sum, mean
from enumeration import enumerate_shortest_paths


def cycle(n):
    return generate(FamilySpec("cycle", (n,)))


def complete(n):
    return generate(FamilySpec("complete", (n,)))


def rows(g):
    """The BFS distance and path-count rows from every source."""
    dist, sigma = [], []
    for s in range(g.n):
        _, dist_s, sigma_s = bfs(g, s)
        dist.append(dist_s)
        sigma.append(sigma_s)
    return dist, sigma


class TestAllPairs:
    def test_c4_antipodal(self):
        _, dist, sigma = bfs(cycle(4), 0)
        assert dist[2] == 2
        assert sigma[2] == 2

    def test_complete_all_unit(self):
        for n in (3, 5, 7):
            dist, sigma = rows(complete(n))
            for s in range(n):
                for t in range(n):
                    if s != t:
                        assert dist[s][t] == 1 and sigma[s][t] == 1

    def test_c5_unique_two_hop(self):
        _, dist, sigma = bfs(cycle(5), 1)
        assert dist[4] == 2
        assert sigma[4] == 1

    def test_sigma_diagonal_convention(self):
        _, sigma = rows(cycle(5))
        assert all(sigma[v][v] == 1 for v in range(5))

    def test_disconnected_rejected(self, two_triangles):
        with pytest.raises(DisconnectedGraphError):
            all_pairs(two_triangles)

    def test_single_vertex_rejected(self):
        with pytest.raises(PreconditionError, match="at least 2 vertices"):
            all_pairs(from_edge_list([], 1))

    def test_dense_size_guard(self):
        n = 20_001  # built directly: generate and from_edge_list refuse it
        g = Graph([((v - 1) % n, (v + 1) % n) for v in range(n)])
        with pytest.raises(PreconditionError, match="too large"):
            all_pairs(g)

    def test_matrices_symmetric_zero_diagonal(self, family_suite):
        for name, g in family_suite[:10]:
            dist, sigma = rows(g)
            for s in range(g.n):
                assert dist[s][s] == 0
                for t in range(g.n):
                    assert dist[s][t] == dist[t][s]
                    assert sigma[s][t] == sigma[t][s]

    def test_distance_one_iff_edge(self):
        g = generate(FamilySpec("windmill", (3, 4)))
        dist, sigma = rows(g)
        for s in range(g.n):
            for t in range(g.n):
                if s == t:
                    continue
                assert (dist[s][t] == 1) == g.adjacent(s, t)
                if dist[s][t] == 1:
                    assert sigma[s][t] == 1

    @pytest.mark.parametrize("keep_rows", [False, True], ids=["clean", "rows-kept"])
    def test_analysis_keeps_no_dense_rows(self, monkeypatch, keep_rows):
        # the dense dist and sigma rows took 2 * 8 * n^2 bytes.  A sparse graph
        # keeps the traced run short: a seeded random tree plus 20 chords,
        # whose few symmetries (twin leaves) still leave about n passes.  The
        # control keeps every BFS row the pass asks for and must break the bound
        n = 200
        rng = random.Random(1)
        edges = [(v, rng.randrange(v)) for v in range(1, n)]
        g = from_edge_list(edges + [tuple(rng.sample(range(n), 2))
                                    for _ in range(20)], n)
        if keep_rows:
            kept = []

            def keeping(*args):
                kept.append(bfs(*args))
                return kept[-1]
            monkeypatch.setattr(paths, "bfs", keeping)
        tracemalloc.start()
        try:
            all_pairs(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak < 3000 * n) != keep_rows, f"{peak / n:.0f} B/vertex"


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
def test_bfs_matches_enumeration(g):
    pe = enumerate_shortest_paths(g)
    for s in range(g.n):
        order, dist, sigma = bfs(g, s)
        assert sorted(order) == list(range(g.n)) and order[0] == s
        assert all(dist[a] <= dist[b] for a, b in zip(order, order[1:]))
        for t in range(g.n):
            if s == t:
                continue
            assert dist[t] == pe.dist[s][t]
            assert sigma[t] == pe.count(s, t)


@given(connected_graphs(max_n=10))
# two diamonds in a row: sigma(0, 3) = sigma(3, 6) = 2, and 4 paths through 3
@example(from_edge_list([(0, 1), (0, 2), (1, 3), (2, 3),
                         (3, 4), (3, 5), (4, 6), (5, 6)], 7))
@settings(max_examples=60, deadline=None)
def test_oracle_counts_match_enumeration(g):
    """Betweenness, stress and BC(i, N(i)) counted on the enumerated paths
    equal the oracle's sigma(s, i) * sigma(i, t) / sigma(s, t) sums."""
    pe = enumerate_shortest_paths(g)
    slow = oracle_measures(g)
    slow_profiles = oracle_neighborhood_profiles(g)

    def through(s, t, i):
        return sum(1 for p in pe.paths[(s, t)] if i in p[1:-1])

    def bc(i, ends):
        return sum((Fraction(through(s, t, i), pe.count(s, t))
                    for s in ends for t in ends if i != s != t != i), Fraction(0))

    everyone = range(g.n)
    for i in everyone:
        assert slow.stress[i] == sum(through(s, t, i) for s in everyone
                                     for t in everyone if i != s != t != i)
        assert slow.betweenness[i] == bc(i, everyone)
        assert slow_profiles[i].betweenness == bc(i, g.neighbors(i))


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_triangle_inequality(g):
    dist, _ = rows(g)
    for s in range(g.n):
        for t in range(g.n):
            for u in range(g.n):
                assert dist[s][t] <= dist[s][u] + dist[u][t]


def fraction_sum(terms):
    return sum((Fraction(p, q) for p, q in terms), Fraction(0))


NUMERATORS = st.integers(min_value=-10 ** 9, max_value=10 ** 9)
PRIMES = [p for p in range(2, 1000) if all(p % d for d in range(2, int(p ** 0.5) + 1))]


class TestExactSum:
    def test_empty(self):
        total = exact_sum([])
        assert isinstance(total, Fraction) and total == 0

    @given(st.lists(st.tuples(NUMERATORS, st.integers(1, 10 ** 6)), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_sum(self, terms):
        assert exact_sum(terms) == fraction_sum(terms)

    @given(st.lists(st.integers(1, 10 ** 6), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_zero_numerators(self, denominators):
        assert exact_sum((0, q) for q in denominators) == 0

    @given(st.integers(1, 10 ** 6), st.lists(NUMERATORS, max_size=60),
           st.lists(st.tuples(NUMERATORS, st.integers(1, 50)), max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_repeated_denominators(self, q, numerators, others):
        terms = [(p, q) for p in numerators] + others + [(p, q) for p in numerators]
        assert exact_sum(terms) == fraction_sum(terms)

    @given(st.lists(st.sampled_from(PRIMES), min_size=1, max_size=len(PRIMES),
                    unique=True), st.data())
    @settings(max_examples=50, deadline=None)
    def test_many_pairwise_coprime_denominators(self, primes, data):
        terms = [(data.draw(NUMERATORS), p) for p in primes]
        assert exact_sum(terms) == fraction_sum(terms)
        assert exact_sum((1, p) for p in primes).denominator == math.prod(primes)


class TestMean:
    def test_no_values_is_zero(self):
        total = mean([])
        assert isinstance(total, Fraction) and total == 0

    @given(st.lists(st.fractions(max_denominator=10 ** 6), min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_matches_fraction_mean(self, values):
        assert mean(values) == sum(values, Fraction(0)) / len(values)
