"""Integer-arithmetic kernels against per-pair Fraction references.

Exact Brandes keeps each source's dependencies as integers over the lcm of
its path counts, the efficiencies sum histograms of BFS distances, and the
neighborhood profile reads every field in one scan of the neighbors' rows.
These properties compare them with definition-level recomputations on random
connected graphs (with degree-1 vertices, up to 40 vertices for the
profiles), on many-path families (path counts above 1), and on graphs where
the lcm of the path counts differs from source to source.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrel import (FamilySpec, all_pairs, betweenness_and_stress, bfs,
                     generate, global_efficiency, local_efficiency, profile,
                     radiality)
from centrel.graphs import Graph
from centrel.oracle import oracle_measures

MANY_PATH_FAMILIES = [
    ("hypercube", (3,)), ("hypercube", (4,)), ("hypercube", (5,)),
    ("circulant", (16, 1, 2, 3)), ("circulant", (24, 1, 3, 5, 7)),
    ("circulant", (30, 1, 2, 3, 5, 8)), ("complete-with-glued-4-cycles", (5,)),
]


@st.composite
def connected_graphs(draw, max_n=14):
    """A random spanning tree plus a random subset of the remaining pairs."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = [(i, j) for i in range(n) for j in range(i + 1, n)
              if (i, j) not in edges]
    edges |= set(draw(st.lists(st.sampled_from(others), max_size=3 * n))
                 if others else [])
    return Graph(sorted(edges), n)


@st.composite
def graphs_with_pendants(draw, max_n=40):
    """A random connected graph with a pendant vertex attached."""
    g = draw(connected_graphs(max_n=max_n - 1))
    anchor = draw(st.integers(0, g.n - 1))
    return Graph(sorted(g.edges()) + [(anchor, g.n)], g.n + 1)


def rows(g):
    """The BFS distance and path-count rows from every source."""
    dist, sigma = [], []
    for s in range(g.n):
        _, dist_s, sigma_s = bfs(g, s)
        dist.append(dist_s)
        sigma.append(sigma_s)
    return dist, sigma


def assert_brandes_matches_definition(g):
    bc, stress = betweenness_and_stress(all_pairs(g))
    assert all(isinstance(x, Fraction) for x in bc)
    slow = oracle_measures(g)
    assert bc == slow.betweenness
    assert stress == slow.stress


def reference_global_efficiency(dist):
    n = len(dist)
    total = sum((Fraction(1, dist[s][t])
                 for s in range(n) for t in range(n) if s != t), Fraction(0))
    return total / (n * (n - 1))


def reference_local_efficiency(g, dist):
    total = Fraction(0)
    for v in range(g.n):
        nbrs = g.neighbors(v)
        d = len(nbrs)
        if d > 1:
            pairs = sum((Fraction(1, dist[a][b])
                         for a in nbrs for b in nbrs if a != b), Fraction(0))
            total += pairs / (d * (d - 1))
    return total / g.n


def reference_radiality(dist, v):
    n = len(dist)
    diam = max(dist[s][t] for s in range(n) for t in range(n))
    return Fraction(sum(diam + 1 - dist[v][t] for t in range(n) if t != v),
                    n - 1)


def assert_efficiencies_and_radiality_match(g):
    an = all_pairs(g)
    dist, _ = rows(g)
    assert global_efficiency(an) == reference_global_efficiency(dist)
    assert local_efficiency(an) == reference_local_efficiency(g, dist)
    for v in range(g.n):
        assert radiality(an, v) == reference_radiality(dist, v)


def reference_profile(g, dist, sigma, i):
    """(avg_path, betweenness, diameter, radiality, closeness, is_complete)
    from per-pair definitions over ordered pairs of distinct neighbors."""
    nbrs = g.neighbors(i)
    d = len(nbrs)
    pairs = [(s, t) for s in nbrs for t in nbrs if s != t]
    complete = all(g.adjacent(s, t) for s, t in pairs)
    if d <= 1:
        return Fraction(0), Fraction(0), 0, Fraction(0), Fraction(0), complete
    diam = max(dist[s][t] for s, t in pairs)
    betweenness = sum((Fraction(sigma[s][i] * sigma[i][t], sigma[s][t])
                       for s, t in pairs if dist[s][i] + dist[i][t] == dist[s][t]),
                      Fraction(0))
    radiality_n = closeness_n = Fraction(0)
    for v in nbrs:
        others = [t for t in nbrs if t != v]
        radiality_n += Fraction(sum(diam + 1 - dist[v][t] for t in others), d - 1)
        closeness_n += Fraction(d - 1, sum(dist[v][t] for t in others))
    return (Fraction(sum(dist[s][t] for s, t in pairs), d * (d - 1)), betweenness,
            diam, radiality_n / d, closeness_n / d, complete)


def assert_profiles_match(g):
    an = all_pairs(g)
    dist, sigma = rows(g)
    for i in range(g.n):
        p = profile(an, i)
        assert (p.avg_path, p.betweenness, p.diameter, p.radiality, p.closeness,
                p.is_complete) == reference_profile(g, dist, sigma, i), i


@given(connected_graphs())
@settings(max_examples=80, deadline=None)
def test_brandes_matches_definition_on_random_graphs(g):
    assert_brandes_matches_definition(g)


@given(connected_graphs())
@settings(max_examples=80, deadline=None)
def test_efficiencies_and_radiality_match_per_pair_reference(g):
    assert_efficiencies_and_radiality_match(g)


@given(graphs_with_pendants())
@settings(max_examples=60, deadline=None)
def test_profile_matches_per_pair_reference(g):
    assert g.min_degree() == 1
    assert_profiles_match(g)


@pytest.mark.parametrize("family,params", MANY_PATH_FAMILIES)
def test_many_path_families(family, params):
    g = generate(FamilySpec(family, params))
    assert max(max(row) for row in rows(g)[1]) > 1
    assert_brandes_matches_definition(g)
    assert_efficiencies_and_radiality_match(g)
    assert_profiles_match(g)


@pytest.mark.parametrize("g", [
    # K_{2,3}: sources on the 2-side see sigma = 3, on the 3-side sigma = 2
    Graph([(a, b) for a in (0, 1) for b in (2, 3, 4)], 5),
    generate(FamilySpec("complete-with-glued-4-cycles", (5,))),
    generate(FamilySpec("random-min-degree-2", (40,), seed=3)),
])
def test_source_lcms_differ(g):
    # the running common denominator has to grow past the first source's
    lcms = {math.lcm(*row) for row in rows(g)[1]}
    assert len(lcms) > 1
    assert_brandes_matches_definition(g)
