"""Integer-arithmetic kernels against the oracle's definition-level values.

Exact Brandes keeps each source's dependencies as integers over the lcm of
its path counts, the efficiencies sum histograms of BFS distances, and the
neighborhood profile reads every field in one scan of the neighbors' rows.
These properties compare them with ``oracle_measures`` and
``oracle_neighborhood_profiles``, which run their own BFS, so a fault in
``graphs.bfs`` cannot fool both sides.  The graphs are random connected ones
(with degree-1 vertices, up to 40 vertices for the profiles), many-path
families (path counts above 1), and graphs where the lcm of the path counts
differs from source to source.
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
from centrel.oracle import oracle_measures, oracle_neighborhood_profiles

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


def assert_efficiencies_and_radiality_match(g):
    an = all_pairs(g)
    slow = oracle_measures(g)
    assert global_efficiency(an) == slow.global_efficiency
    assert local_efficiency(an) == slow.local_efficiency
    assert [radiality(an, v) for v in range(g.n)] == slow.radiality


def assert_profiles_match(g):
    an = all_pairs(g)
    assert [profile(an, i) for i in range(g.n)] == oracle_neighborhood_profiles(g)


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
