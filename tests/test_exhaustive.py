"""Every connected graph on a few vertices, checked exhaustively.

``small_graphs`` builds one graph per isomorphism class; the counts of
connected graphs are OEIS A001349.  On every graph ``orbits`` must equal the
brute-force automorphism orbits, and on every graph with minimum degree 2
every relation must hold, the fast path must equal the oracle, and the
equality conditions of Thms 2 and 3 must be observed exactly when their
structural conditions hold.  On every graph with a degree-1 vertex, which
lies outside the paper's hypothesis, ``check_all(g, allow_pendant=True)``
must fail exactly the pinned relations.  The 7-vertex graphs run under
``slow``.
"""

from collections import Counter

import pytest

from centrel import (all_pairs, check_all, compute_report, diameter,
                     oracle_measures, oracle_neighborhood_profiles, profiles)
from centrel.paths import orbits
from centrel.relations import neighborhoods_unique_two_paths
from small_graphs import brute_force_orbits, connected_graphs

SLOW = pytest.mark.slow


@pytest.mark.parametrize("n, count", [
    (1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112),
    pytest.param(7, 853, marks=SLOW),
])
def test_orbits_equal_brute_force_on_every_connected_graph(n, count):
    graphs = connected_graphs(n)
    assert len(graphs) == count
    for g in graphs:
        assert orbits(g) == brute_force_orbits(g), g.edges()


@pytest.mark.parametrize("n, count", [
    (3, 1), (4, 3), (5, 11), (6, 61),
    pytest.param(7, 507, marks=SLOW),
])
def test_relations_and_oracle_on_every_graph_of_min_degree_2(n, count):
    graphs = [g for g in connected_graphs(n) if g.min_degree() >= 2]
    assert len(graphs) == count
    for g in graphs:
        reports = {r.relation: r for r in check_all(g)}
        assert all(r.holds for r in reports.values()), g.edges()
        an = all_pairs(g)
        assert compute_report(an) == oracle_measures(g), g.edges()
        assert profiles(an) == oracle_neighborhood_profiles(g), g.edges()
        assert reports["thm2"].equality_observed == (diameter(an) <= 2), g.edges()
        assert reports["thm3"].equality_observed == \
            neighborhoods_unique_two_paths(an), g.edges()


@pytest.mark.parametrize("n, count, failures", [
    (3, 1, {"thm1": 1, "thm4": 1, "thm2": 1}),
    (4, 3, {"thm1": 3, "thm4": 3, "thm2": 2}),
    (5, 10, {"thm1": 10, "thm4": 10, "thm2": 6}),
    (6, 51, {"thm1": 51, "thm4": 51, "thm2": 20}),
    pytest.param(7, 346, {"thm1": 346, "thm4": 342, "thm2": 91}, marks=SLOW),
])
def test_relations_failed_on_every_graph_with_a_degree_1_vertex(n, count, failures):
    graphs = [g for g in connected_graphs(n) if g.min_degree() == 1]
    assert len(graphs) == count
    failed = Counter(r.relation for g in graphs
                     for r in check_all(g, allow_pendant=True) if not r.holds)
    assert failed == failures
