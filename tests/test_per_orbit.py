"""A value computed once per orbit equals the value computed at every vertex.

Past the all-pairs pass, the report, the neighbourhood profiles and the
checkers compute each value read from the pass at the smallest vertex of
each orbit in ``Analysis.orbits`` and weight it by the orbit's size.  With
every orbit replaced by single vertices they compute it at every vertex.
Both must give equal reports, profiles and relation reports, notes included,
on every connected graph with 3 to 6 vertices, on the family suite and on
the seeded random min-degree-2 graphs up to 40 vertices.
"""

import dataclasses

import pytest

from centrel import all_pairs, compute_report, profiles, relations
from small_graphs import connected_graphs


def results(monkeypatch, an):
    """The report, the profiles and every relation report of ``an``."""
    monkeypatch.setattr(relations, "all_pairs", lambda g, **_: an)
    return (compute_report(an), profiles(an),
            relations.check_all(an.g, allow_pendant=True))


def shared_orbits(monkeypatch, graphs) -> int:
    """Asserts that each graph's results do not depend on its orbits; the
    number of vertices whose values were shared from a smaller one."""
    shared = 0
    for g in graphs:
        an = all_pairs(g)
        alone = dataclasses.replace(an, orbits=[[v] for v in range(an.n)])
        assert results(monkeypatch, an) == results(monkeypatch, alone), g.edges()
        shared += an.n - len(an.orbits)
    return shared


@pytest.mark.parametrize("n", [3, 4, 5, 6])  # n = 2 has no global clustering
def test_every_small_connected_graph(monkeypatch, n):
    assert shared_orbits(monkeypatch, connected_graphs(n)) > 0


def test_family_suite(monkeypatch, family_suite):
    assert shared_orbits(monkeypatch, [g for _, g in family_suite]) > 0


def test_random_suite(monkeypatch, random_suite):
    shared_orbits(monkeypatch, [g for _, g in random_suite])
