"""One BFS-and-Brandes pass per twin class.

``all_pairs`` runs a pass only from the representative of each twin class
and credits it to every member.  The properties here compare every
``Analysis`` field with a reference built from one BFS per vertex, on
random min-degree-2 graphs with planted true and false twins, and check
that no report depends on which vertex ends up as a representative.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrel import (FamilySpec, all_pairs, bfs, check_all, compute_report,
                     from_edge_list, generate)
from centrel.paths import twin_classes

PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def graphs_with_twins(draw, max_n=30):
    """A random Hamiltonian cycle plus chords, then planted twins: a true
    twin of v is a new vertex joined to v and N(v), a false twin a new
    vertex joined to N(v).  A twin may be planted on a planted vertex."""
    n = draw(st.integers(min_value=3, max_value=20))
    order = draw(st.permutations(range(n)))
    edges = {frozenset((order[k], order[(k + 1) % n])) for k in range(n)}
    others = [frozenset((i, j)) for i in range(n) for j in range(i + 1, n)
              if frozenset((i, j)) not in edges]
    if others:
        edges |= set(draw(st.lists(st.sampled_from(others), max_size=2 * n)))
    for _ in range(draw(st.integers(min_value=1, max_value=max_n - n))):
        v = draw(st.integers(min_value=0, max_value=n - 1))
        nbrs = {u for e in edges if v in e for u in e if u != v}
        if draw(st.booleans()):
            nbrs.add(v)
        edges |= {frozenset((n, u)) for u in nbrs}
        n += 1
    return from_edge_list(sorted(tuple(sorted(e)) for e in edges), n)


def uncompressed(g):
    """Every ``Analysis`` field from one BFS per vertex, by definition."""
    rows = [bfs(g, s) for s in range(g.n)]
    dist = [row[1] for row in rows]
    sigma = [row[2] for row in rows]
    n = g.n
    betweenness, stress = [], []
    for v in range(n):
        through = [(sigma[s][v] * sigma[v][t], sigma[s][t])
                   for s in range(n) for t in range(n)
                   if len({s, v, t}) == 3 and dist[s][v] + dist[v][t] == dist[s][t]]
        betweenness.append(sum((Fraction(p, q) for p, q in through), Fraction(0)))
        stress.append(sum(p for p, _ in through))
    nbrs = [g.neighbors(v) for v in range(n)]
    return {
        "row_sums": [sum(row) for row in dist],
        "hists": [Counter(row) for row in dist],
        "pair_hists": [Counter(dist[s][t] for s in nbrs[v] for t in nbrs[v])
                       for v in range(n)],
        "pair_sums": [sorted(sum(dist[s][t] for t in nbrs[v]) for s in nbrs[v])
                      for v in range(n)],
        "detours": [Counter(sigma[s][t] for s in nbrs[v] for t in nbrs[v]
                            if dist[s][t] == 2) for v in range(n)],
        "betweenness": betweenness,
        "stress": stress,
    }


def relabeled(g, perm):
    return from_edge_list([(perm[i], perm[j]) for i, j in g.edges()], g.n)


@given(graphs_with_twins())
@PROPERTY
def test_every_field_equals_one_bfs_per_vertex(g):
    assert len(twin_classes(g)) < g.n  # the planted twins share a pass
    an = all_pairs(g)
    expected = uncompressed(g)
    for name, value in expected.items():
        got = getattr(an, name)
        if name == "pair_sums":  # one entry per neighbor, in no fixed order
            got = [sorted(sums) for sums in got]
        assert got == value, name


@given(graphs_with_twins(), st.randoms(use_true_random=False))
@PROPERTY
def test_reports_do_not_depend_on_the_representatives(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = relabeled(g, perm)
    assert check_all(h) == check_all(g)
    before, after = compute_report(all_pairs(g)), compute_report(all_pairs(h))
    for name in before.FIELDS_GRAPH:
        assert getattr(after, name) == getattr(before, name), name
    for name in before.FIELDS_PER_VERTEX:
        values = getattr(after, name)
        assert [values[perm[v]] for v in range(g.n)] == getattr(before, name), name


def test_classes_of_the_extremal_families():
    assert twin_classes(generate(FamilySpec("complete", (5,)))) == [[0, 1, 2, 3, 4]]
    # the hub, then one class per blade of K_4 minus the hub
    assert twin_classes(generate(FamilySpec("windmill", (2, 4)))) == [
        [0], [1, 2, 3], [4, 5, 6]]
    # per K_3 vertex v: v alone, its 4-cycle's far corner alone, and the two
    # corners next to v with the open neighborhood {v, far corner}
    assert twin_classes(generate(FamilySpec("complete-with-glued-4-cycles", (3,)))) == [
        [0], [1], [2], [3, 5], [4], [6, 8], [7], [9, 11], [10]]
    assert twin_classes(generate(FamilySpec("cycle", (5,)))) == [[v] for v in range(5)]


@pytest.fixture
def bfs_calls(monkeypatch):
    import centrel.paths as paths
    calls = []
    kernel = paths.bfs
    monkeypatch.setattr(paths, "bfs", lambda g, s: calls.append(s) or kernel(g, s))
    return calls


@pytest.mark.parametrize("spec, passes", [
    (FamilySpec("complete", (3,)), 1),
    (FamilySpec("complete", (60,)), 1),
    (FamilySpec("windmill", (2, 3)), 3),
    (FamilySpec("windmill", (60, 5)), 61),
    (FamilySpec("friendship", (4,)), 5),
    (FamilySpec("complete-with-glued-4-cycles", (3,)), 9),
    (FamilySpec("complete-with-glued-4-cycles", (10,)), 30),
])
def test_one_bfs_per_class_on_the_extremal_families(bfs_calls, spec, passes):
    g = generate(spec)
    all_pairs(g)
    assert len(bfs_calls) == passes
    assert bfs_calls == [members[0] for members in twin_classes(g)]


@pytest.mark.parametrize("n, seed", [(12, 1), (40, 2), (300, 1)])
def test_one_bfs_per_vertex_without_twins(bfs_calls, n, seed):
    g = generate(FamilySpec("random-min-degree-2", (n,), seed=seed))
    assert len(twin_classes(g)) == n
    all_pairs(g)
    assert bfs_calls == list(range(n))
