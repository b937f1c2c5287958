"""One BFS-and-Brandes pass per orbit of verified automorphisms.

``all_pairs`` runs a pass only from the smallest vertex of each orbit that
``paths.orbits`` finds on the iterated twin quotient, and averages the
other summaries over each orbit.  The properties here compare every
``Analysis`` field with a reference built from one BFS per vertex, on random
graphs with planted twins and on circulants, prisms and tori with twins
planted on top, also under random relabeling.  A map that is not an
automorphism must be refused, and independent closed forms pin the
vertex-transitive graphs that the reduction collapses to one pass.
"""

from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrel import (FamilySpec, all_pairs, bfs, check_all, compute_report,
                     from_edge_list, generate)
from centrel.oracle import oracle_measures
from centrel.paths import _share, orbits

PROPERTY = settings(max_examples=60, deadline=None)


def plant_twins(draw, n, edges, max_n, at_least=0):
    """Plant twins on ``edges``: a true twin of v is a new vertex joined to v
    and N(v), a false twin a new vertex joined to N(v).  A twin may be
    planted on a planted vertex."""
    for _ in range(draw(st.integers(min_value=at_least, max_value=max_n - n))):
        v = draw(st.integers(min_value=0, max_value=n - 1))
        nbrs = {u for e in edges if v in e for u in e if u != v}
        if draw(st.booleans()):
            nbrs.add(v)
        edges |= {frozenset((n, u)) for u in nbrs}
        n += 1
    return from_edge_list(sorted(tuple(sorted(e)) for e in edges), n)


def random_connected(draw, min_n, max_n, cycle=False):
    """A random Hamiltonian path, or cycle, plus chords: (n, edges)."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    order = draw(st.permutations(range(n)))
    edges = {frozenset((order[k], order[(k + 1) % n]))
             for k in range(n if cycle else n - 1)}
    others = [frozenset((i, j)) for i in range(n) for j in range(i + 1, n)
              if frozenset((i, j)) not in edges]
    if others:
        edges |= set(draw(st.lists(st.sampled_from(others), max_size=2 * n)))
    return n, edges


@st.composite
def graphs_with_twins(draw, max_n=30):
    """A random Hamiltonian cycle plus chords, with planted twins."""
    n, edges = random_connected(draw, 3, 20, cycle=True)
    return plant_twins(draw, n, edges, max_n, at_least=1)


@st.composite
def graphs_with_symmetry(draw, max_n=30):
    """A circulant with random offsets (1 among them, so it is connected), or
    G □ K_2 or G □ C_k for a random connected G, with twins planted on top."""
    kind = draw(st.sampled_from(["circulant", "prism", "torus"]))
    if kind == "circulant":
        n = draw(st.integers(min_value=5, max_value=24))
        offsets = {1} | set(draw(st.lists(st.integers(1, n // 2), max_size=3)))
        edges = {frozenset((i, (i + s) % n)) for s in offsets for i in range(n)}
    else:
        k = 2 if kind == "prism" else draw(st.integers(min_value=3, max_value=4))
        base, base_edges = random_connected(draw, 2, 12 // k)
        n = base * k
        edges = {frozenset((u * k + j for u in e)) for e in base_edges for j in range(k)}
        edges |= {frozenset((v * k + j, v * k + (j + 1) % k))
                  for v in range(base) for j in range(k)}
    return plant_twins(draw, n, edges, max_n)


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
        "pair_sums": [Counter(sum(dist[s][t] for t in nbrs[v]) for s in nbrs[v])
                      for v in range(n)],
        "detours": [Counter(sigma[s][t] for s in nbrs[v] for t in nbrs[v]
                            if dist[s][t] == 2) for v in range(n)],
        "betweenness": betweenness,
        "stress": stress,
    }


def relabeled(g, perm):
    return from_edge_list([(perm[i], perm[j]) for i, j in g.edges()], g.n)


def assert_fields_exact(g):
    an = all_pairs(g)
    for name, value in uncompressed(g).items():
        assert getattr(an, name) == value, name


@given(graphs_with_twins())
@PROPERTY
def test_every_field_equals_one_bfs_per_vertex(g):
    assert len(orbits(g)) < g.n  # the planted twins share a pass
    assert_fields_exact(g)


@given(graphs_with_symmetry(), st.randoms(use_true_random=False))
@PROPERTY
def test_every_field_is_exact_on_planted_symmetry(g, rng):
    assert len(orbits(g)) < g.n  # a rotation or a swap of layers
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert_fields_exact(g)
    assert_fields_exact(relabeled(g, perm))


@given(st.one_of(graphs_with_twins(), graphs_with_symmetry()),
       st.randoms(use_true_random=False))
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
    assert orbits(generate(FamilySpec("complete", (5,)))) == [[0, 1, 2, 3, 4]]
    # the hub, then every blade vertex: the twin quotient merges each blade,
    # then the blades
    assert orbits(generate(FamilySpec("windmill", (2, 4)))) == [
        [0], [1, 2, 3, 4, 5, 6]]
    # the K_3, the corners next to it, the far corners
    assert orbits(generate(FamilySpec("complete-with-glued-4-cycles", (3,)))) == [
        [0, 1, 2], [3, 5, 6, 8, 9, 11], [4, 7, 10]]
    assert orbits(generate(FamilySpec("cycle", (5,)))) == [[0, 1, 2, 3, 4]]


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
    (FamilySpec("windmill", (2, 3)), 2),
    (FamilySpec("windmill", (60, 5)), 2),
    (FamilySpec("friendship", (4,)), 2),
    (FamilySpec("complete-with-glued-4-cycles", (3,)), 3),
    (FamilySpec("complete-with-glued-4-cycles", (10,)), 3),
    (FamilySpec("cycle", (5,)), 1),
    (FamilySpec("cycle", (40,)), 1),
    (FamilySpec("hypercube", (8,)), 1),
    (FamilySpec("circulant", (300, 1, 2, 3, 5, 8, 13)), 1),
])
def test_one_bfs_per_class_on_the_extremal_families(bfs_calls, spec, passes):
    g = generate(spec)
    all_pairs(g)
    assert len(bfs_calls) == passes
    assert bfs_calls == [members[0] for members in orbits(g)]


@pytest.mark.parametrize("n, seed", [(12, 1), (40, 2), (300, 1)])
def test_one_bfs_per_vertex_without_twins(bfs_calls, n, seed):
    g = generate(FamilySpec("random-min-degree-2", (n,), seed=seed))
    assert len(orbits(g)) == n  # no twins and no other automorphism either
    all_pairs(g)
    assert bfs_calls == list(range(n))


def test_a_map_that_is_not_an_automorphism_is_refused(monkeypatch, bfs_calls):
    import centrel.paths as paths
    g = generate(FamilySpec("circulant", (12, 1, 3)))
    assert orbits(g) == [list(range(12))]
    verdicts = []
    check = paths._is_automorphism
    monkeypatch.setattr(paths, "_is_automorphism",
                        lambda *args: verdicts.append(check(*args)) or verdicts[-1])
    # swapping 0 and 1 keeps every colour but maps the edge 0-3 to 1-3
    swap = {0: 1, 1: 0, **{v: v for v in range(2, 12)}}
    monkeypatch.setattr(paths, "_pairing", lambda left, right: swap)
    assert orbits(g) == [[v] for v in range(12)]
    # the one-step map and the discrete-leaf map for s = 1, then the cell is left
    assert verdicts == [False, False]
    bfs_calls.clear()
    assert_fields_exact(g)
    assert bfs_calls == list(range(12))


def test_a_long_path_settles_through_the_splitters(monkeypatch):
    # 1-WL by whole rounds needs about n/2 of them on a path; the splitter
    # queue refines from every initial cell at once
    import centrel.paths as paths
    queues = []
    refine = paths._refine
    monkeypatch.setattr(paths, "_refine",
                        lambda *args: queues.append(len(args[3])) or refine(*args))
    g = from_edge_list([(v, v + 1) for v in range(39)], 40)
    assert orbits(g) == [[v, 39 - v] for v in range(20)]
    assert queues[0] > 1
    assert_fields_exact(g)


def test_each_map_is_checked_once(monkeypatch):
    # a spider with 4 legs of length 2: one step from a leg's first vertex
    # already swaps two legs, so each of the 3 maps is checked only once
    import centrel.paths as paths
    verdicts = []
    check = paths._is_automorphism
    monkeypatch.setattr(paths, "_is_automorphism",
                        lambda *args: verdicts.append(check(*args)) or verdicts[-1])
    g = from_edge_list([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6), (0, 7), (7, 8)], 9)
    assert orbits(g) == [[0], [1, 3, 5, 7], [2, 4, 6, 8]]
    assert verdicts == [True, True, True]


def test_an_orbit_sum_that_does_not_divide_is_an_error():
    assert _share(12, 4) == 3
    assert _share(Counter({1: 6, 2: 4}), 2) == Counter({1: 3, 2: 2})
    with pytest.raises(ArithmeticError):
        _share(7, 2)
    with pytest.raises(ArithmeticError):
        _share(Counter({1: 6, 2: 3}), 2)


# Independent ground truth on graphs that run one pass.  On a vertex-transitive
# graph every vertex has 1/n of the totals over ordered pairs s != t: the
# interior vertices of a shortest path number d(s, t) - 1, so the betweenness
# total is the sum of d - 1 and the stress total the sum of sigma * (d - 1).

def test_hypercube_8_against_closed_forms():
    an = all_pairs(generate(FamilySpec("hypercube", (8,))))
    # C(8, k) vertices at distance k, joined by k! shortest paths
    assert an.betweenness == [sum(comb(8, k) * (k - 1) for k in range(1, 9))] * 256
    assert an.betweenness[0] == 769
    assert an.stress == [sum(comb(8, k) * factorial(k) * (k - 1)
                             for k in range(1, 9))] * 256
    assert an.stress[0] == 657_608
    assert all(hist == {k: comb(8, k) for k in range(9)} for hist in an.hists)


def test_circulant_300_betweenness_is_the_row_sum_less_n_minus_1():
    g = generate(FamilySpec("circulant", (300, 1, 2, 3, 5, 8, 13)))
    an = all_pairs(g)
    assert an.betweenness == [row_sum - (g.n - 1) for row_sum in an.row_sums]


@pytest.mark.parametrize("spec", [
    FamilySpec("hypercube", (6,)),
    FamilySpec("circulant", (60, 1, 2, 3, 5, 8, 13)),
    FamilySpec("cycle", (40,)),
])
def test_definitional_oracle_on_vertex_transitive_graphs(spec):
    g = generate(spec)
    an = all_pairs(g)
    slow = oracle_measures(g)
    assert an.betweenness == slow.betweenness
    assert an.stress == slow.stress
