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

import os
import random
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrel import (FamilySpec, Graph, all_pairs, bfs, check_all,
                     compute_report, generate)
from centrel.graphs import is_connected
from centrel.oracle import oracle_measures
from centrel.paths import _share, orbits
from small_graphs import brute_force_orbits

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
    return as_graph(n, edges)


def as_graph(n, edges):
    return Graph(sorted(tuple(sorted(e)) for e in edges), n)


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
def circulants(draw):
    """A circulant with random offsets, 1 among them so it is connected:
    (n, edges)."""
    n = draw(st.integers(min_value=5, max_value=24))
    offsets = {1} | set(draw(st.lists(st.integers(1, n // 2), max_size=3)))
    return n, {frozenset((i, (i + s) % n)) for s in offsets for i in range(n)}


@st.composite
def graphs_with_symmetry(draw, max_n=30):
    """A circulant (``circulants``), or G □ K_2 or G □ C_k for a random
    connected G, with twins planted on top."""
    kind = draw(st.sampled_from(["circulant", "prism", "torus"]))
    if kind == "circulant":
        n, edges = draw(circulants())
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
    return Graph([(perm[i], perm[j]) for i, j in g.edges()], g.n)


def random_3_regular(n, seed):
    """A connected simple 3-regular graph on n vertices, drawn by the
    configuration model: the 3n stubs are shuffled and paired, and the draw
    is repeated until no loop or double edge forms and the graph is
    connected."""
    rng = random.Random(seed)
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {tuple(sorted(e)) for e in zip(stubs[::2], stubs[1::2])}
        if len(edges) == 3 * n // 2 and all(u != v for u, v in edges):
            g = Graph(sorted(edges), n)
            if is_connected(g):
                return g


def counted(monkeypatch, *names):
    """A Counter of the calls to each of ``paths``'s functions ``names``."""
    import centrel.paths as paths
    calls = Counter()
    for name in names:
        monkeypatch.setattr(paths, name, lambda *args, name=name, f=getattr(paths, name):
                            calls.update([name]) or f(*args))
    return calls


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
def bfs_calls(monkeypatch, tmp_path):
    """``bfs_calls()``: the sources of every BFS the pass ran so far, in this
    process and in the children it forks, in the order they were written to
    one file opened for appending."""
    import centrel.paths as paths
    record = tmp_path / "sources"
    fd = os.open(record, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    kernel = paths.bfs
    monkeypatch.setattr(paths, "bfs",
                        lambda g, s: os.write(fd, b"%d\n" % s) and kernel(g, s))
    yield lambda: [int(s) for s in record.read_text().split()]
    os.close(fd)


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
    assert len(bfs_calls()) == passes
    assert bfs_calls() == [members[0] for members in orbits(g)]


@pytest.mark.parametrize("n, seed", [(12, 1), (40, 2), (300, 1)])
def test_one_bfs_per_vertex_without_twins(bfs_calls, n, seed):
    g = generate(FamilySpec("random-min-degree-2", (n,), seed=seed))
    assert len(orbits(g)) == n  # no twins and no other automorphism either
    all_pairs(g)
    assert sorted(bfs_calls()) == list(range(n))  # in any order, each once


def test_a_map_that_is_not_an_automorphism_is_refused(monkeypatch, bfs_calls):
    import centrel.paths as paths
    g = generate(FamilySpec("circulant", (12, 1, 3)))
    assert orbits(g) == [list(range(12))]
    verdicts = []
    check = paths._is_automorphism
    monkeypatch.setattr(paths, "_is_automorphism",
                        lambda *args: verdicts.append(check(*args)) or verdicts[-1])
    # r = 0's leaf as built, every other leaf with 0 and 1 exchanged: each map
    # is an automorphism followed by the swap of 0 and 1, which keeps every
    # colour but maps the edge 0-3 to 1-3
    swap = {0: 1, 1: 0}
    leaf = paths._leaf
    monkeypatch.setattr(paths, "_leaf", lambda adj, cells, cell_of, v: (
        leaf(adj, cells, cell_of, v) if v == 0 else
        [swap.get(x, x) for x in leaf(adj, cells, cell_of, v)]))
    assert orbits(g) == [[v] for v in range(12)]
    # the map for the first neighbor s of 0 is refused, then the cell is left
    assert verdicts == [False]
    assert_fields_exact(g)
    assert sorted(bfs_calls()) == list(range(12))


def test_a_long_path_settles_through_the_splitters(monkeypatch):
    # 1-WL by whole rounds needs about n/2 of them on a path; the splitter
    # queue refines from every initial cell at once
    import centrel.paths as paths
    queues = []
    refine = paths._refine
    monkeypatch.setattr(paths, "_refine",
                        lambda *args: queues.append(len(args[3])) or refine(*args))
    g = Graph([(v, v + 1) for v in range(39)], 40)
    assert orbits(g) == [[v, 39 - v] for v in range(20)]
    assert queues[0] > 1
    assert_fields_exact(g)


@pytest.mark.parametrize("spec, leaves, refinements", [
    # the first largest cell after 0 is the middle distance layer: each
    # individualisation halves the free coordinates, so 4 levels per leaf
    # where the first cell that is not a single node takes 8 (41 refinements)
    (FamilySpec("hypercube", (8,)), 5, 21),
    (FamilySpec("circulant", (300, 1, 2, 3, 5, 8, 13)), 2, 5),
])
def test_the_leaves_individualise_in_the_largest_cell(monkeypatch, spec, leaves,
                                                      refinements):
    calls = counted(monkeypatch, "_leaf", "_refine")
    g = generate(spec)
    assert orbits(g) == [list(range(g.n))]
    assert calls == {"_leaf": leaves, "_refine": refinements}


def test_a_cell_that_one_count_covers_is_neither_split_nor_queued():
    from centrel.paths import _refine

    class Queue(set):
        def pop(self):
            popped.append(super().pop())
            return popped[-1]

    # the splitter {0} hits both of {1, 2} once, and 3 of {3, 4}
    adj = [frozenset(nbrs) for nbrs in ({1, 2, 3}, {0}, {0}, {0, 4}, {3})]
    cells, cell_of, popped = [{1, 2}, {3, 4}, {0}], [2, 0, 0, 1, 1], []
    _refine(adj, cells, cell_of, Queue({2}))
    assert cells == [{1, 2}, {4}, {0}, {3}]
    assert popped == [2, 3]  # {3} in place of {3, 4}; never {1, 2}
    # on a 4-cycle, the splitter {0, 2} hits each of {1, 3} twice
    adj = [frozenset(nbrs) for nbrs in ({1, 3}, {0, 2}, {1, 3}, {0, 2})]
    cells, cell_of, popped = [{0, 2}, {1, 3}], [0, 1, 0, 1], []
    _refine(adj, cells, cell_of, Queue({0}))
    assert cells == [{0, 2}, {1, 3}]
    assert popped == [0]


@given(circulants())
@PROPERTY
def test_a_circulant_is_one_orbit(circulant):
    # relabeled, a circulant on 24 nodes with 1, 3 and 7 among its offsets
    # can lose its sharing (below), so only the circulants as built are drawn
    n, edges = circulant
    assert orbits(as_graph(n, edges)) == [list(range(n))]


@pytest.mark.parametrize("d", range(2, 8))
@given(rng=st.randoms(use_true_random=False))
@settings(max_examples=5, deadline=None)
def test_a_hypercube_is_one_orbit(d, rng):
    g = generate(FamilySpec("hypercube", (d,)))
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert orbits(g) == orbits(relabeled(g, perm)) == [list(range(g.n))]


# Known gaps: a cell is left at its first refused map, and the maps are grown
# from one leaf on each side, so a refused map need not mean that no
# automorphism takes r to s.

@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the cell is left at its first refused map")
def test_a_3_regular_graph_with_a_refused_map():
    g = Graph([(0, 1), (0, 2), (0, 3), (1, 4), (1, 6), (2, 5), (2, 6), (3, 5),
               (3, 7), (4, 6), (4, 7), (5, 7)], 8)
    # orbits gives 8 singletons; brute force [[0, 2], [1, 3, 5, 6], [4, 7]]
    assert orbits(g) == brute_force_orbits(g)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the first largest cell after one node is two orbits")
def test_a_relabeled_circulant_with_a_refused_map():
    # after 0 is individualised in C_24(1, 3, 7), 1-WL keeps
    # {2, 6, 10, 14, 18, 22} as one cell, which its stabiliser splits into
    # {2, 10, 14, 22} and {6, 18}; relabeled by v -> 5v, the map from the
    # leaves of 0 and of the first neighbor tried is refused
    g = generate(FamilySpec("circulant", (24, 1, 3, 7)))
    assert orbits(relabeled(g, [5 * v % 24 for v in range(24)])) == [list(range(24))]


def test_each_map_is_checked_once(monkeypatch):
    # a spider with 4 legs of length 2: the leaves grown from two legs' first
    # vertices swap those legs, so each of the 3 maps is checked only once
    import centrel.paths as paths
    verdicts = []
    check = paths._is_automorphism
    monkeypatch.setattr(paths, "_is_automorphism",
                        lambda *args: verdicts.append(check(*args)) or verdicts[-1])
    g = Graph([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6), (0, 7), (7, 8)], 9)
    assert orbits(g) == [[0], [1, 3, 5, 7], [2, 4, 6, 8]]
    assert verdicts == [True, True, True]


def test_an_asymmetric_regular_graph_is_left_at_its_first_refused_map(monkeypatch):
    # 1-WL keeps a regular graph in one cell, and on an asymmetric one every
    # map from r = 0 is refused: the cell is left after the leaves of 0 and
    # of its first neighbor.  Going on to the next s instead took 63 leaves
    # here, 303 at n = 300 and 1,003 at n = 1,000, where orbits slowed from
    # about 18 ms to about 6 s
    calls = counted(monkeypatch, "_leaf", "_is_automorphism")
    g = random_3_regular(60, 1)
    assert orbits(g) == [[v] for v in range(60)]
    assert calls == {"_leaf": 2, "_is_automorphism": 1}


def test_a_discrete_partition_starts_no_search(monkeypatch):
    # 1-WL splits random-min-degree-2(300) into single nodes, and a cell of
    # one node is a whole orbit: no leaf is grown and no map is checked
    calls = counted(monkeypatch, "_refine", "_leaf", "_is_automorphism")
    g = generate(FamilySpec("random-min-degree-2", (300,), seed=1))
    assert orbits(g) == [[v] for v in range(300)]
    assert calls == {"_refine": 1}


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
