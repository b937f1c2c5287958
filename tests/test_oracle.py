"""The counting oracle: path enumeration (the test-side reference) and
field-level agreement.

The ``slow`` tests (deselected by default, run with ``-m slow``) compare the
fast path with the oracle on every field up to its 300-vertex limit.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrel import (FamilySpec, all_pairs, bfs, compute_report, generate,
                     oracle, oracle_measures, oracle_neighborhood_profiles)
from centrel.centralities import CentralityReport
from centrel.graphs import Graph, PreconditionError
from centrel.neighborhood import profiles
from enumeration import enumerate_shortest_paths


def make(family, *params, seed=None):
    return generate(FamilySpec(family, params, seed=seed))


def test_oracle_shares_only_types_with_the_fast_path():
    # the oracle's sums must stay independent of the fast path's arithmetic
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    from_centrel = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "centrel" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "centrel"):
            from_centrel |= {alias.name for alias in node.names}
    assert "exact_sum" not in from_centrel
    assert from_centrel == {"CentralityReport", "NeighborhoodProfile", "Graph",
                            "PreconditionError"}


class TestEnumeration:
    def test_c4_two_routes(self):
        pe = enumerate_shortest_paths(make("cycle", 4))
        assert pe.paths[(0, 2)] == [(0, 1, 2), (0, 3, 2)]

    def test_complete_single_hop(self):
        pe = enumerate_shortest_paths(make("complete", 4))
        assert pe.paths[(0, 1)] == [(0, 1)]

    def test_c5_unique(self):
        pe = enumerate_shortest_paths(make("cycle", 5))
        assert pe.paths[(1, 4)] == [(1, 0, 4)]

    def test_paths_are_valid(self):
        g = make("windmill", 3, 3)
        pe = enumerate_shortest_paths(g)
        for (s, t), paths in pe.paths.items():
            for p in paths:
                assert p[0] == s and p[-1] == t
                assert len(p) - 1 == pe.dist[s][t]
                for a, b in zip(p, p[1:]):
                    assert g.adjacent(a, b)

    def test_counts_match_sigma(self):
        for g in (make("cycle", 6), make("windmill", 2, 4),
                  make("hypercube", 3),
                  make("random-min-degree-2", 9, seed=4)):
            pe = enumerate_shortest_paths(g)
            for s in range(g.n):
                _, _, sigma = bfs(g, s)
                for t in range(g.n):
                    if s != t:
                        assert pe.count(s, t) == sigma[t]


def assert_reports_equal(fast: CentralityReport, slow: CentralityReport, name):
    for field in CentralityReport.FIELDS_PER_VERTEX:
        assert getattr(fast, field) == getattr(slow, field), f"{name}: {field}"
    for field in CentralityReport.FIELDS_GRAPH:
        assert getattr(fast, field) == getattr(slow, field), f"{name}: {field}"


class TestOracleAgreement:
    def test_named_examples(self):
        for g, name in [(make("complete", 4), "K4"),
                        (make("cycle", 5), "C5"),
                        (make("windmill", 2, 3), "windmill(2,3)")]:
            assert_reports_equal(compute_report(all_pairs(g)), oracle_measures(g), name)

    def test_c5_oracle_values(self):
        rep = oracle_measures(make("cycle", 5))
        assert all(x == 2 for x in rep.betweenness)
        assert all(x == 2 for x in rep.stress)
        assert rep.avg_clustering == 0 and rep.global_clustering == 0

    def test_small_random_graphs(self):
        for seed in range(25):
            g = make("random-min-degree-2", 5 + seed % 6, seed=seed)
            assert_reports_equal(compute_report(all_pairs(g)), oracle_measures(g),
                                 f"seed={seed}")

    def test_neighborhood_profiles_agree(self):
        for g, name in [(make("windmill", 2, 3), "windmill"),
                        (make("cycle", 6), "C6"),
                        (make("hypercube", 3), "Q3"),
                        (make("random-min-degree-2", 9, seed=13), "rand9")]:
            assert_profiles_equal(profiles(all_pairs(g)),
                                  oracle_neighborhood_profiles(g), name)


def test_limit_refused_before_any_bfs(monkeypatch):
    monkeypatch.setattr(oracle, "_bfs_levels", lambda *a: pytest.fail("BFS ran"))
    g = make("cycle", oracle.ORACLE_MAX_VERTICES + 1)
    for entry in (oracle_measures, oracle_neighborhood_profiles):
        with pytest.raises(PreconditionError, match="n=301 > 300"):
            entry(g)


@pytest.mark.parametrize("entry", [oracle_measures, oracle_neighborhood_profiles])
def test_disconnected_graph_refused(two_triangles, entry):
    with pytest.raises(PreconditionError, match="^the oracle needs a connected graph$"):
        entry(two_triangles)


def assert_profiles_equal(fast, slow, name):
    for i, (fp, sp) in enumerate(zip(fast, slow, strict=True)):
        for field in fp.FIELDS:
            assert getattr(fp, field) == getattr(sp, field), f"{name}: {field}[{i}]"


def assert_oracle_agrees(g, name):
    an = all_pairs(g)
    assert_reports_equal(compute_report(an), oracle_measures(g), name)
    assert_profiles_equal(profiles(an), oracle_neighborhood_profiles(g), name)


@st.composite
def connected_graphs(draw, max_n=60):
    """A random spanning tree plus a random subset of the remaining pairs."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = [(i, j) for i in range(n) for j in range(i + 1, n)
              if (i, j) not in edges]
    edges |= set(draw(st.lists(st.sampled_from(others), max_size=3 * n))
                 if others else [])
    return Graph(sorted(edges), n)


@pytest.mark.slow
class TestReach:
    """The fast path equals the oracle on graphs far too large to enumerate
    their shortest paths one by one."""

    @pytest.mark.parametrize("spec", [
        FamilySpec("hypercube", (8,)),
        FamilySpec("circulant", (300, 1, 2, 3, 5, 8, 13)),
        *(FamilySpec("random-min-degree-2", (200,), seed=seed) for seed in (1, 2, 3)),
    ], ids=FamilySpec.name)
    def test_named_graphs(self, spec):
        assert_oracle_agrees(generate(spec), spec.name())

    @given(connected_graphs())
    @settings(max_examples=50, deadline=None)
    def test_connected_graphs_to_60(self, g):
        assert_oracle_agrees(g, repr(g))
