"""Brute-force oracle: path enumeration and field-level agreement."""

import ast
from pathlib import Path

import pytest

from centrel import (FamilySpec, all_pairs, bfs, compute_report, generate,
                     enumerate_shortest_paths, oracle, oracle_measures,
                     oracle_neighborhood_profiles)
from centrel.centralities import CentralityReport
from centrel.neighborhood import profiles


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

    def test_cap_enforced(self):
        g = make("complete", 8)
        with pytest.raises(ValueError):
            enumerate_shortest_paths(g, cap=6)


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
            fast = profiles(all_pairs(g))
            slow = oracle_neighborhood_profiles(g)
            for fp, sp in zip(fast, slow):
                for field in fp.FIELDS:
                    assert getattr(fp, field) == getattr(sp, field), \
                        f"{name}: {field}[{fp.vertex}]"
