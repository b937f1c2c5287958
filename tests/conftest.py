"""Shared test graphs: the family suite and seeded random instances."""

from __future__ import annotations

import pytest

from centrel import FamilySpec, all_pairs, generate
from centrel.graphs import FAMILIES, Graph


def family_suite_specs() -> list[FamilySpec]:
    """The deterministic family instances used throughout the tests."""
    specs = [FamilySpec("complete", (n,)) for n in range(3, 9)]
    specs += [FamilySpec("cycle", (n,)) for n in range(4, 13)]
    specs += [FamilySpec("windmill", (eta, k))
              for eta in range(2, 6) for k in range(3, 6)]
    specs.append(FamilySpec("hypercube", (3,)))
    specs += [FamilySpec("complete-with-glued-4-cycles", (n,)) for n in range(3, 6)]
    return specs


def random_suite_specs(count: int = 100, max_n: int = 40) -> list[FamilySpec]:
    """Seeded random connected min-degree-2 graphs, sizes cycling up to max_n."""
    sizes = list(range(8, max_n + 1))
    return [FamilySpec("random-min-degree-2", (sizes[i % len(sizes)],), seed=i)
            for i in range(count)]


@pytest.fixture(scope="session")
def family_suite():
    return [(spec.name(), generate(spec)) for spec in family_suite_specs()]


@pytest.fixture(scope="session")
def random_suite():
    return [(spec.name(), generate(spec)) for spec in random_suite_specs()]


@pytest.fixture(scope="session")
def full_suite(family_suite, random_suite):
    """Family instances plus the 100 seeded random graphs."""
    return family_suite + random_suite


@pytest.fixture(scope="session")
def full_suite_dd(full_suite):
    """The full suite with shared all-pairs data."""
    return [(name, g, all_pairs(g)) for name, g in full_suite]


@pytest.fixture
def unbuildable(monkeypatch):
    """``unbuildable(family)`` makes the family's builder fail the test if it
    runs, so a size refusal is seen to come before the graph is built."""
    def patch(family):
        accepts, order, _ = FAMILIES[family]
        monkeypatch.setitem(FAMILIES, family,
                            (accepts, order, lambda *a: pytest.fail("built")))
    return patch


def graph_from_edges(edges, n):
    return Graph(edges, n)


@pytest.fixture
def path3():
    """Path 0-1-2: the smallest pendant graph."""
    return Graph([(0, 1), (1, 2)], 3)


@pytest.fixture
def two_triangles():
    """Disconnected pair of triangles."""
    return Graph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], 6)
