"""Vertex and graph-level centrality measures, all in exact rationals.

Degree-normalized quantities follow the degree-1 convention: any value with
d*(d-1) in its denominator is 0 for vertices of degree <= 1, and such
vertices still count in 1/n averages.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, PreconditionError
from .paths import (Analysis, avg_path_length, density, diameter,
                    efficiency_sum, exact_sum, global_efficiency, mean)


def _ratio(links: int, d: int) -> tuple[int, int]:
    """Local clustering as (2 * links among d neighbors, d(d-1)), or (0, 1) for d <= 1."""
    return (links, d * (d - 1)) if d > 1 else (0, 1)


def _clustering_ratio(g: Graph, i: int) -> tuple[int, int]:
    """Local clustering of i as a ``_ratio``.  Each link a-b is counted from
    a and from b, as a common neighbor of i and the other end."""
    nbrs = g.neighbor_set(i)
    return _ratio(sum(len(nbrs & g.neighbor_set(a)) for a in nbrs), len(nbrs))


def local_clustering(g: Graph, i: int) -> Fraction:
    """Edge density of the subgraph induced on the neighbors of i."""
    return Fraction(*_clustering_ratio(g, i))


def local_clusterings(an: Analysis) -> list[Fraction]:
    """Every vertex's local clustering (from adjacency alone), computed once
    per Analysis; later calls return a copy of the stored list."""
    return list(an.memo("clustering",
                        lambda: [local_clustering(an.g, i) for i in range(an.n)]))


def average_clustering(g: Graph) -> Fraction:
    """Mean of the local clustering coefficients over all n vertices.  Nothing
    in the package calls it; perfbench checks the windmill closed forms on it."""
    return exact_sum(_clustering_ratio(g, i) for i in range(g.n)) / g.n


def triangle_count(g: Graph) -> int:
    """Number of triangles, via common-neighbor counts per edge."""
    total = sum(len(g.neighbor_set(i) & g.neighbor_set(j)) for i, j in g.edges())
    # each triangle is counted once per edge
    return total // 3


def _global_ratio(triangles: int, triples: int) -> Fraction:
    """6T over the sum of d(d-1), refused when no vertex has degree >= 2."""
    if triples == 0:
        raise PreconditionError("global clustering undefined: no vertex of degree >= 2")
    return Fraction(6 * triangles, triples)


def global_clustering(g: Graph) -> Fraction:
    """Closed triplets over all connected ordered triples: 6T / sum d(d-1)."""
    return _global_ratio(triangle_count(g), sum(d * (d - 1) for d in g.degrees()))


def prefix_clusterings(g: Graph, sizes: Sequence[int]) -> list[tuple[Fraction, Fraction]]:
    """(average_clustering, global_clustering) of the subgraph induced on
    vertices 0..s-1 for each s in the strictly ascending ``sizes``, in one pass.

    Vertices join in index order.  A new vertex u with earlier neighbours P
    changes only the terms of u and P: each p in P gains |N(p) & P| links
    among its neighbours, and u's links and the new triangles are half their
    sum.  Raises ``PreconditionError`` as ``global_clustering`` does."""
    links, degree, terms = [0] * g.n, [0] * g.n, [0] * g.n  # links counted twice
    total, triangles, triples = 0, 0, 0  # sum of terms, T, sum d(d-1)
    rows = []
    for u in range(max(sizes, default=0)):
        prior = [p for p in g.neighbors(u) if p < u]
        shared = [len(g.neighbor_set(p).intersection(prior)) for p in prior]
        for p, c in zip(prior, shared):
            links[p] += 2 * c
            triples += 2 * degree[p]
            degree[p] += 1
        links[u], degree[u] = sum(shared), len(prior)
        triples += degree[u] * (degree[u] - 1)
        triangles += links[u] // 2
        for v in prior + [u]:
            total -= terms[v]
            terms[v] = Fraction(*_ratio(links[v], degree[v]))
            total += terms[v]
        if u + 1 == sizes[len(rows)]:
            rows.append((total / (u + 1), _global_ratio(triangles, triples)))
    return rows


# ---------------------------------------------------------------------------
# Betweenness and stress
# ---------------------------------------------------------------------------

def betweenness_and_stress(an: Analysis) -> tuple[list[Fraction], list[int]]:
    """Exact Brandes betweenness and stress, from the pass of ``all_pairs``.

    Both sums run over ordered pairs (s, t), s != t != i.  Every call returns
    fresh copies of the values in ``an``.  It stays a function of its own while
    perfbench counts its calls (``centralities.brandes_calls``).
    """
    return list(an.betweenness), list(an.stress)


# ---------------------------------------------------------------------------
# Closeness, radiality, local efficiency
# ---------------------------------------------------------------------------

def closeness(an: Analysis, v: int) -> Fraction:
    """(n-1) over the sum of distances from v."""
    return Fraction(an.n - 1, an.row_sums[v])


def radiality(an: Analysis, v: int) -> Fraction:
    """Mean of (diam + 1 - dist(v, t)) over the other vertices t, summed
    over v's distance histogram."""
    diam = diameter(an)
    total = sum(count * (diam + 1 - d) for d, count in an.hists[v].items() if d)
    return Fraction(total, an.n - 1)


def neighborhood_efficiency(an: Analysis, v: int) -> Fraction:
    """Efficiency among the neighbors of v, with whole-graph distances."""
    d = an.g.degree(v)
    if d <= 1:
        return Fraction(0)
    return efficiency_sum(an.pair_hists[v]) / (d * (d - 1))


def local_efficiency(an: Analysis) -> Fraction:
    """Mean neighborhood efficiency over all vertices (degree-1 terms are 0)."""
    return mean([neighborhood_efficiency(an, v) for v in range(an.n)])


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------

@dataclass
class CentralityReport:
    """Every per-vertex and graph-level measure for one graph.

    The field tables give the order of every output format; the human
    per-vertex table heads each column with its label, right-aligned to its
    width.
    """

    degree: list[int]
    local_clustering: list[Fraction]
    betweenness: list[Fraction]
    stress: list[int]
    closeness: list[Fraction]
    radiality: list[Fraction]
    density: Fraction
    diameter: int
    avg_path_length: Fraction
    global_efficiency: Fraction
    avg_clustering: Fraction
    global_clustering: Fraction | None
    local_efficiency: Fraction

    FIELDS_PER_VERTEX = ("degree", "local_clustering", "betweenness", "stress",
                         "closeness", "radiality")
    FIELDS_GRAPH = ("density", "diameter", "avg_path_length", "global_efficiency",
                    "avg_clustering", "global_clustering", "local_efficiency")
    HUMAN_COLUMNS = {"degree": ("deg", 4), "local_clustering": ("clustering", 12),
                     "betweenness": ("betweenness", 12), "stress": ("stress", 7),
                     "closeness": ("closeness", 12), "radiality": ("radiality", 12)}


def compute_report(an: Analysis) -> CentralityReport:
    """Every measure of the analysed graph."""
    g = an.g
    bc, st = betweenness_and_stress(an)
    clustering = local_clusterings(an)
    try:
        glob_c = global_clustering(g)
    except PreconditionError:
        glob_c = None
    return CentralityReport(
        degree=g.degrees(),
        local_clustering=clustering,
        betweenness=bc,
        stress=st,
        closeness=[closeness(an, v) for v in range(g.n)],
        radiality=[radiality(an, v) for v in range(g.n)],
        density=density(g),
        diameter=diameter(an),
        avg_path_length=avg_path_length(an),
        global_efficiency=global_efficiency(an),
        avg_clustering=mean(clustering),
        global_clustering=glob_c,
        local_efficiency=local_efficiency(an),
    )
