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


def prefix_clusterings(g: Graph, sizes: Sequence[int]
                       ) -> tuple[list[tuple[Fraction, Fraction | None]],
                                  list[tuple[int, int]]]:
    """The only count of the links among neighbors.  For each s in the
    strictly ascending ``sizes``, (average clustering, 6T / sum d(d-1) or None
    when no vertex has degree >= 2) of the subgraph induced on vertices
    0..s-1; and each local clustering of the largest such subgraph as the
    unreduced pair (2 * links, d(d-1)), or (0, 1) when d <= 1.

    Vertices join in index order.  A new vertex u with earlier neighbours P
    changes only the terms of u and P: each p in P gains |N(p) & P| links
    among its neighbours, and u's links and the new triangles are half their
    sum.  The average adds each unreduced ratio once, times its vertex count."""
    links, degree = [0] * g.n, [0] * g.n  # links counted twice
    ratio = [(0, 1)] * g.n  # (2 * links, d(d-1)); (0, 1) for d <= 1 or not yet added
    count = {(0, 1): g.n}  # ratio -> number of vertices that have it, never 0
    triangles, triples = 0, 0  # T, sum d(d-1)
    rows, top = [], max(sizes, default=0)
    for u in range(top):
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
            old, ratio[v] = ratio[v], (links[v], degree[v] * (degree[v] - 1) or 1)
            count[old] -= 1
            if not count[old]:
                del count[old]
            count[ratio[v]] = count.get(ratio[v], 0) + 1
        if u + 1 == sizes[len(rows)]:
            average = exact_sum((p * c, q) for (p, q), c in count.items()) / (u + 1)
            rows.append((average, Fraction(6 * triangles, triples) if triples else None))
    return rows, ratio[:top]


def clustering(an: Analysis) -> tuple[tuple[Fraction, ...], Fraction, Fraction | None]:
    """(local clusterings, average, global clustering or None) of the
    analysed graph, from one ``prefix_clusterings`` pass per Analysis."""
    def build():
        [(average, glob)], local = prefix_clusterings(an.g, [an.n])
        return tuple(Fraction(*r) for r in local), average, glob
    return an.memo("clustering", build)


def average_clustering(g: Graph) -> Fraction:
    """Mean of the n local clustering coefficients, read off one whole-graph
    ``prefix_clusterings`` pass.  Only tests and perfbench call it."""
    return prefix_clusterings(g, [g.n])[0][0][0]


def require_global(glob: Fraction | None) -> Fraction:
    """The global clustering, refused when it is None."""
    if glob is None:
        raise PreconditionError("global clustering undefined: no vertex of degree >= 2")
    return glob


def global_clustering(g: Graph) -> Fraction:
    """Closed triplets over all connected ordered triples: 6T / sum d(d-1)."""
    return require_global(prefix_clusterings(g, [g.n])[0][0][1])


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


def local_efficiency(an: Analysis) -> Fraction:
    """Mean over all vertices of the efficiency among each one's neighbors,
    with whole-graph distances (degree-1 terms are 0)."""
    return mean([efficiency_sum(an.pair_hists[v]) / (d * (d - 1)) if d > 1
                 else Fraction(0) for v, d in enumerate(an.g.degrees())])


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
    local, average, glob = clustering(an)
    return CentralityReport(
        degree=g.degrees(),
        local_clustering=list(local),
        betweenness=bc,
        stress=st,
        closeness=[closeness(an, v) for v in range(g.n)],
        radiality=[radiality(an, v) for v in range(g.n)],
        density=density(g),
        diameter=diameter(an),
        avg_path_length=avg_path_length(an),
        global_efficiency=global_efficiency(an),
        avg_clustering=average,
        global_clustering=glob,
        local_efficiency=local_efficiency(an),
    )
