"""Vertex and graph-level centrality measures, all in exact rationals.

Degree-normalized quantities follow the degree-1 convention: any value with
d*(d-1) in its denominator is 0 for vertices of degree <= 1, and such
vertices still count in 1/n averages.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, PreconditionError
from .paths import (Analysis, avg_path_length, density, diameter,
                    efficiency_sum, exact_sum, global_efficiency)


# A joining vertex with at least this many earlier neighbours counts their
# links on bit masks, and with fewer by set intersection.  The measured
# crossover: masks were at least as fast from 8 earlier neighbours at
# n = 200, from 12 at n = 2,000 and from 20 at n = 10,000, and at 24 they
# took 0.48, 0.65 and 0.91 of the sets' time (see the README).
MASK_FROM = 24


def _mask(vertices: Iterable[int]) -> int:
    """The integer with bit v set for each v in ``vertices``."""
    bits = 0
    for v in vertices:
        bits |= 1 << v
    return bits


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
    sum.  With fewer than ``MASK_FROM`` earlier neighbours |N(p) & P| is a
    set intersection, |P| probes for each p; from there on it is the bit
    count of two integer masks (Schank and Wagner, WEA 2005; Latapy, Theor.
    Comput. Sci. 407, 2008).  p's mask of N(p) is built when a joining vertex first
    needs it and dropped once p's last neighbour has joined.  At each size,
    each vertex changed since the size before moves its ratio in a multiset
    of ratios, and the average adds each unreduced ratio once, times its
    vertex count."""
    top = max(sizes, default=0)
    nbrs = list(map(g.neighbors, range(top)))
    nbr_sets = list(map(g.neighbor_set, range(top)))
    links = [0] * top  # links among each vertex's neighbours joined so far
    degree = [0] * top  # as of the last size
    ratio = [(0, 1)] * top  # (2 * links, d(d-1)) as of the last size; (0, 1) for d <= 1
    count = {(0, 1): top}  # ratio -> number of vertices that have it, never 0
    masks, last = {}, {}  # p -> mask of N(p); u -> the masks to drop once u has joined
    changed, rows, start, triangles, triples = set(), [], 0, 0, 0
    for u in range(top):
        prior = nbrs[u][:bisect_left(nbrs[u], u)]
        if len(prior) < MASK_FROM:
            shared = [len(nbr_sets[p].intersection(prior)) for p in prior]
        else:
            for p in prior:
                if p not in masks:
                    masks[p] = _mask(nbrs[p])
                    last.setdefault(nbrs[p][-1], []).append(p)
            within = _mask(prior)
            shared = [(masks[p] & within).bit_count() for p in prior]
        for p, c in zip(prior, shared):
            links[p] += c
        links[u] = sum(shared) // 2
        triangles += links[u]
        changed.update(prior)
        for p in last.pop(u, ()):
            del masks[p]
        if u + 1 == sizes[len(rows)]:
            s = u + 1
            changed.update(range(start, s))
            for v in changed:
                d = bisect_left(nbrs[v], s)
                triples += d * (d - 1) - degree[v] * (degree[v] - 1)
                degree[v] = d
                old, ratio[v] = ratio[v], (2 * links[v], d * (d - 1) or 1)
                count[old] -= 1
                if not count[old]:
                    del count[old]
                count[ratio[v]] = count.get(ratio[v], 0) + 1
            changed.clear()
            start = s
            average = exact_sum((p * c, q * s) for (p, q), c in count.items())
            rows.append((average, Fraction(6 * triangles, triples) if triples else None))
    return rows, ratio


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

def betweenness_and_stress(an: Analysis) -> tuple[list[Fraction] | None, list[int]]:
    """Exact Brandes betweenness and stress, from the pass of ``all_pairs``.

    Both sums run over ordered pairs (s, t), s != t != i.  Every call returns
    fresh copies of the values in ``an``, and None for the betweenness of a
    pass without it (``all_pairs(g, betweenness=False)``).  It stays a
    function of its own while perfbench counts its calls
    (``centralities.brandes_calls``).
    """
    bc = None if an.betweenness is None else list(an.betweenness)
    return bc, list(an.stress)


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
    with whole-graph distances (degree-1 terms are 0), one term per orbit."""
    return an.pair_mean(lambda v: efficiency_sum(an.pair_hists[v]))


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
    """Every measure of the analysed graph; closeness and the local
    efficiency once per orbit.  ``ValueError`` for an Analysis without
    betweenness.

    Radiality stays per vertex: ``perfbench/test_perfbench.py`` pins one
    diameter read per radiality on the benchmark matrix."""
    g = an.g
    bc, st = betweenness_and_stress(an)
    if bc is None:
        raise ValueError("compute_report needs the betweenness of the pass; this "
                         "Analysis comes from all_pairs(g, betweenness=False)")
    local, average, glob = clustering(an)
    return CentralityReport(
        degree=g.degrees(),
        local_clustering=list(local),
        betweenness=bc,
        stress=st,
        closeness=an.per_orbit(lambda v: closeness(an, v)),
        radiality=[radiality(an, v) for v in range(g.n)],
        density=density(g),
        diameter=diameter(an),
        avg_path_length=avg_path_length(an),
        global_efficiency=global_efficiency(an),
        avg_clustering=average,
        global_clustering=glob,
        local_efficiency=local_efficiency(an),
    )
