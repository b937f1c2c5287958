"""Vertex and graph-level centrality measures, all in exact rationals.

Degree-normalized quantities follow the degree-1 convention: any value with
d*(d-1) in its denominator is 0 for vertices of degree <= 1, and such
vertices still count in 1/n averages.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, PreconditionError
from .paths import (DistanceData, all_pairs, avg_path_length, density,
                    diameter, efficiency_sum, global_efficiency)


def local_clustering(g: Graph, i: int) -> Fraction:
    """Edge density of the subgraph induced on the neighbors of i."""
    d = g.degree(i)
    if d <= 1:
        return Fraction(0)
    nbrs = g.neighbors(i)
    links = 0
    for a_idx in range(d):
        a = nbrs[a_idx]
        for b_idx in range(a_idx + 1, d):
            if g.adjacent(a, nbrs[b_idx]):
                links += 1
    return Fraction(2 * links, d * (d - 1))


def local_clusterings(g: Graph, dd: DistanceData) -> list[Fraction]:
    """Every vertex's local clustering (from adjacency alone), computed once
    per DistanceData; later calls return a copy of the stored list."""
    return list(dd.memo("clustering",
                        lambda: [local_clustering(g, i) for i in range(g.n)]))


def average_clustering(g: Graph) -> Fraction:
    """Mean of the local clustering coefficients over all n vertices."""
    return sum((local_clustering(g, i) for i in range(g.n)), Fraction(0)) / g.n


def triangle_count(g: Graph) -> int:
    """Number of triangles, via common-neighbor counts per edge."""
    total = 0
    for i, j in g.edges():
        ni = set(g.neighbors(i))
        total += sum(1 for w in g.neighbors(j) if w in ni)
    # each triangle is counted once per edge
    return total // 3


def global_clustering(g: Graph) -> Fraction:
    """Closed triplets over all connected ordered triples: 6T / sum d(d-1)."""
    denom = sum(d * (d - 1) for d in g.degrees())
    if denom == 0:
        raise PreconditionError(
            "global clustering undefined: no vertex of degree >= 2")
    return Fraction(6 * triangle_count(g), denom)


# ---------------------------------------------------------------------------
# Betweenness and stress
# ---------------------------------------------------------------------------

def betweenness_and_stress(g: Graph, dd: DistanceData | None = None
                           ) -> tuple[list[Fraction], list[int]]:
    """Exact Brandes betweenness and stress, computed once per DistanceData.

    Both sums run over ordered pairs (s, t), s != t != i.  The pass reads the
    all-pairs rows of ``dd`` (built from ``g`` when omitted, so ``g`` must be
    connected) and stores its result there; later calls with the same ``dd``
    return copies of it.
    """
    if dd is None:
        dd = all_pairs(g)
    bc, stress = dd.memo("brandes", lambda: _brandes(g, dd))
    return list(bc), list(stress)


def _brandes(g: Graph, dd: DistanceData) -> tuple[list[Fraction], list[int]]:
    """Brandes dependency accumulation over the BFS rows of ``dd``.

    For source s the vertices are visited by decreasing distance, and the
    predecessors of w are its neighbors one hop closer to s.  Stress sums the
    tail counts (targets below v, path multiplicity included).

    Betweenness is accumulated on integers.  Let L_s be the lcm of the path
    counts sigma_s(.), and keep D(v) = L_s * delta_s(v).  D(w) is a multiple
    of sigma(w), so it is stored as A(w) = D(w) / sigma(w) and the Brandes
    step D(v) += sigma(v) * (L_s + D(w)) / sigma(w) becomes
    A(v) += L_s // sigma(w) + A(w), with exact floor division.  The sources
    share one running common denominator L: the integer totals are rescaled
    when L_s does not divide L, and each vertex's value is a single
    ``Fraction(total, L)`` at the end.
    """
    n = g.n
    stress = [0] * n
    totals = [0] * n
    denom = 1
    for s in range(n):
        dist = dd.dist[s]
        sigma = dd.sigma[s]
        order = sorted(range(n), key=dist.__getitem__)
        lcm_s = math.lcm(*sigma)
        scaled = [0] * n  # A(v) = L_s * delta_s(v) / sigma_s(v)
        tails = [0] * n
        for w in reversed(order):
            tw = tails[w]
            coeff = lcm_s // sigma[w] + scaled[w]
            closer = dist[w] - 1
            for v in g.neighbors(w):
                if dist[v] == closer:
                    scaled[v] += coeff
                    tails[v] += 1 + tw
            if w != s:
                stress[w] += sigma[w] * tw
        if denom % lcm_s:
            grown = math.lcm(denom, lcm_s)
            factor = grown // denom
            totals = [t * factor for t in totals]
            denom = grown
        factor = denom // lcm_s
        for w in order:
            if w != s:
                totals[w] += sigma[w] * scaled[w] * factor
    return [Fraction(t, denom) for t in totals], stress


def betweenness_definitional(g: Graph, dd: DistanceData) -> list[Fraction]:
    """Betweenness straight from the definition, pair by ordered pair."""
    n = g.n
    out = []
    for i in range(n):
        acc = Fraction(0)
        for s in range(n):
            if s == i:
                continue
            dist_si = dd.dist[s][i]
            sigma_s = dd.sigma[s]
            dist_s = dd.dist[s]
            dist_i = dd.dist[i]
            sigma_si = sigma_s[i]
            for t in range(n):
                if t == s or t == i:
                    continue
                if dist_si + dist_i[t] == dist_s[t]:
                    acc += Fraction(sigma_si * dd.sigma[i][t], sigma_s[t])
        out.append(acc)
    return out


def stress_definitional(g: Graph, dd: DistanceData) -> list[int]:
    """Stress straight from the definition, pair by ordered pair."""
    n = g.n
    out = []
    for i in range(n):
        acc = 0
        for s in range(n):
            if s == i:
                continue
            dist_si = dd.dist[s][i]
            sigma_si = dd.sigma[s][i]
            dist_s = dd.dist[s]
            dist_i = dd.dist[i]
            sigma_i = dd.sigma[i]
            for t in range(n):
                if t == s or t == i:
                    continue
                if dist_si + dist_i[t] == dist_s[t]:
                    acc += sigma_si * sigma_i[t]
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# Closeness, radiality, local efficiency
# ---------------------------------------------------------------------------

def closeness(g: Graph, dd: DistanceData, v: int) -> Fraction:
    """(n-1) over the sum of distances from v."""
    if g.n < 2:
        raise PreconditionError("closeness needs at least 2 vertices")
    return Fraction(g.n - 1, dd.row_sum(v))


def radiality(g: Graph, dd: DistanceData, v: int) -> Fraction:
    """Mean of (diam + 1 - dist(v, t)) over the other vertices."""
    if g.n < 2:
        raise PreconditionError("radiality needs at least 2 vertices")
    diam = diameter(dd)
    row = dd.dist[v]
    total = sum(diam + 1 - row[t] for t in range(g.n) if t != v)
    return Fraction(total, g.n - 1)


def neighborhood_efficiency(g: Graph, dd: DistanceData, v: int) -> Fraction:
    """Efficiency among the neighbors of v, with whole-graph distances."""
    d = g.degree(v)
    if d <= 1:
        return Fraction(0)
    nbrs = g.neighbors(v)
    hist: Counter = Counter()  # hop distance -> number of ordered pairs
    for a in nbrs:
        hist.update(map(dd.dist[a].__getitem__, nbrs))
    return efficiency_sum(hist) / (d * (d - 1))


def local_efficiency(g: Graph, dd: DistanceData) -> Fraction:
    """Mean neighborhood efficiency over all vertices (degree-1 terms are 0)."""
    total = sum((neighborhood_efficiency(g, dd, v) for v in range(g.n)),
                Fraction(0))
    return total / g.n


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


def compute_report(g: Graph, dd: DistanceData | None = None) -> CentralityReport:
    """Compute the full CentralityReport (connected graphs only)."""
    if dd is None:
        dd = all_pairs(g)
    bc, st = betweenness_and_stress(g, dd)
    clustering = local_clusterings(g, dd)
    try:
        glob_c = global_clustering(g)
    except PreconditionError:
        glob_c = None
    return CentralityReport(
        degree=g.degrees(),
        local_clustering=clustering,
        betweenness=bc,
        stress=st,
        closeness=[closeness(g, dd, v) for v in range(g.n)],
        radiality=[radiality(g, dd, v) for v in range(g.n)],
        density=density(g),
        diameter=diameter(dd),
        avg_path_length=avg_path_length(dd),
        global_efficiency=global_efficiency(dd),
        avg_clustering=sum(clustering, Fraction(0)) / g.n,
        global_clustering=glob_c,
        local_efficiency=local_efficiency(g, dd),
    )
