"""Vertex and graph-level centrality measures, all in exact rationals.

Degree-normalized quantities follow the degree-1 convention: any value with
d*(d-1) in its denominator is 0 for vertices of degree <= 1, and such
vertices still count in 1/n averages.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph
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
        raise ValueError("global clustering undefined: no vertex of degree >= 2")
    return Fraction(6 * triangle_count(g), denom)


# ---------------------------------------------------------------------------
# Betweenness and stress
# ---------------------------------------------------------------------------

# Beyond this, betweenness falls back to floats.  Exact accumulation is
# integer arithmetic over a common denominator (see betweenness_and_stress);
# the threshold is not yet derived from a measured time budget.
EXACT_BC_MAX_VERTICES = 4096


def betweenness_and_stress(g: Graph, exact: bool | None = None
                           ) -> tuple[list[Fraction], list[int]]:
    """Brandes dependency accumulation for betweenness and stress.

    Both sums run over ordered pairs (s, t), s != t != i.  Stress is always
    an exact integer.  Betweenness is exact by default; ``exact=False`` (or
    leaving the default on a graph past EXACT_BC_MAX_VERTICES) switches to
    floats.

    The exact branch works on integers.  For source s, let L_s be the lcm of
    the path counts sigma_s(.), and keep D(v) = L_s * delta_s(v).  D(w) is a
    multiple of sigma(w), so it is stored as A(w) = D(w) / sigma(w) and the
    Brandes step D(v) += sigma(v) * (L_s + D(w)) / sigma(w) becomes
    A(v) += L_s // sigma(w) + A(w), with exact floor division.  The sources
    share one running common denominator L: the integer totals are rescaled
    when L_s does not divide L, and each vertex's value is a single
    ``Fraction(total, L)`` at the end.
    """
    n = g.n
    if exact is None:
        exact = n <= EXACT_BC_MAX_VERTICES
    stress = [0] * n
    if exact:
        totals = [0] * n
        denom = 1
    else:
        bc = [0.0] * n
    for s in range(n):
        # BFS with predecessor lists
        dist = [-1] * n
        sigma = [0] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        dist[s] = 0
        sigma[s] = 1
        queue = deque([s])
        order = []
        while queue:
            v = queue.popleft()
            order.append(v)
            dv = dist[v]
            sv = sigma[v]
            for w in g.neighbors(v):
                if dist[w] < 0:
                    dist[w] = dv + 1
                    queue.append(w)
                if dist[w] == dv + 1:
                    sigma[w] += sv
                    preds[w].append(v)
        # reverse-order accumulation; dependencies for betweenness, tail
        # counts for stress (targets below v, path multiplicity included)
        tails = [0] * n
        if exact:
            lcm_s = math.lcm(*[sigma[v] for v in order])
            scaled = [0] * n  # A(v) = L_s * delta_s(v) / sigma_s(v)
            for w in reversed(order):
                tw = tails[w]
                coeff = lcm_s // sigma[w] + scaled[w]
                for v in preds[w]:
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
        else:
            delta = [0.0] * n
            for w in reversed(order):
                tw = tails[w]
                coeff = (delta[w] + 1) / sigma[w]
                for v in preds[w]:
                    delta[v] += sigma[v] * coeff
                    tails[v] += 1 + tw
                if w != s:
                    bc[w] += delta[w]
                    stress[w] += sigma[w] * tw
    if exact:
        bc = [Fraction(t, denom) for t in totals]
    return bc, stress


def betweenness(g: Graph, exact: bool | None = None) -> list[Fraction]:
    """Per-vertex betweenness over ordered pairs."""
    return betweenness_and_stress(g, exact=exact)[0]


def stress(g: Graph) -> list[int]:
    """Per-vertex stress (raw shortest-path counts) over ordered pairs."""
    return betweenness_and_stress(g)[1]


def betweenness_definitional(g: Graph, dd: DistanceData) -> list[Fraction]:
    """Betweenness straight from the definition, via sigma_through sums."""
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
    """Stress straight from the definition, via sigma_through sums."""
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
        raise ValueError("closeness needs at least 2 vertices")
    return Fraction(g.n - 1, dd.row_sum(v))


def radiality(g: Graph, dd: DistanceData, v: int) -> Fraction:
    """Mean of (diam + 1 - dist(v, t)) over the other vertices."""
    if g.n < 2:
        raise ValueError("radiality needs at least 2 vertices")
    diam = diameter(dd)
    row = dd.dist[v]
    total = sum(diam + 1 - row[t] for t in range(g.n) if t != v)
    return Fraction(total, g.n - 1)


def neighborhood_efficiency(g: Graph, dd: DistanceData, v: int,
                            induced: bool = False) -> Fraction:
    """Efficiency among the neighbors of v.

    Distances are read in the whole graph by default.  With ``induced``,
    distances are recomputed inside the subgraph induced on the neighbors,
    and unreachable pairs contribute 0.
    """
    d = g.degree(v)
    if d <= 1:
        return Fraction(0)
    nbrs = g.neighbors(v)
    hist: Counter = Counter()  # hop distance -> number of ordered pairs
    if not induced:
        for a in nbrs:
            hist.update(map(dd.dist[a].__getitem__, nbrs))
    else:
        index = {u: k for k, u in enumerate(nbrs)}
        local_adj = [[index[w] for w in g.neighbors(u) if w in index] for u in nbrs]
        for src in range(d):
            dist = [-1] * d
            dist[src] = 0
            queue = deque([src])
            while queue:
                x = queue.popleft()
                for y in local_adj[x]:
                    if dist[y] < 0:
                        dist[y] = dist[x] + 1
                        queue.append(y)
            hist.update(dist)
    return efficiency_sum(hist) / (d * (d - 1))


def local_efficiency(g: Graph, dd: DistanceData, induced: bool = False) -> Fraction:
    """Mean neighborhood efficiency over all vertices (degree-1 terms are 0)."""
    total = sum((neighborhood_efficiency(g, dd, v, induced=induced)
                 for v in range(g.n)), Fraction(0))
    return total / g.n


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------

@dataclass
class CentralityReport:
    """Every per-vertex and graph-level measure for one graph."""

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


def compute_report(g: Graph, dd: DistanceData | None = None) -> CentralityReport:
    """Compute the full CentralityReport (connected graphs only)."""
    if dd is None:
        dd = all_pairs(g)
    bc, st = betweenness_and_stress(g)
    try:
        glob_c = global_clustering(g)
    except ValueError:
        glob_c = None
    return CentralityReport(
        degree=g.degrees(),
        local_clustering=[local_clustering(g, i) for i in range(g.n)],
        betweenness=bc,
        stress=st,
        closeness=[closeness(g, dd, v) for v in range(g.n)],
        radiality=[radiality(g, dd, v) for v in range(g.n)],
        density=density(g),
        diameter=diameter(dd),
        avg_path_length=avg_path_length(dd),
        global_efficiency=global_efficiency(dd),
        avg_clustering=average_clustering(g),
        global_clustering=glob_c,
        local_efficiency=local_efficiency(g, dd),
    )
