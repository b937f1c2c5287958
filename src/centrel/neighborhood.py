"""Neighborhood-restricted measures.

Every quantity here ranges over the neighbors N(i) of a vertex, but all
distances, path counts, and diameters are measured in the whole graph,
never in the induced subgraph.  Degree-1 vertices contribute 0 to every
aggregate while still counting in 1/n averages.

``profile`` reads every field for one vertex in a single scan of the
whole-graph rows of N(i); ``profiles`` does that once per ``DistanceData``,
and ``bc_loc``, ``rad_loc`` and ``clo_loc`` are means over its result.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph
from .paths import DistanceData


def is_complete_neighborhood(g: Graph, i: int) -> bool:
    """True iff the neighbors of i are pairwise adjacent."""
    nbrs = g.neighbors(i)
    d = len(nbrs)
    for a_idx in range(d):
        a = nbrs[a_idx]
        for b_idx in range(a_idx + 1, d):
            if not g.adjacent(a, nbrs[b_idx]):
                return False
    return True


@dataclass(frozen=True)
class NeighborhoodProfile:
    """All neighborhood-restricted values for one vertex.

    Over ordered pairs of distinct neighbors of ``vertex``: ``avg_path`` is
    the mean distance, ``diameter`` the largest one and ``betweenness`` the
    betweenness of the vertex restricted to those pairs.  ``radiality`` and
    ``closeness`` are the means, over the neighbors v, of v's radiality (with
    the neighborhood diameter) and closeness among the other neighbors.  All
    are 0 when the vertex has fewer than two neighbors.
    """

    vertex: int
    avg_path: Fraction
    betweenness: Fraction
    diameter: int
    radiality: Fraction
    closeness: Fraction
    is_complete: bool

    FIELDS = ("avg_path", "betweenness", "diameter", "radiality", "closeness",
              "is_complete")


def profile(g: Graph, dd: DistanceData, i: int) -> NeighborhoodProfile:
    """Every field for vertex i from one scan of the rows of its neighbors.

    Two neighbors s, t have i on a shortest s-t path exactly when
    dist(s, t) = 2, and then on exactly one of the sigma(s, t) such paths, so
    the betweenness is the sum of 1/sigma(s, t) over those ordered pairs.
    Completeness is read from adjacency.
    """
    nbrs = g.neighbors(i)
    d = len(nbrs)
    complete = is_complete_neighborhood(g, i)
    if d <= 1:
        return NeighborhoodProfile(i, Fraction(0), Fraction(0), 0, Fraction(0),
                                   Fraction(0), complete)
    rows = []  # distances from each neighbor to the other neighbors
    detours: Counter = Counter()  # sigma(s, t) -> ordered pairs at distance 2
    for s in nbrs:
        dist, sigma = dd.dist[s], dd.sigma[s]
        rows.append([dist[t] for t in nbrs if t != s])
        detours.update(sigma[t] for t in nbrs if dist[t] == 2)
    diam = max(map(max, rows))
    pairs = d * (d - 1)
    return NeighborhoodProfile(
        vertex=i,
        avg_path=Fraction(sum(map(sum, rows)), pairs),
        betweenness=sum((Fraction(count, paths) for paths, count in detours.items()),
                        Fraction(0)),
        diameter=diam,
        radiality=Fraction(sum(diam + 1 - x for row in rows for x in row), pairs),
        closeness=sum((Fraction(d - 1, sum(row)) for row in rows), Fraction(0)) / d,
        is_complete=complete,
    )


def profiles(g: Graph, dd: DistanceData) -> list[NeighborhoodProfile]:
    """Every vertex's profile, computed once per DistanceData.

    Later calls with the same ``dd`` return a copy of the stored list.
    """
    return list(dd.memo("profiles", lambda: [profile(g, dd, i) for i in range(g.n)]))


def bc_loc(g: Graph, dd: DistanceData) -> Fraction:
    """Mean of BC(i, N(i)) / (d_i (d_i - 1)) over all vertices."""
    return sum((p.betweenness / (d * (d - 1))
                for p, d in zip(profiles(g, dd), g.degrees()) if d > 1),
               Fraction(0)) / g.n


def rad_loc(g: Graph, dd: DistanceData) -> Fraction:
    """Mean neighborhood radiality over all vertices."""
    return sum((p.radiality for p in profiles(g, dd)), Fraction(0)) / g.n


def clo_loc(g: Graph, dd: DistanceData) -> Fraction:
    """Mean neighborhood closeness over all vertices."""
    return sum((p.closeness for p in profiles(g, dd)), Fraction(0)) / g.n
