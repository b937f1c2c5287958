"""Neighborhood-restricted measures.

Every quantity here ranges over the neighbors N(i) of a vertex, but all
distances, path counts, and diameters are measured in the whole graph,
never in the induced subgraph.  Degree-1 vertices contribute 0 to every
aggregate while still counting in 1/n averages.

``profile`` reads every field for one vertex from the neighbor-pair
summaries that ``all_pairs`` folds out of the BFS rows of N(i);
``profiles`` does that once per ``Analysis``, and ``bc_loc``, ``rad_loc``
and ``clo_loc`` are means over its result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph
from .paths import Analysis, exact_sum


def is_complete_neighborhood(g: Graph, i: int) -> bool:
    """True iff the neighbors of i are pairwise adjacent."""
    nbrs = g.neighbor_set(i)
    return all(len(nbrs & g.neighbor_set(a)) == len(nbrs) - 1 for a in nbrs)


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


def profile(an: Analysis, i: int) -> NeighborhoodProfile:
    """Every field for vertex i from the neighbor-pair summaries of ``an``.

    Two neighbors s, t have i on a shortest s-t path exactly when
    dist(s, t) = 2, and then on exactly one of the sigma(s, t) such paths, so
    the betweenness is the sum of 1/sigma(s, t) over those ordered pairs.
    Completeness is read from adjacency.
    """
    g = an.g
    d = g.degree(i)
    complete = is_complete_neighborhood(g, i)
    if d <= 1:
        return NeighborhoodProfile(i, Fraction(0), Fraction(0), 0, Fraction(0),
                                   Fraction(0), complete)
    hist = an.pair_hists[i]  # its d pairs s == t, at 0, add nothing below
    diam = max(hist)
    pairs = d * (d - 1)
    return NeighborhoodProfile(
        vertex=i,
        avg_path=Fraction(sum(x * count for x, count in hist.items()), pairs),
        betweenness=exact_sum((count, paths)
                              for paths, count in an.detours[i].items()),
        diameter=diam,
        radiality=Fraction(sum(count * (diam + 1 - x)
                               for x, count in hist.items() if x), pairs),
        closeness=exact_sum((count * (d - 1), total)
                            for total, count in an.pair_sums[i].items()) / d,
        is_complete=complete,
    )


def profiles(an: Analysis) -> list[NeighborhoodProfile]:
    """Every vertex's profile, computed once per Analysis.

    Later calls with the same ``an`` return a copy of the stored list.
    """
    return list(an.memo("profiles", lambda: [profile(an, i) for i in range(an.n)]))


def bc_loc(an: Analysis) -> Fraction:
    """Mean of BC(i, N(i)) / (d_i (d_i - 1)) over all vertices."""
    return exact_sum((p.betweenness.numerator, p.betweenness.denominator * d * (d - 1))
                     for p, d in zip(profiles(an), an.g.degrees()) if d > 1) / an.n


def rad_loc(an: Analysis) -> Fraction:
    """Mean neighborhood radiality over all vertices."""
    return exact_sum(p.radiality.as_integer_ratio() for p in profiles(an)) / an.n


def clo_loc(an: Analysis) -> Fraction:
    """Mean neighborhood closeness over all vertices."""
    return exact_sum(p.closeness.as_integer_ratio() for p in profiles(an)) / an.n
