"""Clustering coefficients of any graph, from its closed triples one by one.

The reference that the tests check ``prefix_clusterings`` against where the
oracle cannot serve: disconnected graphs, isolated vertices, and graphs too
large for its n^3 pass.  It tests each ordered pair of neighbours for
adjacency, so it shares no count with the library's link counting.
"""

from __future__ import annotations

from fractions import Fraction

from centrel.graphs import Graph


def closed_triples(g: Graph, i: int) -> int:
    """Ordered pairs (j, k) of distinct neighbours of i with j ~ k."""
    nbrs = g.neighbors(i)
    return sum(1 for j in nbrs for k in nbrs if j != k and g.adjacent(j, k))


def reference_clustering(g: Graph) -> tuple[list[Fraction], Fraction, Fraction | None]:
    """(local clusterings, their mean over all n vertices, global clustering):
    c_i is 0 for degree <= 1, and the global ratio is None without a vertex
    of degree >= 2."""
    closed = [closed_triples(g, i) for i in range(g.n)]
    pairs = [d * (d - 1) for d in g.degrees()]
    local = [Fraction(c, p) if p else Fraction(0) for c, p in zip(closed, pairs)]
    glob = Fraction(sum(closed), sum(pairs)) if any(pairs) else None
    return local, sum(local, Fraction(0)) / g.n, glob
