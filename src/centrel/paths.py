"""All-pairs shortest-path distances, path counts, and global distance metrics.

Distances are exact hop counts; shortest-path counts come from the standard
BFS dynamic program.  Derived means are exact rationals.
"""

from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction

from .graphs import Graph, PreconditionError, check_size_cap


class DisconnectedGraphError(PreconditionError):
    """Raised when a distance-based measure meets an unreachable pair."""


class DistanceData:
    """Dense all-pairs hop counts ``dist`` and shortest-path counts ``sigma``.

    ``dist[s][t]`` is the hop distance, ``sigma[s][t]`` the number of distinct
    shortest s-t paths (``sigma[s][s] == 1`` by convention).  Both matrices
    are symmetric for undirected graphs.  The per-graph results built from
    them (the diameter, the Brandes betweenness and stress, the neighborhood
    profiles) and the local clusterings of the same graph are kept by
    ``memo``, so the matrices must not be mutated afterwards.
    """

    __slots__ = ("dist", "sigma", "_memo")

    def __init__(self, dist: list[list[int]], sigma: list[list[int]]):
        self.dist = dist
        self.sigma = sigma
        self._memo: dict = {}

    @property
    def n(self) -> int:
        return len(self.dist)

    def row_sum(self, v: int) -> int:
        return sum(self.dist[v])

    def memo(self, key: str, build):
        """``build()`` on the first call for ``key``; the stored result of
        that call on every later one."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]


def _bfs_counting(g: Graph, source: int) -> tuple[list[int], list[int]]:
    dist = [-1] * g.n
    sigma = [0] * g.n
    dist[source] = 0
    sigma[source] = 1
    queue = deque([source])
    while queue:
        v = queue.popleft()
        dv = dist[v]
        sv = sigma[v]
        for w in g.neighbors(v):
            if dist[w] < 0:
                dist[w] = dv + 1
                queue.append(w)
            if dist[w] == dv + 1:
                sigma[w] += sv
    return dist, sigma


def all_pairs(g: Graph) -> DistanceData:
    """BFS from every source; errors on disconnected input."""
    check_size_cap(g.n)
    dist_rows = []
    sigma_rows = []
    for s in range(g.n):
        dist, sigma = _bfs_counting(g, s)
        if any(d < 0 for d in dist):
            raise DisconnectedGraphError(
                f"vertex {s} cannot reach every vertex; distance sums undefined")
        dist_rows.append(dist)
        sigma_rows.append(sigma)
    return DistanceData(dist_rows, sigma_rows)


def diameter(dd: DistanceData) -> int:
    """Largest hop distance over all pairs (scanned once per DistanceData)."""
    if dd.n < 2:
        raise PreconditionError("diameter needs at least 2 vertices")
    return dd.memo("diameter", lambda: max(max(row) for row in dd.dist))


def efficiency_sum(hist: Counter) -> Fraction:
    """Sum of count/d over a histogram of hop distances d.

    Entries with d <= 0 (a vertex to itself, or unreachable) contribute 0.
    """
    return sum((Fraction(count, d) for d, count in hist.items() if d > 0),
               Fraction(0))


def avg_path_length(dd: DistanceData) -> Fraction:
    """Mean hop distance over ordered pairs s != t."""
    n = dd.n
    if n < 2:
        raise PreconditionError("average path length needs at least 2 vertices")
    total = sum(sum(row) for row in dd.dist)
    return Fraction(total, n * (n - 1))


def global_efficiency(dd: DistanceData) -> Fraction:
    """Mean inverse hop distance over ordered pairs s != t."""
    n = dd.n
    if n < 2:
        raise PreconditionError("global efficiency needs at least 2 vertices")
    hist: Counter = Counter()
    for row in dd.dist:
        hist.update(row)
    return efficiency_sum(hist) / (n * (n - 1))


def density(g: Graph) -> Fraction:
    """Edge count over the maximum possible edge count."""
    if g.n < 2:
        raise PreconditionError("density needs at least 2 vertices")
    return Fraction(2 * g.m, g.n * (g.n - 1))
