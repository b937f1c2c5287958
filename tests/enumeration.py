"""Every shortest path of a small graph, listed one by one.

The reference that the tests check BFS path counts and the oracle's
sigma(s, i) * sigma(i, t) / sigma(s, t) sums against.  Its distances come from
the oracle's own BFS, so the fast ``bfs`` is never compared with itself.
Time and memory grow with the number of shortest paths: keep n small.
"""

from __future__ import annotations

from centrel.graphs import Graph
from centrel.oracle import _bfs_levels


class PathEnumeration:
    """Every shortest path, as a vertex sequence, for every ordered pair."""

    __slots__ = ("n", "dist", "paths")

    def __init__(self, n: int, dist: list[list[int]],
                 paths: dict[tuple[int, int], list[tuple[int, ...]]]):
        self.n = n
        self.dist = dist
        self.paths = paths

    def count(self, s: int, t: int) -> int:
        if s == t:
            return 1
        return len(self.paths[(s, t)])


def enumerate_shortest_paths(g: Graph) -> PathEnumeration:
    """DFS over the BFS-layered DAG of the connected ``g``, listing every
    shortest path."""
    dist_rows = [_bfs_levels(g, s) for s in range(g.n)]
    assert all(d >= 0 for row in dist_rows for d in row), "graph is disconnected"

    paths: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for s in range(g.n):
        dist = dist_rows[s]
        for t in range(g.n):
            if t == s:
                continue
            found: list[tuple[int, ...]] = []
            stack = [(s,)]
            while stack:
                partial = stack.pop()
                u = partial[-1]
                if u == t:
                    found.append(partial)
                    continue
                for w in g.neighbors(u):
                    if dist[w] == dist[u] + 1 and dist_rows[w][t] == dist[t] - dist[w]:
                        stack.append(partial + (w,))
            found.sort()
            paths[(s, t)] = found
    return PathEnumeration(g.n, dist_rows, paths)
