"""Every connected graph on a few vertices, one per isomorphism class.

Each graph on n vertices is a graph on n - 1 vertices plus a new vertex
joined to a nonempty set of them: a connected graph keeps a connected
subgraph when a leaf of a spanning tree is removed, so growing every graph
on n - 1 vertices by every neighbour set reaches every class.  Duplicates are
dropped by a canonical form, the smallest sorted edge list over the
relabelings that keep each vertex's (degree, sorted neighbour degrees).  An
automorphism keeps that invariant too, so the same relabelings give the
brute-force orbits.  Time grows with n! on regular graphs: keep n small.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations, product

from centrel.graphs import Graph

Edges = tuple[tuple[int, int], ...]


def _invariant_classes(n: int, edges: Edges) -> list[list[int]]:
    """The vertices grouped by (degree, sorted neighbour degrees), ascending."""
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    key = [(len(nbrs[v]), tuple(sorted(len(nbrs[u]) for u in nbrs[v]))) for v in range(n)]
    classes: dict[tuple, list[int]] = {}
    for v in sorted(range(n), key=lambda v: key[v]):
        classes.setdefault(key[v], []).append(v)
    return list(classes.values())


def _relabelings(n: int, edges: Edges):
    """Every vertex map that sends each invariant class onto itself."""
    classes = _invariant_classes(n, edges)
    for images in product(*(permutations(vs) for vs in classes)):
        perm = [0] * n
        for vs, ws in zip(classes, images):
            for v, w in zip(vs, ws):
                perm[v] = w
        yield perm


def _relabeled(perm: list[int], edges: Edges) -> Edges:
    return tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))


def _canonical(n: int, edges: Edges) -> Edges:
    """The smallest sorted edge list over the class-keeping relabelings, after
    the classes are laid out in ascending order of their invariant."""
    order = [v for vs in _invariant_classes(n, edges) for v in vs]
    edges = _relabeled([order.index(v) for v in range(n)], edges)
    return min(_relabeled(perm, edges) for perm in _relabelings(n, edges))


@lru_cache(maxsize=None)
def _edge_lists(n: int) -> tuple[Edges, ...]:
    if n == 1:
        return ((),)
    grown = {_canonical(n, edges + tuple((v, n - 1) for v in joined))
             for edges in _edge_lists(n - 1)
             for size in range(1, n) for joined in combinations(range(n - 1), size)}
    return tuple(sorted(grown))


def connected_graphs(n: int) -> list[Graph]:
    """One graph per isomorphism class of connected graphs on n vertices."""
    return [Graph(edges, n) for edges in _edge_lists(n)]


def brute_force_orbits(g: Graph) -> list[list[int]]:
    """The automorphism orbits of ``g``, ascending and sorted, from every
    class-keeping relabeling that maps the edge set onto itself."""
    edges = tuple(g.edges())
    automorphisms = [perm for perm in _relabelings(g.n, edges)
                     if _relabeled(perm, edges) == tuple(sorted(edges))]
    return sorted(map(list, {tuple(sorted({perm[v] for perm in automorphisms}))
                             for v in range(g.n)}))
