"""One BFS per twin class, folded into per-graph distance and path summaries.

Distances are exact hop counts; shortest-path counts come from the standard
BFS dynamic program.  ``all_pairs`` runs one counting BFS and one Brandes
dependency sweep per twin class of sources (``twin_classes``) and keeps
only the per-graph summaries in ``Analysis``: no row outlives its source.
Derived means are exact rationals.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .graphs import Graph, PreconditionError, bfs, check_size_cap


class DisconnectedGraphError(PreconditionError):
    """Raised when a distance-based measure meets an unreachable pair."""


@dataclass(eq=False)
class Analysis:
    """Per-graph summaries of one BFS per twin class, none of them n×n.

    ``g`` is the graph the pass ran on.  ``all_pairs`` builds an Analysis
    only for a graph that is under the size cap, has at least 2 vertices and
    is connected, so every measure that reads one can rely on all three.

    For every vertex v:

    - ``row_sums[v]``: the sum of the hop distances from v
    - ``hists[v]``: hop distance -> number of vertices that far from v
      (v itself at 0), so its largest key is v's eccentricity
    - ``pair_hists[v]``: hop distance -> number of ordered pairs (s, t) of
      neighbors of v that far apart (the pairs s == t at 0 included)
    - ``pair_sums[v]``: one entry per neighbor s of v, in no fixed order:
      the sum of the distances from s to the neighbors of v
    - ``detours[v]``: path count sigma(s, t) -> number of ordered pairs of
      neighbors s, t of v at distance 2

    ``betweenness`` and ``stress`` are the Brandes results of the same pass.
    The per-graph results built from these (the diameter, the neighborhood
    profiles) and the local clusterings of the same graph are kept by
    ``memo``, so the summaries must not be mutated afterwards (twins share
    one ``hists`` entry).
    """

    g: Graph
    row_sums: list[int]
    hists: list[Counter]
    pair_hists: list[Counter]
    pair_sums: list[list[int]]
    detours: list[Counter]
    betweenness: list[Fraction]
    stress: list[int]
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n(self) -> int:
        return self.g.n

    def memo(self, key: str, build):
        """``build()`` on the first call for ``key``; the stored result of
        that call on every later one."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]


def twin_classes(g: Graph) -> list[list[int]]:
    """The vertices of ``g`` in twin classes, found in O(n + m).

    True twins share a closed neighborhood N[v], false twins an open one
    N(v); no vertex has both (a false twin w of v would be adjacent to v's
    true twin, hence to v, so w would be in N(v) = N(w)).  Each class ascends
    from its representative, and the classes are ordered by it."""
    closed: dict[frozenset, list[int]] = {}
    for v in range(g.n):
        closed.setdefault(g.neighbor_set(v) | {v}, []).append(v)
    open_: dict[frozenset, list[int]] = {}
    for members in closed.values():
        if len(members) == 1:
            open_.setdefault(g.neighbor_set(members[0]), []).append(members[0])
    return sorted([c for c in closed.values() if len(c) > 1]
                  + list(open_.values()))


def _times(counts: Counter, k: int) -> dict:
    return {key: count * k for key, count in counts.items()}


def all_pairs(g: Graph) -> Analysis:
    """One BFS per twin class, folded into an ``Analysis``.

    Only the representative r of each class (``twin_classes``) is a source.
    Swapping r and a twin is an automorphism, so every member gets r's row
    sum and histogram, and r's betweenness, stress and neighbor-pair fold
    count once per member.  r adds nothing to its own class: the vertex
    after a twin on a path from r would be a neighbor of r.

    Raises ``PreconditionError`` for a graph past the size cap or with fewer
    than 2 vertices, and ``DisconnectedGraphError`` for a disconnected one.

    The same loop runs the Brandes (2001) dependency sweep from each source s:
    the vertices are visited in reverse BFS order, and each v sums over its
    successors w, the neighbors one hop farther from s.  Stress sums the
    tail counts T(v) = sum of 1 + T(w) (targets below v, path multiplicity
    included), as in Brandes (2008).

    Betweenness is accumulated on integers.  Let L_s be the lcm of the path
    counts sigma_s(.), and keep D(v) = L_s * delta_s(v).  D(w) is a multiple
    of sigma(w), so it is stored as A(w) = D(w) / sigma(w) and the Brandes
    step D(v) = sum of sigma(v) * (L_s + D(w)) / sigma(w) becomes
    A(v) = sum of L_s // sigma(w) + A(w), with exact floor division.  The
    sources share one running common denominator L: the integer totals are
    rescaled when L_s does not divide L, and each vertex's value is a single
    ``Fraction(total, L)`` at the end.
    """
    check_size_cap(g.n)
    n = g.n
    if n < 2:
        raise PreconditionError(
            f"the all-pairs analysis needs at least 2 vertices (n={n})")
    nbrs = [g.neighbors(v) for v in range(n)]
    row_sums = [0] * n
    hists: list = [None] * n  # every slot is set by its class
    pair_hists = [Counter() for _ in range(n)]
    pair_sums: list[list[int]] = [[] for _ in range(n)]
    detours = [Counter() for _ in range(n)]
    stress = [0] * n
    totals = [0] * n
    denom = 1
    for members in twin_classes(g):
        s, size = members[0], len(members)
        order, dist, sigma = bfs(g, s)
        if len(order) < n:
            raise DisconnectedGraphError(
                f"vertex {s} cannot reach every vertex; distance sums undefined")
        row_sum, hist = sum(dist), Counter(dist)
        for v in members:
            row_sums[v], hists[v] = row_sum, hist
        if size == 1:
            # s is a neighbor of each i in N(s): fold in its distances to N(i)
            for i in nbrs[s]:
                row = [dist[t] for t in nbrs[i]]
                pair_hists[i].update(row)
                pair_sums[i].append(sum(row))
                detours[i].update([sigma[t] for t in nbrs[i] if dist[t] == 2])
        else:
            # Each twin u of s folds in the row of s at each i in N(u) outside
            # the class (swapping u and s fixes i).  True twins are adjacent:
            # each member also gets, from its size - 1 twins, s's row at one.
            folds = [(i, i, size) for i in nbrs[s] if i not in members]
            if g.adjacent(s, members[1]):
                folds += [(v, members[1], size - 1) for v in members]
            for i, j, times in folds:
                row = [dist[t] for t in nbrs[j]]
                pair_hists[i].update(_times(Counter(row), times))
                pair_sums[i] += [sum(row)] * times
                detours[i].update(_times(
                    Counter(sigma[t] for t in nbrs[j] if dist[t] == 2), times))

        lcm_s = math.lcm(*set(sigma))
        if denom % lcm_s:
            grown = math.lcm(denom, lcm_s)
            factor = grown // denom
            totals = [t * factor for t in totals]
            denom = grown
        factor = denom // lcm_s * size  # all sources of the class at once
        steps = [0] * n  # L_s // sigma(w) + A(w)
        paths_below = [0] * n  # size * (1 + T(w))
        for k in range(n - 1, 0, -1):  # order[0] is s, which is skipped
            v = order[k]
            farther = dist[v] + 1
            scaled = tail = 0  # A(v) and size * T(v)
            for w in nbrs[v]:
                if dist[w] == farther:
                    scaled += steps[w]
                    tail += paths_below[w]
            sv = sigma[v]
            steps[v] = lcm_s // sv + scaled
            paths_below[v] = size + tail
            stress[v] += sv * tail
            totals[v] += sv * scaled * factor
    return Analysis(g, row_sums, hists, pair_hists, pair_sums, detours,
                    [Fraction(t, denom) for t in totals], stress)


def diameter(an: Analysis) -> int:
    """Largest eccentricity (read once per Analysis)."""
    return an.memo("diameter", lambda: max(max(hist) for hist in an.hists))


def exact_sum(terms: Iterable[tuple[int, int]]) -> Fraction:
    """Sum of p/q over integer pairs (p, q) with q > 0, as one ``Fraction``.

    Like the betweenness totals of ``all_pairs``, it keeps one integer over
    a common denominator grown by lcm only when a new q does not divide it.
    """
    total, denom = 0, 1
    for p, q in terms:
        if denom % q:
            grown = math.lcm(denom, q)
            total *= grown // denom
            denom = grown
        total += p * (denom // q)
    return Fraction(total, denom)


def efficiency_sum(hist: Counter) -> Fraction:
    """Sum of count/d over a histogram of hop distances d > 0."""
    return exact_sum((count, d) for d, count in hist.items() if d > 0)


def avg_path_length(an: Analysis) -> Fraction:
    """Mean hop distance over ordered pairs s != t."""
    return Fraction(sum(an.row_sums), an.n * (an.n - 1))


def global_efficiency(an: Analysis) -> Fraction:
    """Mean inverse hop distance over ordered pairs s != t."""
    hist: Counter = Counter()
    for row_hist in an.hists:
        hist.update(row_hist)
    return efficiency_sum(hist) / (an.n * (an.n - 1))


def density(g: Graph) -> Fraction:
    """Edge count over the maximum possible edge count."""
    if g.n < 2:
        raise PreconditionError("density needs at least 2 vertices")
    return Fraction(2 * g.m, g.n * (g.n - 1))
