"""One BFS per orbit, folded into per-graph distance and path summaries.

Exact hop distances and shortest-path counts come from BFS.  ``all_pairs``
runs one counting BFS and one Brandes dependency sweep (or its stress
recurrence alone) per orbit of verified automorphisms (``orbits``), keeping
only per-graph summaries in ``Analysis``.
Above a measured size a forked child sweeps half of the orbits, and its sums
are merged exactly.  What is read from the ``Analysis`` past the pass is
evaluated once per orbit too: only ``Analysis.per_orbit``,
``Analysis.orbit_mean`` and ``Analysis.pair_mean``, and in this module
``diameter`` and ``global_efficiency``, read how the orbits are stored and
weighted, and ``pair_mean`` alone divides by d(d-1).
"""

from __future__ import annotations

import marshal
import math
import os
import sys
import threading
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .graphs import Graph, PreconditionError, bfs


class DisconnectedGraphError(PreconditionError):
    """Raised when a distance-based measure meets an unreachable pair."""


@dataclass(eq=False)
class Analysis:
    """Per-graph summaries of one BFS per orbit, none of them n×n.

    ``g`` is the graph the pass ran on.  ``all_pairs`` builds an Analysis
    only for a graph that has at least 2 vertices and is connected, so every
    measure that reads one can rely on both.

    For every vertex v:

    - ``row_sums[v]``: the sum of the hop distances from v
    - ``hists[v]``: hop distance -> number of vertices that far from v
      (v itself at 0), so its largest key is v's eccentricity
    - ``pair_hists[v]``: hop distance -> number of ordered pairs (s, t) of
      neighbors of v that far apart (the pairs s == t at 0 included)
    - ``pair_sums[v]``: sum -> number of neighbors s of v whose distances
      to the neighbors of v add up to that sum
    - ``detours[v]``: path count sigma(s, t) -> number of ordered pairs of
      neighbors s, t of v at distance 2

    ``betweenness`` and ``stress`` are the Brandes results of the same pass;
    ``betweenness`` is None, never zeros, when the pass skipped it
    (``all_pairs(g, betweenness=False)``).
    ``orbits`` are the orbits of the pass (``orbits(g)``).  Every field
    above is equal on an orbit, so values read from them are computed once
    per orbit (``per_orbit``, ``orbit_mean``, ``pair_mean``, ``diameter``,
    ``global_efficiency``); the degrees and the clustering pass are not, and
    so cross-check the orbits.

    The per-graph results built from these (the diameter, the neighborhood
    profiles) and the clustering pass over the same graph are kept by
    ``memo``, so the summaries must not be mutated afterwards (the members
    of an orbit share their entries).
    """

    g: Graph
    row_sums: list[int]
    hists: list[Counter]
    pair_hists: list[Counter]
    pair_sums: list[Counter]
    detours: list[Counter]
    betweenness: list[Fraction] | None
    stress: list[int]
    orbits: list[list[int]]
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n(self) -> int:
        return self.g.n

    def per_orbit(self, value) -> list:
        """``value(v)`` at the smallest vertex v of each orbit, shared by the
        orbit's members: one entry per vertex."""
        shared = [None] * self.n
        for vs in self.orbits:
            x = value(vs[0])
            for v in vs:
                shared[v] = x
        return shared

    def orbit_mean(self, value, where=None) -> Fraction:
        """The exact mean of the int or Fraction ``value(v)`` over the
        vertices v (those with ``where(v)``, if given): computed at the
        smallest vertex of each orbit and counted once per member; 0 for
        none."""
        return weighted_mean((*value(vs[0]).as_integer_ratio(), len(vs))
                             for vs in self.orbits if where is None or where(vs[0]))

    def pair_mean(self, value) -> Fraction:
        """The exact mean over all vertices v of ``value(v)`` / (d(d-1)), d
        the degree of v: 0 for d <= 1 (``value`` is not called), still
        counted in 1/n.  Once per orbit, each term an unreduced ratio."""
        def ratio(v: int) -> tuple[int, int]:
            d = self.g.degree(v)
            if d < 2:
                return 0, 1
            p, q = value(v).as_integer_ratio()
            return p, q * d * (d - 1)
        return weighted_mean((*ratio(vs[0]), len(vs)) for vs in self.orbits)

    def memo(self, key: str, build):
        """``build()`` on the first call for ``key``; the stored result of
        that call on every later one."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]


def _twin_quotient(g: Graph) -> tuple[list[int], list[frozenset], list]:
    """The iterated twin quotient of ``g``: each vertex's node, and the
    nodes' adjacency sets and colours.  Each O(n + m) round merges the true
    twins (equal N[v]) and false twins (equal N(v)) of one colour into a node
    coloured (kind, size, their colour).  A node's vertices share an orbit, and
    a colour-keeping automorphism of the quotient lifts to ``g``."""
    node_of, colour = list(range(g.n)), [0] * g.n
    adj = [g.neighbor_set(v) for v in range(g.n)]
    while True:
        # no key (c, N[v]) is a (c, N(w)): v in N(w) puts w in N[v] = N(w)
        twins: dict[tuple, list[int]] = {}
        for v, nbrs in enumerate(adj):
            twins.setdefault((colour[v], nbrs | {v}), []).append(v)
        for key in [key for key, vs in twins.items() if len(vs) == 1]:
            v = twins.pop(key)[0]
            twins.setdefault((colour[v], adj[v]), []).append(v)
        if len(twins) == len(adj):
            return node_of, adj, colour
        classes = sorted(twins.values())
        node = {v: k for k, vs in enumerate(classes) for v in vs}
        node_of = [node[x] for x in node_of]
        colour = [colour[vs[0]] if len(vs) == 1 else
                  (vs[1] in adj[vs[0]], len(vs), colour[vs[0]]) for vs in classes]
        adj = [frozenset(node[u] for u in adj[vs[0]]) - {k} for k, vs in enumerate(classes)]


def _refine(adj, cells: list[set], cell_of: list[int], queue: set[int]) -> None:
    """1-WL: split the ordered partition ``cells`` from the splitters in
    ``queue`` until it is equitable.  Steps read only cell positions and counts,
    so an isomorphism that maps the cells in order still does so after it.  A
    cell whose vertices all get one count is not split."""
    while queue and len(cells) < len(adj):  # a discrete partition is equitable
        splitter = cells[queue.pop()]
        if len(splitter) == 1:  # each hit counts 1
            hits = dict.fromkeys(adj[next(iter(splitter))], 1)
        else:
            hits = {}
            for v in splitter:
                for u in adj[v]:
                    hits[u] = hits.get(u, 0) + 1
        touched: dict[int, list[int]] = {}
        for u in hits:
            if len(cells[cell_of[u]]) > 1:
                touched.setdefault(cell_of[u], []).append(u)
        for c, hit in sorted(touched.items()):
            covered = len(hit) == len(cells[c])
            if covered and len({hits[u] for u in hit}) == 1:
                continue
            groups: dict[int, list[int]] = {}
            for u in hit:
                groups.setdefault(hits[u], []).append(u)
            # the lowest count's piece stays in place when no vertex is missed
            counts = sorted(groups)[covered:]
            pieces = [c, *range(len(cells), len(cells) + len(counts))]
            for count in counts:
                cells[c].difference_update(groups[count])
                for v in groups[count]:
                    cell_of[v] = len(cells)
                cells.append(set(groups[count]))
            if c not in queue:  # any one piece's counts follow from the rest
                pieces.remove(max(pieces, key=lambda p: len(cells[p])))
            queue.update(pieces)


def _leaf(adj, cells: list[set], cell_of: list[int], v: int) -> list[int]:
    """The nodes in cell order once a copy of an equitable partition is discrete:
    v individualised (unless alone) and refined, then a vertex of the first
    largest cell, until every cell is a single node."""
    cells, cell_of = [set(cell) for cell in cells], list(cell_of)
    while True:
        if len(cells[cell_of[v]]) > 1:
            cells[cell_of[v]].discard(v)
            cell_of[v] = len(cells)
            cells.append({v})
            _refine(adj, cells, cell_of, {len(cells) - 1})
        largest = max(cells, key=len)
        if len(largest) == 1:
            return [next(iter(cell)) for cell in cells]
        v = next(iter(largest))


def _is_automorphism(adj: list[frozenset], colour: list, phi: dict) -> bool:
    """True iff phi permutes the nodes, keeps colours and maps edges to edges."""
    return (set(phi) == set(phi.values()) == set(range(len(adj)))
            and all(colour[w] == colour[v] and all(phi[u] in adj[w] for u in adj[v])
                    for v, w in phi.items()))


def orbits(g: Graph) -> list[list[int]]:
    """The orbits of a group of verified automorphisms, ascending and sorted.

    1-WL splits the twin quotient into cells that are unions of orbits.  Each
    cell's smallest node r is mapped to the others, its neighbors first, by
    individualisation-refinement (McKay and Piperno, 2014): the discrete leaves
    grown from r and from s, each individualising in the first largest cell
    (``_leaf``), are paired in cell order.  A cell is left at its first
    refusal; a union-find over the used maps gives their group's orbits."""
    node_of, adj, colour = _twin_quotient(g)
    q, ids, degree = len(adj), {}, list(map(len, adj))
    cell_of = [ids.setdefault((c, degree[v], sum(map(degree.__getitem__, adj[v]))),
                              len(ids)) for v, c in enumerate(colour)]
    cells: list[set] = [set() for _ in ids]
    for v, k in enumerate(cell_of):
        cells[k].add(v)
    _refine(adj, cells, cell_of, set(range(len(cells))))
    if len(cells) == q == g.n:  # discrete, and no twins: only the trivial group
        return [[v] for v in range(q)]
    root = list(range(q))
    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v
    for cell in [cell for cell in cells if len(cell) > 1]:
        r, leaf = min(cell), None
        for s in [u for u in adj[r] if u in cell] + sorted(cell):
            if find(s) != find(r):
                leaf = leaf or _leaf(adj, cells, cell_of, r)
                phi = dict(zip(leaf, _leaf(adj, cells, cell_of, s)))
                if not _is_automorphism(adj, colour, phi):
                    break
                for v, w in phi.items():
                    root[find(v)] = find(w)
    lifted: dict[int, list[int]] = {}
    for v, x in enumerate(node_of):
        lifted.setdefault(find(x), []).append(v)
    return sorted(lifted.values())


def _share(total, k: int):
    """An orbit's sum of k equal ints, or Counters of them, over k; exact."""
    if isinstance(total, Counter):
        return Counter({key: _share(count, k) for key, count in total.items()})
    if total % k:
        raise ArithmeticError(f"orbit sum {total} is not {k} equal values")
    return total // k


# A pass splits in two once it carries this many passes x edges.  Median ms
# of one sweep against two halves on random-min-degree-2 seed 1 (2 vCPU,
# CPython 3.11.7), by passes x edges: 11,700 (n = 60) 4.7 against 4.7-5.3,
# 18,525 (n = 75) 6.9 against 7.6-8.0, 22,160 (n = 80) 7.9 against 6.9,
# 366,600 (n = 300) 104 against 63.  A bare fork and wait took 1.1 ms.
SPLIT_WORK = 20_000


def _splits(passes: int, m: int) -> bool:
    """Whether a pass of ``passes`` BFS sources over ``m`` edges sweeps half
    of them in a forked child: with at least 2 CPUs this process may use, 2
    passes and ``SPLIT_WORK`` passes x edges.  Never where ``os.fork`` or
    ``os.sched_getaffinity`` is missing, or while another thread runs: a
    forked child would inherit the locks that thread holds.  One child at
    most, the most that was measured: a second would add its decode and lcm
    rescale to the merge and its memory to what the process's peak RSS does
    not show, and os.sched_getaffinity does not see a cgroup's CPU quota."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1 and len(os.sched_getaffinity(0)) > 1
            and passes > 1 and passes * m >= SPLIT_WORK)


def _fork(sweep):
    """A forked child that writes the record ``sweep()`` returns to a pipe
    with marshal, its lists of Counters as lists of dicts, and ends: its pid
    and the pipe's reading end.  None if no pipe or process can be had (a full
    descriptor or process table, no memory to fork)."""
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:  # the child: it never returns into the caller's stack
        status = 1
        try:
            row_sums, *counts, stress, totals, denom = sweep()
            with open(w, "wb") as out:
                out.write(marshal.dumps([row_sums, *([dict(c) for c in f] for f in counts),
                                         stress, totals, denom]))
            status = 0
        except DisconnectedGraphError:
            pass  # the parent's own half raises it as well
        except Exception:  # the parent sees only the status: say why here
            import traceback  # here, as only a failing child needs it
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(status)
    os.close(w)
    return pid, open(r, "rb")


def _sweep(g: Graph, nbrs, classes, orbit, ks, *, betweenness: bool = True) -> list:
    """One BFS and Brandes sweep from the smallest vertex of each orbit in
    ``ks``, as one record with one entry per orbit k in every field: the
    source's row sum and histogram at k, then the sums over the orbit's
    members of their pair histograms, pair sums, detours, stress and
    betweenness totals, over the common denominator that comes last.  An
    orbit that no source in ``ks`` reaches holds 0 or an empty Counter.
    Without ``betweenness`` the back sweep counts stress alone, and the
    totals are None over the denominator 1."""
    n, passes = g.n, len(classes)
    row_sums, stress = [0] * passes, [0] * passes
    totals = [0] * passes if betweenness else None
    hists, pair_hists, pair_sums, detours = ([Counter() for _ in classes] for _ in range(4))
    denom = 1
    for k in ks:
        s, size = classes[k][0], len(classes[k])
        order, dist, sigma = bfs(g, s)
        if len(order) < n:
            raise DisconnectedGraphError(
                f"vertex {s} cannot reach every vertex; distance sums undefined")
        row_sums[k] = sum(dist)
        hists[k] = Counter(dist)
        # s is a neighbor of each i in N(s): fold in its distances to N(i), size times
        for i in nbrs[s]:
            near_hist, near_detours, near_sum = pair_hists[orbit[i]], detours[orbit[i]], 0
            for t in nbrs[i]:
                d = dist[t]
                near_sum += d
                near_hist[d] += size
                if d == 2:
                    near_detours[sigma[t]] += size
            pair_sums[orbit[i]][near_sum] += size
        paths_below = [0] * n  # size * (1 + T(w))
        if not betweenness:  # the stress recurrence alone
            for v in order[:0:-1]:  # order[0] is s, which is skipped
                farther = dist[v] + 1
                tail = 0  # size * T(v)
                for w in nbrs[v]:
                    if dist[w] == farther:
                        tail += paths_below[w]
                paths_below[v] = size + tail
                stress[orbit[v]] += sigma[v] * tail
            continue
        lcm_s = math.lcm(*set(sigma))
        if denom % lcm_s:
            grown = math.lcm(denom, lcm_s)
            totals, denom = [t * (grown // denom) for t in totals], grown
        factor = denom // lcm_s * size  # all sources of the orbit at once
        steps = [0] * n  # L_s // sigma(w) + A(w)
        for v in order[:0:-1]:
            farther = dist[v] + 1
            scaled = tail = 0  # A(v) and size * T(v)
            for w in nbrs[v]:
                if dist[w] == farther:
                    scaled += steps[w]
                    tail += paths_below[w]
            sv = sigma[v]
            steps[v] = lcm_s // sv + scaled
            paths_below[v] = size + tail
            stress[orbit[v]] += sv * tail
            totals[orbit[v]] += sv * scaled * factor
    return [row_sums, hists, pair_hists, pair_sums, detours, stress, totals, denom]


def all_pairs(g: Graph, *, betweenness: bool = True) -> Analysis:
    """One BFS per orbit (``orbits``), folded into an ``Analysis``.

    Only the smallest vertex of each orbit O is a source, with weight |O|, so
    the summaries summed over each orbit P are true; as they are equal on P,
    each member gets that sum over |P| (row sums and histograms are copied).

    Raises ``PreconditionError`` for a graph with fewer than 2 vertices and
    ``DisconnectedGraphError`` for a disconnected one.

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
    rescaled when L_s does not divide L, and each orbit's value is a single
    ``Fraction(total, L)`` at the end.  With ``betweenness`` false none of
    this runs: the back sweep counts stress alone, and the Analysis's
    ``betweenness`` is None (``check_all`` reads no betweenness).

    Above ``SPLIT_WORK`` (``_splits``) a forked child sweeps the second half
    of the orbits while this process sweeps the first; with no pipe or
    process to be had, this process sweeps them all.  Each half is one record
    with an entry per orbit (``_sweep``), so they merge exactly, entry by
    entry: every field adds up, the betweenness totals once both are rescaled
    to the lcm of the two denominators.  The child is reaped, and killed first
    unless all went well; ``RuntimeError`` if it fails.
    """
    n = g.n
    if n < 2:
        raise PreconditionError(
            f"the all-pairs analysis needs at least 2 vertices (n={n})")
    nbrs, classes = [g.neighbors(v) for v in range(n)], orbits(g)
    orbit = [k for _, k in sorted((v, k) for k, vs in enumerate(classes) for v in vs)]
    passes = len(classes)
    half = passes // 2 if _splits(passes, g.m) else passes
    child = (_fork(lambda: _sweep(g, nbrs, classes, orbit, range(half, passes),
                                  betweenness=betweenness))
             if half < passes else None)
    try:
        *record, totals, denom = _sweep(g, nbrs, classes, orbit,
                                        range(half if child else passes),
                                        betweenness=betweenness)
        if child:
            pid, pipe = child
            with pipe:
                data = pipe.read()
            status, child = os.waitpid(pid, 0)[1], None
            if status:
                raise RuntimeError("the forked half of the all-pairs pass failed "
                                   f"(wait status {status})")
            *more, more_totals, more_denom = marshal.loads(data)
            if betweenness:
                grown = math.lcm(denom, more_denom)
                totals = [a * (grown // denom) + b * (grown // more_denom)
                          for a, b in zip(totals, more_totals)]
                denom = grown
            for acc, added in zip(record, more):
                if isinstance(acc[0], Counter):  # cheaper than +=, which scans for counts <= 0
                    for counts, x in zip(acc, added):
                        counts.update(x)
                else:
                    for k, x in enumerate(added):
                        acc[k] += x
    finally:
        if child:  # failed or interrupted before the child was reaped
            child[1].close()
            os.kill(child[0], 9)  # SIGKILL
            os.waitpid(child[0], 0)
    summed = record[2:] + ([totals] if betweenness else [])  # sums over orbit members
    for k, members in enumerate(classes):
        if (size := len(members)) > 1:
            for f in summed:
                f[k] = _share(f[k], size)
    *fields, stress = ([f[k] for k in orbit] for f in record)
    if betweenness:
        totals = [Fraction(t, denom) for t in totals]
        totals = [totals[k] for k in orbit]
    return Analysis(g, *fields, totals, stress, classes)


def diameter(an: Analysis) -> int:
    """Largest eccentricity, read at one vertex per orbit and once per
    Analysis."""
    return an.memo("diameter", lambda: max(max(an.hists[vs[0]]) for vs in an.orbits))


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


def weighted_mean(terms: Iterable[tuple[int, int, int]]) -> Fraction:
    """The exact mean over triples (p, q, w) of the ratios p/q, each taken
    w times (an orbit's value once per member), through one ``exact_sum``;
    0 for none."""
    terms = list(terms)
    return exact_sum((p * w, q) for p, q, w in terms) / max(sum(t[2] for t in terms), 1)


def efficiency_sum(hist: Counter) -> Fraction:
    """Sum of count/d over a histogram of hop distances d > 0."""
    return exact_sum((count, d) for d, count in hist.items() if d > 0)


def avg_path_length(an: Analysis) -> Fraction:
    """Mean hop distance over ordered pairs s != t."""
    return Fraction(sum(an.row_sums), an.n * (an.n - 1))


def global_efficiency(an: Analysis) -> Fraction:
    """Mean inverse hop distance over ordered pairs s != t, from one
    histogram per orbit scaled by the orbit's size."""
    hist: Counter = Counter()
    for vs in an.orbits:
        for d, count in an.hists[vs[0]].items():
            hist[d] += count * len(vs)
    return efficiency_sum(hist) / (an.n * (an.n - 1))


def density(g: Graph) -> Fraction:
    """Edge count over the maximum possible edge count."""
    if g.n < 2:
        raise PreconditionError("density needs at least 2 vertices")
    return Fraction(2 * g.m, g.n * (g.n - 1))
