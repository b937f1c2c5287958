"""Independent ground truth, from the definitions.

Everything here is recomputed from first principles: its own BFS distances,
path counts from their literal recurrence, and definition-literal formulas;
sigma(s, i) * sigma(i, t) shortest s-t paths pass through i when
dist(s, i) + dist(i, t) = dist(s, t) (Brandes 2001, Lemma 3).  No computation
is shared with the fast modules (only the report containers are reused), so
field-by-field agreement is a meaningful check.  The library lists no paths:
the tests check these counts against every shortest path of small graphs,
enumerated one by one in the test suite.
"""

from __future__ import annotations

from fractions import Fraction

from .centralities import CentralityReport
from .graphs import Graph, PreconditionError
from .neighborhood import NeighborhoodProfile

# Time grows as n^3: both entry points took 9.2 s on circulant(300,1,2,3,5,8,13)
# and 6.5 s on hypercube(8) (2 vCPUs, CPython 3.11, 18 MB peak RSS).
ORACLE_MAX_VERTICES = 300


def _bfs_levels(g: Graph, source: int) -> list[int]:
    dist = [-1] * g.n
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for v in frontier:
            for w in g.neighbors(v):
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def _path_counts(g: Graph, dist: list[int]) -> list[int]:
    """Shortest-path counts from the source of the distance row ``dist``,
    by the literal recurrence: sigma(t) is the sum of sigma(u) over the
    neighbors u of t one level closer to the source."""
    sigma = [0] * g.n
    for t in sorted(range(g.n), key=dist.__getitem__):
        sigma[t] = 1 if dist[t] == 0 else sum(
            sigma[u] for u in g.neighbors(t) if dist[u] == dist[t] - 1)
    return sigma


def check_oracle_limit(n: int) -> None:
    """Refuse a vertex count past ``ORACLE_MAX_VERTICES`` before any BFS."""
    if n > ORACLE_MAX_VERTICES:
        raise PreconditionError(f"graph too large for the oracle "
                                f"(n={n} > {ORACLE_MAX_VERTICES})")


def _rows(g: Graph) -> tuple[list[list[int]], list[list[int]]]:
    """The oracle's own distance and path-count rows from every source."""
    check_oracle_limit(g.n)
    dist = [_bfs_levels(g, s) for s in range(g.n)]
    if any(d < 0 for row in dist for d in row):
        raise PreconditionError("the oracle needs a connected graph")
    return dist, [_path_counts(g, row) for row in dist]


def _through(dist: list[list[int]], sigma: list[list[int]], i: int, ends):
    """(sigma(s, i) * sigma(i, t), sigma(s, t)) over the ordered pairs s, t of
    ``ends`` other than i with dist(s, i) + dist(i, t) = dist(s, t), so s != t."""
    for s in ends:
        if s == i:
            continue
        for t in ends:
            if t != i and dist[s][i] + dist[i][t] == dist[s][t]:
                yield sigma[s][i] * sigma[i][t], sigma[s][t]


def _triple_products(g: Graph, i: int) -> int:
    """Sum over ordered (j, k) of a_ij * a_jk * a_ki."""
    total = 0
    for j in g.neighbors(i):
        for k in g.neighbors(j):
            if k != i and g.adjacent(k, i):
                total += 1
    return total


def oracle_measures(g: Graph) -> CentralityReport:
    """CentralityReport of ``g`` recomputed literally from the oracle's rows."""
    dist, sigma = _rows(g)
    n = g.n
    degrees = [g.degree(i) for i in range(n)]

    products = [_triple_products(g, i) for i in range(n)]
    clustering = [Fraction(p, d * (d - 1)) if d > 1 else Fraction(0)
                  for p, d in zip(products, degrees)]

    bc = []
    st = []
    for i in range(n):
        acc_bc = Fraction(0)
        acc_st = 0
        for through, total in _through(dist, sigma, i, range(n)):
            acc_bc += Fraction(through, total)
            acc_st += through
        bc.append(acc_bc)
        st.append(acc_st)

    diam = max(max(row) for row in dist)
    total_dist = sum(sum(row) for row in dist)
    apl = Fraction(total_dist, n * (n - 1))
    eglob = sum((Fraction(1, dist[s][t])
                 for s in range(n) for t in range(n) if t != s),
                Fraction(0)) / (n * (n - 1))

    clo = [Fraction(n - 1, sum(dist[v])) for v in range(n)]
    rad = [Fraction(sum(diam + 1 - dist[v][t] for t in range(n) if t != v), n - 1)
           for v in range(n)]

    eloc = Fraction(0)
    for v in range(n):
        d = degrees[v]
        if d <= 1:
            continue
        nbrs = g.neighbors(v)
        term = sum((Fraction(1, dist[s][t])
                    for s in nbrs for t in nbrs if s != t), Fraction(0))
        eloc += term / (d * (d - 1))
    eloc /= n

    degree_pairs = sum(d * (d - 1) for d in degrees)
    glob_c = Fraction(sum(products), degree_pairs) if degree_pairs else None

    return CentralityReport(
        degree=degrees,
        local_clustering=clustering,
        betweenness=bc,
        stress=st,
        closeness=clo,
        radiality=rad,
        density=Fraction(2 * g.m, n * (n - 1)),
        diameter=diam,
        avg_path_length=apl,
        global_efficiency=eglob,
        avg_clustering=sum(clustering, Fraction(0)) / n,
        global_clustering=glob_c,
        local_efficiency=eloc,
    )


def oracle_neighborhood_profiles(g: Graph) -> list[NeighborhoodProfile]:
    """Neighborhood-restricted values of ``g`` recomputed from the oracle's
    rows."""
    dist, sigma = _rows(g)
    out = []
    for i in range(g.n):
        nbrs = g.neighbors(i)
        d = len(nbrs)
        complete = all(g.adjacent(a, b) for ai, a in enumerate(nbrs)
                       for b in nbrs[ai + 1:])
        if d <= 1:
            out.append(NeighborhoodProfile(Fraction(0), Fraction(0), 0,
                                           Fraction(0), Fraction(0), complete))
            continue
        pair_dists = [dist[a][b] for a in nbrs for b in nbrs if a != b]
        avg_path = Fraction(sum(pair_dists), d * (d - 1))
        diam_n = max(pair_dists)

        bc_n = sum((Fraction(through, total)
                    for through, total in _through(dist, sigma, i, nbrs)), Fraction(0))

        rad_n = Fraction(0)
        clo_n = Fraction(0)
        for v in nbrs:
            others = [t for t in nbrs if t != v]
            rad_n += Fraction(sum(diam_n + 1 - dist[v][t] for t in others), d - 1)
            clo_n += Fraction(d - 1, sum(dist[v][t] for t in others))
        rad_n /= d
        clo_n /= d

        out.append(NeighborhoodProfile(avg_path, bc_n, diam_n, rad_n, clo_n, complete))
    return out
