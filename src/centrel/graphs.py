"""Simple undirected graphs: representation, validation, I/O, and generators.

Vertices are dense 0-based integers.  Input files may use arbitrary labels;
these are mapped to indices and the label table is kept on the graph.  All
graphs are simple (no self-loops, no multi-edges) and immutable after
construction.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Sequence

# The exact all-pairs analysis runs one BFS and one Brandes sweep per orbit,
# half of them in one forked child above paths.SPLIT_WORK, so n*m time and no
# n*n data on a graph without symmetry.
# compute took 2.8 s on random-min-degree-2(2000) with 2 vCPUs (4.8 s on one),
# and a graph of the same mean degree at the cap would take about a hundred
# times as long.  The cap is still a guess: no run has timed the analysis near
# this many vertices.
MAX_VERTICES = 20_000


class GraphFormatError(ValueError):
    """Malformed graph input (bad edge list, bad JSON, bad labels)."""


class FamilyParameterError(ValueError):
    """Generator parameters violate the family's requirements."""


class PreconditionError(ValueError):
    """A well-formed graph that a measure or check cannot take: too small,
    too large for a size cap, disconnected, or outside a checker's stated
    hypotheses."""


def check_size_cap(n: int) -> None:
    """Refuse a vertex count past ``MAX_VERTICES``, the cap on the
    exact all-pairs analysis, before anything of that size is built."""
    if n > MAX_VERTICES:
        raise PreconditionError(f"graph too large for the exact all-pairs "
                                f"analysis (n={n} > {MAX_VERTICES})")


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1, built from
    integer index pairs.

    Each invariant is checked once, in this order: n >= 1, n within the size
    cap (before anything is allocated), each edge's range and self-loop, and
    the size of the label table.  Duplicate edges (in either orientation) are
    collapsed, and ``duplicates_collapsed`` records whether any were seen.
    """

    __slots__ = ("_adj", "_neighbors", "_m", "labels", "duplicates_collapsed")

    def __init__(self, edges: Iterable[tuple[int, int]], n: int,
                 labels: Sequence[str] | None = None):
        if n < 1:
            raise GraphFormatError("vertex count must be at least 1")
        check_size_cap(n)
        adj: list[set[int]] = [set() for _ in range(n)]
        duplicates = False
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise GraphFormatError(f"edge ({i}, {j}) out of range for n={n}")
            if i == j:
                raise GraphFormatError(f"self-loop ({i}, {i}) not allowed in a simple graph")
            if j in adj[i]:
                duplicates = True
                continue
            adj[i].add(j)
            adj[j].add(i)
        if labels is not None and len(labels) != n:
            raise GraphFormatError("label table size does not match vertex count")
        self._adj = tuple(frozenset(nbrs) for nbrs in adj)
        self._neighbors = tuple(tuple(sorted(nbrs)) for nbrs in adj)
        self._m = sum(len(nbrs) for nbrs in adj) // 2
        self.labels = tuple(labels) if labels is not None else None
        self.duplicates_collapsed = duplicates

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return self._m

    def degree(self, i: int) -> int:
        return len(self._adj[i])

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self._adj]

    def min_degree(self) -> int:
        return min(self.degrees())

    def neighbors(self, i: int) -> tuple[int, ...]:
        """Neighbors of i in increasing vertex order."""
        return self._neighbors[i]

    def neighbor_set(self, i: int) -> frozenset[int]:
        """Neighbors of i as a set, for membership and intersection."""
        return self._adj[i]

    def adjacent(self, i: int, j: int) -> bool:
        return j in self._adj[i]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (i, j) with i < j, sorted."""
        return [(i, j) for i in range(self.n) for j in self._neighbors[i] if i < j]

    def label_of(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def bfs(g: Graph, source: int) -> tuple[list[int], list[int], list[int]]:
    """Counting BFS from ``source``: the reached vertices in visit order
    (so by nondecreasing distance), the hop distances (-1 when unreachable)
    and the shortest-path counts (``sigma[source] == 1``)."""
    dist = [-1] * g.n
    sigma = [0] * g.n
    dist[source] = 0
    sigma[source] = 1
    order, nbrs = [source], g._neighbors
    for v in order:  # the list grows behind the loop: it is the queue
        below = dist[v] + 1
        sv = sigma[v]
        for w in nbrs[v]:
            dw = dist[w]
            if dw < 0:
                dist[w] = below
                sigma[w] = sv
                order.append(w)
            elif dw == below:
                sigma[w] += sv
    return order, dist, sigma


def is_connected(g: Graph) -> bool:
    """True iff a BFS from vertex 0 reaches all vertices."""
    order, _, _ = bfs(g, 0)
    return len(order) == g.n


# ---------------------------------------------------------------------------
# Parametric families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    """A named generator family plus its parameters, each of type ``int``
    (a ``bool``, ``float`` or ``str`` is refused, not converted).

    ``FAMILIES`` gives the number of parameters each family takes and the
    vertex count they give.  Only random-min-degree-2 reads ``seed``, and
    only its ``name`` shows it; the other families build the same graph for
    any seed, and the command line refuses ``--seed`` with them.  The library
    accepts it while perfbench builds every family with ``seed=0``.
    """

    family: str
    params: tuple[int, ...]
    seed: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise FamilyParameterError(
                f"unknown family {self.family!r}; known: {', '.join(FAMILIES)}")
        object.__setattr__(self, "params", tuple(self.params))
        if any(type(p) is not int or p <= 0 for p in self.params):
            raise FamilyParameterError("family parameters must be positive integers")
        arity_ok = FAMILIES[self.family][0]
        if not arity_ok(len(self.params)):
            raise FamilyParameterError(
                f"wrong number of parameters for {self.family}: {self.params}")

    def name(self) -> str:
        s = f"{self.family}({','.join(str(p) for p in self.params)})"
        if self.family == "random-min-degree-2" and self.seed is not None:
            s += f"@seed={self.seed}"
        return s

    def order(self) -> int | float:
        """The graph's vertex count, from the parameters alone; ``math.inf``
        from 2^64 on, so that no parameter builds a huge integer."""
        n = FAMILIES[self.family][1](self.params)
        return n if n < 1 << 64 else math.inf


def _complete(n: int) -> Graph:
    # K_2 (n = 2) is the one family graph with minimum degree 1
    if n < 2:
        raise FamilyParameterError("complete(n) needs n >= 2")
    return Graph(combinations(range(n), 2), n)


def _cycle(n: int) -> Graph:
    if n < 3:
        raise FamilyParameterError("cycle(n) needs n >= 3")
    return Graph([(i, (i + 1) % n) for i in range(n)], n)


def _circulant(n: int, offsets: tuple[int, ...]) -> Graph:
    if n < 3:
        raise FamilyParameterError("circulant(n, ...) needs n >= 3")
    if any(not (1 <= s <= n // 2) for s in offsets):
        raise FamilyParameterError("circulant offsets must lie in [1, n/2]")
    # Graph collapses the edges that offset n/2 (or a repeated offset) names twice
    return Graph([(i, (i + s) % n) for s in offsets for i in range(n)], n)


def _hypercube(d: int) -> Graph:
    if d < 2:
        raise FamilyParameterError("hypercube(d) needs d >= 2 for minimum degree 2")
    n = 1 << d
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b)]
    return Graph(edges, n)


def _windmill(eta: int, k: int) -> Graph:
    # eta vertex-disjoint copies of K_{k-1}, all joined to hub vertex 0.
    if k < 3:
        raise FamilyParameterError("windmill(eta, k) needs k >= 3")
    n = 1 + eta * (k - 1)
    edges = []
    for copy in range(eta):
        block = range(1 + copy * (k - 1), 1 + (copy + 1) * (k - 1))
        edges.extend((0, v) for v in block)
        edges.extend(combinations(block, 2))
    return Graph(edges, n)


def _glued_4_cycles(n: int) -> Graph:
    # K_n plus, per original vertex v, a private 4-cycle v-a-b-c-v on three
    # fresh vertices.
    total = n + 3 * n
    edges = list(combinations(range(n), 2))
    for v in range(n):
        a, b, c = n + 3 * v, n + 3 * v + 1, n + 3 * v + 2
        edges.extend([(v, a), (a, b), (b, c), (c, v)])
    return Graph(edges, total)


_MAX_TRIES = 1000  # random-min-degree-2 draws before it gives up


def _random_min_degree_2(n: int, seed: int | None) -> Graph:
    # G(n, p) resampled until connected with min degree >= 2.
    if n < 3:
        raise FamilyParameterError("random-min-degree-2(n) needs n >= 3")
    draw = random.Random(seed).random
    p = min(1.0, (math.log(n) + 2.0) / n)
    for _ in range(_MAX_TRIES):
        edges = [(i, j) for i, j in combinations(range(n), 2) if draw() < p]
        degree = Counter(chain.from_iterable(edges))  # a Graph only for a passing try
        if len(degree) == n and min(degree.values()) >= 2:
            g = Graph(edges, n)
            if is_connected(g):
                return g
    raise FamilyParameterError(
        f"could not sample a connected min-degree-2 graph on {n} vertices "
        f"in {_MAX_TRIES} tries")


# name -> (accepts this many parameters, vertex count, builds from the
# parameters and seed), in the order that error messages list the families
FAMILIES = {
    "complete": (lambda k: k == 1, lambda p: p[0], lambda p, seed: _complete(p[0])),
    "cycle": (lambda k: k == 1, lambda p: p[0], lambda p, seed: _cycle(p[0])),
    "circulant": (lambda k: k >= 2, lambda p: p[0],
                  lambda p, seed: _circulant(p[0], p[1:])),
    "hypercube": (lambda k: k == 1, lambda p: 1 << min(p[0], 64),
                  lambda p, seed: _hypercube(p[0])),
    "windmill": (lambda k: k == 2, lambda p: 1 + p[0] * (p[1] - 1),
                 lambda p, seed: _windmill(p[0], p[1])),
    "friendship": (lambda k: k == 1, lambda p: 1 + 2 * p[0],
                   lambda p, seed: _windmill(p[0], 3)),
    "complete-with-glued-4-cycles": (lambda k: k == 1, lambda p: 4 * p[0],
                                     lambda p, seed: _glued_4_cycles(p[0])),
    "random-min-degree-2": (lambda k: k == 1, lambda p: p[0],
                            lambda p, seed: _random_min_degree_2(p[0], seed)),
}


def generate(spec: FamilySpec) -> Graph:
    """Generate the named family graph.

    Every family produced here is connected, and has minimum degree >= 2
    except complete(2) = K_2; the relation check, not the generator, refuses
    a degree-1 vertex.  A size past the cap is refused before the family's
    builder runs.
    """
    check_size_cap(spec.order())
    build = FAMILIES[spec.family][2]
    g = build(spec.params, spec.seed)
    if not is_connected(g):
        raise FamilyParameterError(f"{spec.name()} is disconnected")
    return g


def parse_family(family: str, params_text: str, seed: int | None = None) -> FamilySpec:
    """Parse a comma-separated integer parameter list into a FamilySpec."""
    try:
        params = tuple(int(tok) for tok in params_text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise FamilyParameterError(f"bad parameter list {params_text!r}: {exc}") from exc
    return FamilySpec(family, params, seed=seed)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def read_edge_list_text(text: str) -> Graph:
    """Parse the edge-list text format.

    One edge per line as two whitespace-separated labels; ``#`` starts a
    comment; an optional first data line ``n=<count>`` fixes the vertex count
    (labels must then be integers in [0, n), which preserves isolated
    vertices).  Without the header, labels are arbitrary strings mapped to
    indices in order of first appearance.
    """
    n_declared: int | None = None
    edges: list[tuple[int, int]] = []
    index: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n_declared is None and not edges and line.startswith("n="):
            try:
                n_declared = int(line[2:])
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: bad vertex count {line!r}") from exc
            if n_declared < 1:
                raise GraphFormatError(f"line {lineno}: vertex count must be >= 1")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(
                f"line {lineno}: expected two labels, got {len(parts)}")
        a, b = parts
        if n_declared is None:
            edges.append((index.setdefault(a, len(index)), index.setdefault(b, len(index))))
            continue
        try:
            edges.append((int(a), int(b)))
        except ValueError as exc:
            raise GraphFormatError(
                "labels must be integers in [0, n) when n= is declared") from exc

    if n_declared is not None:
        return Graph(edges, n_declared)
    if not index:
        raise GraphFormatError("empty edge list and no n= header")
    return Graph(edges, len(index), labels=list(index))


def to_edge_list_text(g: Graph) -> str:
    """Serialize to the edge-list text format (with n= header)."""
    lines = [f"n={g.n}"]
    lines.extend(f"{i} {j}" for i, j in g.edges())
    return "\n".join(lines) + "\n"


def _is_json_int(x) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def read_json_graph(text: str) -> Graph:
    """Parse the JSON graph format: {"n": int, "edges": [[i, j], ...]}."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integer literals past the
        # interpreter's digit limit; RecursionError, nesting too deep to parse
        raise GraphFormatError(f"bad JSON: {exc}") from exc
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise GraphFormatError('JSON graph needs "n" and "edges" keys')
    n = obj["n"]
    if not _is_json_int(n):
        raise GraphFormatError('"n" must be an integer')
    if not isinstance(obj["edges"], list):
        raise GraphFormatError('"edges" must be a list')
    edges = []
    for e in obj["edges"]:
        if not (isinstance(e, list) and len(e) == 2
                and all(_is_json_int(x) for x in e)):
            raise GraphFormatError(f"bad edge entry {e!r}")
        edges.append((e[0], e[1]))
    return Graph(edges, n)


def to_json_graph(g: Graph) -> str:
    return json.dumps({"n": g.n, "edges": [[i, j] for i, j in g.edges()]})


def load_graph(path: str) -> Graph:
    """Read a graph file, picking the format from the extension.

    ``.json`` uses the JSON format; anything else is edge-list text.  A
    leading UTF-8 byte-order mark is dropped.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path} is not UTF-8 text: {exc}") from exc
    if path.endswith(".json"):
        return read_json_graph(text)
    return read_edge_list_text(text)
