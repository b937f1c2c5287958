"""Spans around centrel's public functions, recorded from outside the program.

``Tracer.install`` wraps each module's public once-per-graph and once-per-
vertex functions listed in ``TRACED``, in every centrel namespace that binds
them (module attributes and module-level tuples such as the checker list).
Per-pair helpers (``sigma_through``, ``radiality_in_neighborhood``,
``closeness_in_neighborhood``, ``PathEnumeration.count_through``) and the
``Graph`` accessors stay unwrapped: their time counts in their caller.
Functions that a later version of the program no longer has are skipped, and
their metrics read 0.

Each span records name, start, end, parent and op id, in flat arrays kept in
memory and written out once at the end.  A span's self time is its duration
minus its children's.  Each traced function belongs to a metric group; a
function marked ``nest`` takes its parent's group when the parent is in the
same module, so for example everything ``profiles`` calls in ``neighborhood``
counts as ``neighborhood.profiles``.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

# module -> {function: (metric group, nest)}
TRACED = {
    "graphs": {
        "load_graph": ("graphs.load_graph", False),
        "generate": ("graphs.generate", False),
        **{name: ("graphs.other", True) for name in (
            "read_edge_list_text", "read_json_graph", "from_edge_list",
            "is_connected", "validate_no_pendant", "parse_family",
            "to_edge_list_text", "to_json_graph")},
    },
    "paths": {
        "all_pairs": ("paths.all_pairs", False),
        "diameter": ("paths.diameter", False),
        "global_efficiency": ("paths.global_efficiency", False),
        "avg_path_length": ("paths.other", False),
        "density": ("paths.other", False),
    },
    "centralities": {
        "betweenness_and_stress": ("centralities.brandes", False),
        "betweenness": ("centralities.brandes", False),
        "stress": ("centralities.brandes", False),
        "radiality": ("centralities.radiality", False),
        "local_clustering": ("centralities.clustering", False),
        "average_clustering": ("centralities.clustering", False),
        "triangle_count": ("centralities.clustering", False),
        "global_clustering": ("centralities.clustering", False),
        "local_efficiency": ("centralities.local_efficiency", False),
        "neighborhood_efficiency": ("centralities.local_efficiency", False),
        "closeness": ("centralities.other", False),
        "compute_report": ("centralities.other", False),
        "betweenness_definitional": ("centralities.other", False),
        "stress_definitional": ("centralities.other", False),
    },
    "neighborhood": {
        "profiles": ("neighborhood.profiles", True),
        "profile": ("neighborhood.profiles", True),
        "rad_loc": ("neighborhood.rad_loc", True),
        "neighborhood_radiality": ("neighborhood.rad_loc", True),
        "bc_loc": ("neighborhood.bc_loc", True),
        "neighborhood_betweenness": ("neighborhood.bc_loc", True),
        "clo_loc": ("neighborhood.clo_loc", True),
        "neighborhood_closeness": ("neighborhood.clo_loc", True),
        "neighborhood_avg_path": ("neighborhood.avg_path", True),
        "neighborhood_diameter": ("neighborhood.other", True),
        "is_complete_neighborhood": ("neighborhood.other", True),
    },
    "relations": {
        **{f"check_{name}": (f"relations.{name}", False) for name in (
            "lemma1", "thm1", "thm2", "thm3", "cor_sandwich", "lemma2",
            "thm4", "lemma3", "thm5", "thm6")},
        "check_all": ("relations.check_all", False),
        "sweep_windmill": ("relations.sweep_windmill", False),
        "neighborhoods_unique_two_paths": ("relations.other", True),
        "neighborhoods_are_clique_unions": ("relations.other", True),
    },
    "oracle": {
        "enumerate_shortest_paths": ("oracle.enumerate", False),
        "oracle_measures": ("oracle.measures", False),
        "oracle_neighborhood_profiles": ("oracle.profiles", False),
    },
    # the op itself: cli.main's self time is parsing argv plus rendering
    "cli": {"main": ("cli.render", False)},
}

GROUPS = sorted({group for funcs in TRACED.values() for group, _ in funcs.values()})

# Counts taken at the same boundaries: function -> counter
CALL_COUNTERS = {
    "betweenness_and_stress": "centralities.brandes_calls",
    "diameter": "paths.diameter_calls",
    "average_clustering": "centralities.average_clustering_calls",
    "all_pairs": "paths.all_pairs_calls",
}
COUNTERS = sorted([*CALL_COUNTERS.values(), "paths.bfs_sources",
                   "paths.dense_bytes", "oracle.paths_enumerated"])


class Tracer:
    """Records spans and counts while installed; restores everything on
    ``uninstall``."""

    def __init__(self):
        self.names: list[str] = []      # span name id -> "module.function"
        self.groups: list[str] = []     # span name id -> metric group
        self.nest: list[bool] = []
        self.module_of: list[str] = []
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.op_id = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, module: str, name: str, group: str, nest: bool):
        nid = len(self.names)
        self.names.append(f"{module}.{name}")
        self.groups.append(group)
        self.nest.append(nest)
        self.module_of.append(module)
        counter = CALL_COUNTERS.get(name)
        counts = self.counts
        stack = self._stack
        name_id, start, end, parent, op = (self.name_id, self.start, self.end,
                                           self.parent, self.op)

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if counter is not None:
                counts[counter] += 1
            if name == "all_pairs":
                n = args[0].n
                counts["paths.bfs_sources"] += n
                counts["paths.dense_bytes"] += 2 * n * n * 8  # dist + sigma
            elif name == "enumerate_shortest_paths":
                counts["oracle.paths_enumerated"] += sum(
                    len(p) for p in result.paths.values())
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Wrap every function in ``TRACED`` wherever centrel binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrapped: dict[int, object] = {}
        for module, funcs in TRACED.items():
            mod = sys.modules[f"centrel.{module}"]
            for name, (group, nest) in funcs.items():
                fn = getattr(mod, name, None)
                if callable(fn) and id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(fn, module, name, group, nest)
        for modname, mod in list(sys.modules.items()):
            if modname != "centrel" and not modname.startswith("centrel."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    new = wrapped[id(value)]
                elif isinstance(value, tuple) and any(id(v) in wrapped for v in value):
                    new = tuple(wrapped.get(id(v), v) for v in value)
                else:
                    continue
                self._patched.append((mod, attr, value))
                setattr(mod, attr, new)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def reset_counts(self) -> None:
        self.counts.update(dict.fromkeys(COUNTERS, 0))

    # -- analysis ----------------------------------------------------------

    def span_count(self, ops: set[int]) -> int:
        return sum(1 for o in self.op if o in ops)

    def self_times(self, ops: set[int]) -> dict[str, float]:
        """Seconds of self time by metric group, over spans of the given ops."""
        count = len(self.start)
        child = [0.0] * count
        group_of = [""] * count
        for i in range(count):  # parents precede their children
            nid = self.name_id[i]
            p = self.parent[i]
            if (p >= 0 and self.nest[nid]
                    and self.module_of[self.name_id[p]] == self.module_of[nid]):
                group_of[i] = group_of[p]
            else:
                group_of[i] = self.groups[nid]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals = dict.fromkeys(GROUPS, 0.0)
        for i in range(count):
            if self.op[i] in ops:
                totals[group_of[i]] += self.end[i] - self.start[i] - child[i]
        return totals

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent index, op id."""
        names = [json.dumps(name) for name in self.names]
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"[{names[nid]},{s!r},{e!r},{p},{o}]\n" for nid, s, e, p, o
                          in zip(self.name_id, self.start, self.end, self.parent,
                                 self.op))
