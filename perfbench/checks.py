"""Output checks run after each op's timing, and the pinned stdout digests.

The checks use only the CLI output and the op's own inputs, never centrel's
code, so a wrong result cannot pass by agreeing with itself:

* compute: the report satisfies exact identities on its own ``p/q`` fields,
  sum_v BC(v) = n(n-1)(L-1), mean radiality = diam + 1 - L and
  local_efficiency = (1 + C_ws)/2;
* check: exit 0 and every relation holds;
* oracle-diff: exit 0 and the fast and oracle reports agree;
* sweep: every row matches the closed forms of windmill(eta, k) clustering.

For the pinned seeds, each op's stdout must also hash to its SHA-256 in
``digests.json``; that enforces byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


class CheckFailure(Exception):
    """An op's output is wrong."""


def _exact(value) -> Fraction:
    return Fraction(value["exact"])


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def _check_compute(op, payload: dict) -> bool:
    """Returns whether betweenness came out exact (the "exact" key is there)."""
    graph = payload["graph"]
    n = graph["n"]
    _require((n, graph["m"]) == (op.n, op.m), f"n, m = {n}, {graph['m']}")
    vertices = payload["vertices"]
    _require(len(vertices) == n, "one entry per vertex")
    level = payload["graph_level"]
    L = _exact(level["avg_path_length"])
    diam = level["diameter"]
    bc = [v["betweenness"] for v in vertices]
    exact = all(isinstance(b, dict) for b in bc)
    if exact:
        _require(sum(map(_exact, bc)) == n * (n - 1) * (L - 1),
                 "sum of betweenness != n(n-1)(L-1)")
    else:
        values = [b["value"] if isinstance(b, dict) else b for b in bc]
        _require(math.isclose(sum(values), float(n * (n - 1) * (L - 1)),
                              rel_tol=1e-9),
                 "sum of float betweenness != n(n-1)(L-1)")
    mean_rad = sum(_exact(v["radiality"]) for v in vertices) / n
    _require(mean_rad == diam + 1 - L, "mean radiality != diam + 1 - L")
    _require(_exact(level["local_efficiency"])
             == (1 + _exact(level["avg_clustering"])) / 2,
             "local efficiency != (1 + C_ws)/2")
    return exact


def _check_relations(op, payload: dict) -> None:
    graph = payload["graph"]
    _require((graph["n"], graph["m"]) == (op.n, op.m),
             f"n, m = {graph['n']}, {graph['m']}")
    failing = [r["relation"] for r in payload["relations"] if not r["holds"]]
    _require(payload["all_hold"] is True and not failing,
             f"relations violated: {failing}")


def windmill_clustering(eta: int, k: int) -> tuple[Fraction, Fraction]:
    """Closed-form (average, global) clustering of windmill(eta, k)."""
    leaves = eta * (k - 1)
    hub = Fraction(k - 2, leaves - 1)  # eta C(k-1,2) links over C(leaves,2)
    avg = (leaves + hub) / (leaves + 1)  # every leaf's neighborhood is a clique
    triangles = eta * (k * (k - 1) * (k - 2) // 6)
    pairs = leaves * (leaves - 1) + leaves * (k - 1) * (k - 2)
    return avg, Fraction(6 * triangles, pairs)


def _check_sweep(op, payload: dict) -> None:
    k, eta_max = op.sweep
    _require(payload["k"] == k, "k")
    rows = payload["rows"]
    _require([r["eta"] for r in rows] == list(range(2, eta_max + 1)), "eta rows")
    for r in rows:
        avg, glob = windmill_clustering(r["eta"], k)
        _require((_exact(r["avg_clustering"]), _exact(r["global_clustering"]),
                  _exact(r["difference"])) == (avg, glob, avg - glob),
                 f"eta={r['eta']}: clustering differs from the closed form")
    _require(payload["avg_strictly_increasing"] is True
             and payload["glob_strictly_decreasing"] is True, "trend flags")


def check_output(op, rc, stdout: str) -> bool | None:
    """Raise CheckFailure unless the op's output is right.

    Returns whether betweenness was exact for compute ops, else None.
    """
    _require(rc == 0, f"exit code {rc}")
    if op.command == "oracle-diff":
        _require("fast and oracle reports identical" in stdout,
                 "oracle-diff reported mismatches")
        return None
    try:
        payload = json.loads(stdout)
        if op.command == "compute":
            return _check_compute(op, payload)
        if op.command == "check":
            _check_relations(op, payload)
        else:
            _check_sweep(op, payload)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise CheckFailure(f"malformed output: {type(exc).__name__}: {exc}") from exc
    return None


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def load_pins(workload: str, size: str, seed: int) -> dict[str, str] | None:
    """Pinned digests by op key, or None when this seed is not pinned."""
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        pins = json.load(fh)
    return pins.get(workload, {}).get(size, {}).get(str(seed))
