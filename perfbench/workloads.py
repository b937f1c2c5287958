"""Seeded inputs for the four benchmark workloads.

``build`` is the set-up step: it draws every input from the workload seed,
generates the graphs with centrel's own generators, writes them as edge-list
files and returns the ops of one cycle.  An op is the argv a user would type;
the program only ever sees the files.  Every cycle of a run repeats the same
ops in the same order, so per-op counts do not depend on how many cycles a
run fits.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from pathlib import Path

from centrel import graphs

WORKLOADS = ("compute-mid", "check-mid", "small-corpus", "windmill-sweep")
SIZES = ("full", "smoke")

# compute-mid and check-mid share this matrix (and its random member).
MID_MATRIX = {
    "full": (("random-min-degree-2", (300,)), ("hypercube", (8,)),
             ("circulant", (300, 1, 2, 3, 5, 8, 13)), ("windmill", (60, 5)),
             ("complete", (60,))),
    "smoke": (("random-min-degree-2", (24,)), ("hypercube", (3,)),
              ("circulant", (24, 1, 2, 3)), ("windmill", (4, 4)),
              ("complete", (6,))),
}

# small-corpus: acceptance-style family graphs, plus RANDOM_PER_N seeded
# random graphs for every n in the range.  oracle-diff runs where n <= 10.
CORPUS = {
    "full": {"complete": range(3, 9), "cycle": range(4, 13),
             "windmill": [(eta, k) for eta in range(2, 6) for k in range(3, 6)],
             "random_n": range(5, 41)},
    "smoke": {"complete": range(3, 6), "cycle": range(4, 7),
              "windmill": [(2, 3), (2, 4)], "random_n": range(5, 13)},
}
RANDOM_PER_N = {"full": 4, "smoke": 1}
ORACLE_MAX_N = 10

# windmill-sweep: for each k, eta_max = center + offset + a seeded step of
# -1, 0 or +1.  A sweep is dominated by the hub's O(d^2) clustering with
# d = eta(k-1), summed over eta <= eta_max: about (k-1)^2 * eta_max^3 / 3.
# The centers put that at 13.5M, 17.6M and 16M for k = 3, 4, 5, and on a
# 2-vCPU VM (seed 3) the mean op took 0.44, 0.59 and 0.58 s.  So the ops
# are of a similar size, and the median op sits among many similar samples
# instead of on one (k, eta_max) pair.
SWEEP_CENTERS = {"full": {3: 150, 4: 125, 5: 100}, "smoke": {3: 16, 4: 12, 5: 10}}
SWEEP_OFFSETS = {"full": (-10, 0, 10), "smoke": (-3, 0, 3)}


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  ``key`` is stable across checkouts and names the
    op in the pinned digests."""

    key: str
    argv: tuple[str, ...]
    n: int = 0
    m: int = 0
    sweep: tuple[int, int] | None = None  # (k, eta_max) for sweep ops

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    warmup: Op


def _rng(tag: str, seed: int) -> random.Random:
    return random.Random(f"{tag}:{seed}")


def _write(workdir: Path, family: str, params: tuple[int, ...],
           gseed: int | None = None) -> tuple[str, graphs.Graph]:
    g = graphs.generate(graphs.FamilySpec(family, params, seed=gseed))
    stem = "-".join([family, *map(str, params)])
    if gseed is not None:
        stem += f"-s{gseed}"
    path = workdir / f"{stem}.edges"
    path.write_text(graphs.to_edge_list_text(g), encoding="utf-8")
    # relative to the checkout root, the working directory of every run, so
    # the "source" field of the output (and its digest) is the same anywhere
    return os.path.relpath(path), g


def _graph_op(command: str, path: str, g: graphs.Graph) -> Op:
    argv = (command, "--input", path)
    if command != "oracle-diff":
        argv += ("--format", "json")
    return Op(f"{command} {os.path.basename(path)}", argv, g.n, g.m)


def _sweep_op(k: int, eta_max: int) -> Op:
    params = f"{k},2,{eta_max}"
    return Op(f"sweep {params}", ("sweep", "--format", "json", "--params", params),
              sweep=(k, eta_max))


def _mid(command: str, seed: int, size: str, workdir: Path) -> Workload:
    rng = _rng("mid", seed)
    ops = []
    for family, params in MID_MATRIX[size]:
        gseed = rng.randrange(2**31) if family == "random-min-degree-2" else None
        ops.append(_graph_op(command, *_write(workdir, family, params, gseed)))
    # the complete graph is the cheapest member and is not seed-dependent
    return Workload(tuple(ops), warmup=ops[-1])


def _small_corpus(seed: int, size: str, workdir: Path) -> Workload:
    rng = _rng("small-corpus", seed)
    spec = CORPUS[size]
    inputs = [_write(workdir, "complete", (n,)) for n in spec["complete"]]
    inputs += [_write(workdir, "cycle", (n,)) for n in spec["cycle"]]
    inputs += [_write(workdir, "windmill", p) for p in spec["windmill"]]
    for n in spec["random_n"]:
        for _ in range(RANDOM_PER_N[size]):
            inputs.append(_write(workdir, "random-min-degree-2", (n,),
                                 rng.randrange(2**31)))
    ops = []
    for path, g in inputs:
        ops.append(_graph_op("compute", path, g))
        ops.append(_graph_op("check", path, g))
        if g.n <= ORACLE_MAX_N:
            ops.append(_graph_op("oracle-diff", path, g))
    rng.shuffle(ops)
    warm_path, warm_g = _write(workdir, "windmill", (2, 3))
    return Workload(tuple(ops), warmup=_graph_op("oracle-diff", warm_path, warm_g))


def _windmill_sweep(seed: int, size: str) -> Workload:
    rng = _rng("windmill-sweep", seed)
    centers = SWEEP_CENTERS[size]
    ops = [_sweep_op(k, center + offset + rng.choice((-1, 0, 1)))
           for k, center in centers.items() for offset in SWEEP_OFFSETS[size]]
    rng.shuffle(ops)
    k, center = next(iter(centers.items()))
    return Workload(tuple(ops), warmup=_sweep_op(k, center))


def build(name: str, seed: int, size: str, workdir: Path) -> Workload:
    """Generate and write the inputs of one workload; return its ops."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name in ("compute-mid", "check-mid"):
        return _mid(name.split("-")[0], seed, size, workdir)
    if name == "small-corpus":
        return _small_corpus(seed, size, workdir)
    if name == "windmill-sweep":
        return _windmill_sweep(seed, size)
    raise ValueError(f"unknown workload {name!r}")
