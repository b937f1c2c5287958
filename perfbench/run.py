"""Benchmark of the centrel command line on seeded, generated graphs.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1] [--size full|smoke]

One workload per process, as a closed loop with one client: each op is
``centrel.cli.main(argv)`` with the argv a user would type and stdout
captured, one op at a time.  Set-up (import, input generation, file writes
and one untimed warm-up op) is done SETUP_REPS times.  The import and each
set-up are bracketed by reference-loop passes, and ``setup_s`` is the import
plus the median set-up, rescaled from pass time to a nominal machine speed.
The timed phase then repeats whole cycles of the workload's ops and stops
where it ends closest to ``--seconds`` (after at least one cycle).
Every op's output is checked after its timing (see checks.py).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced reference cycle, then traced cycles (see tracing.py), and reports the
per-layer metrics: self times and counts per op, plus the tracing overhead.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit and sample count.  Details, per-op records and spans
go to ``.perfbench/out/`` in the checkout.

The benchmark builds nothing: it imports centrel from ``src/`` next to this
directory and exits non-zero if that is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 1
# Held out: not used while tuning a change; a claim made on other seeds must
# also hold here.  Its digests are pinned like the default seed's.
HELD_OUT_SEED = 7919
PINNED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)
SETUP_REPS = 5
# Before each op the reference loop runs for this share of the previous op's
# time, and after it for this share of its own time (at least one pass each),
# so its mean pass time is weighted over the run as the ops are, and brackets
# each op.  Op time over pass time cancels the machine's speed drift.
REF_SHARE = 0.05
REF_ITERATIONS = 1000
# Each set-up, and the import, is bracketed by this much reference loop on
# either side.  ``setup_s`` converts the bracketed set-up time from passes to
# seconds at NOMINAL_PASS_S per pass, about what a pass takes on the 2-vCPU
# VM where the bounds were set.
SETUP_REF_S = 0.05
NOMINAL_PASS_S = 60e-6
TAIL_LADDER = (50, 90, 99, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


def import_centrel() -> tuple[float, float]:
    """Import centrel from this checkout's src/; return the import time in
    seconds and in reference passes."""
    src = ROOT / "src"
    if not (src / "centrel" / "__init__.py").is_file():
        raise SystemExit(f"error: no centrel package under {src}")
    sys.path.insert(0, str(src))
    with bracketed() as timing:
        import centrel.cli  # noqa: F401  (imports every module)
    import centrel
    if not Path(centrel.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: imported centrel from {centrel.__file__}, "
                         f"not from {src}")
    return timing["seconds"], timing["refs"]


def reference_loop() -> int:
    """Fixed pure-Python work: the unit of ``op_cost_refs``."""
    x = 0
    for i in range(REF_ITERATIONS):
        x += i * i
    return x


def calibrate(seconds: float) -> tuple[int, float]:
    """Run reference-loop passes for at least ``seconds`` (at least one pass);
    return the passes and their time."""
    passes = 0
    t0 = perf_counter()
    while True:
        reference_loop()
        passes += 1
        elapsed = perf_counter() - t0
        if elapsed >= seconds:
            return passes, elapsed


@contextlib.contextmanager
def bracketed():
    """Time the body, with SETUP_REF_S of reference loop before and after it.
    Fills the yielded dict with ``seconds`` and ``refs`` (seconds over the
    mean pass time of the brackets)."""
    timing = {}
    before = calibrate(SETUP_REF_S)
    t0 = perf_counter()
    yield timing
    timing["seconds"] = perf_counter() - t0
    after = calibrate(SETUP_REF_S)
    pass_seconds = (before[1] + after[1]) / (before[0] + after[0])
    timing["refs"] = timing["seconds"] / pass_seconds


class Runner:
    """Runs ops through the CLI, times them and checks their output."""

    def __init__(self, cli, checks, pins: dict[str, str] | None, tracer=None):
        self.cli = cli
        self.checks = checks
        self.pins = pins
        self.tracer = tracer
        self.records: list[dict] = []
        self.failures: list[str] = []
        self.last_seconds = 0.0  # of the previous recorded op

    def run(self, op, phase: str) -> float:
        """Run one op; record it unless it is a warm-up.  Returns its time."""
        out, err = io.StringIO(), io.StringIO()
        error = None
        recorded = phase != "warm-up"
        if recorded:
            before = calibrate(REF_SHARE * self.last_seconds)
        if self.tracer is not None:
            self.tracer.op_id = len(self.records)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = self.cli.main(list(op.argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # an op that raises counts as failed
                rc, error = None, f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - t0
        stdout = out.getvalue()
        exact, failure = None, error
        if failure is None:
            try:
                exact = self.checks.check_output(op, rc, stdout)
                if self.pins is not None and \
                        self.pins.get(op.key) != self.checks.digest(stdout):
                    raise self.checks.CheckFailure("stdout differs from its "
                                                   "pinned SHA-256")
            except self.checks.CheckFailure as exc:
                failure = str(exc)
        if failure is not None:
            self.failures.append(f"{phase} op {op.key!r}: {failure}; "
                                 f"stderr: {err.getvalue().strip()[:200]}")
        if recorded:
            after = calibrate(REF_SHARE * seconds)
            self.last_seconds = seconds
            self.records.append({
                "key": op.key, "phase": phase, "n": op.n, "m": op.m,
                "exact": exact, "seconds": seconds,
                "ref_passes": before[0] + after[0],
                "ref_seconds": before[1] + after[1],
                "bytes": len(stdout.encode("utf-8")),
                "sha256": self.checks.digest(stdout), "ok": failure is None})
        return seconds


def run_cycles(ops, seconds: float, run) -> int:
    """Repeat whole cycles (at least one) and stop where the phase ends
    closest to ``seconds``: continue while the next cycle, if it takes as
    long as the last, would end less than half a cycle past it."""
    start = perf_counter()
    cycles = 0
    while True:
        t0 = perf_counter()
        for op in ops:
            run(op)
        cycles += 1
        now = perf_counter()
        if now - start + (now - t0) / 2 > seconds:
            return cycles


def tail(times: list[float]) -> tuple[float, float] | None:
    """(percentile, value) for the highest ladder percentile with at least
    TAIL_MIN_BEYOND samples beyond it, by nearest rank; None if none has."""
    ordered = sorted(times)
    best = None
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * len(ordered))
        if rank >= 1 and len(ordered) - rank >= TAIL_MIN_BEYOND:
            best = (p, ordered[rank - 1])
    return best


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def end_to_end(measured, import_refs, setup_refs, peak_rss_mb) -> dict:
    """Gated metrics: name -> (value, unit, samples)."""
    op_seconds = sum(r["seconds"] for r in measured)
    passes = sum(r["ref_passes"] for r in measured)
    pass_seconds = sum(r["ref_seconds"] for r in measured) / passes
    return {
        "op_cost_refs": (op_seconds / len(measured) / pass_seconds, "refs",
                         f"{len(measured)} ops, {passes} reference passes of "
                         f"{pass_seconds * 1e6:.2f} us"),
        "peak_rss_mb": (peak_rss_mb, "MB", "1 process"),
        "setup_s": ((import_refs + statistics.median(setup_refs)) * NOMINAL_PASS_S,
                    "s", f"import {import_refs:.0f} + median of {SETUP_REPS} "
                    f"set-ups {', '.join(f'{r:.0f}' for r in setup_refs)} "
                    f"reference passes, at {NOMINAL_PASS_S * 1e6:g} us a pass"),
    }


def wall_times(measured, phase_s: float, lines: list[str]) -> dict:
    """Throughput over the timed phase's wall time ``phase_s``, and median and
    tail op time in seconds, appended to ``lines`` and returned."""
    times = [r["seconds"] for r in measured]
    out = {"ops_per_s": {"value": sum(1 for r in measured if r["ok"]) / phase_s,
                         "unit": "1/s", "samples": len(times)},
           "op_p50_s": {"value": statistics.median(times), "unit": "s",
                        "samples": len(times)}}
    lines.append(f"  ops_per_s {out['ops_per_s']['value']:.6g} 1/s "
                 f"({len(times)} ops in a {phase_s:.3f} s timed phase, "
                 f"{sum(times):.3f} s of it op time)")
    lines.append(f"  op_p50_s {out['op_p50_s']['value']:.6g} s ({len(times)} ops)")
    found = tail(times)
    if found is None:
        lines.append(f"  op_tail_s not reported: {len(times)} ops leave fewer "
                     f"than {TAIL_MIN_BEYOND} beyond any percentile")
    else:
        out["op_tail_s"] = {"percentile": found[0], "value": found[1], "unit": "s",
                            "samples": len(times)}
        lines.append(f"  op_tail_s {found[1]:.6g} s at p{found[0]:g} "
                     f"({len(times)} ops)")
    return out


def per_layer(tracer, records, generate_s) -> dict:
    """Per-op self times and counts of the traced ops, plus tracing cost."""
    traced_ids = {i for i, r in enumerate(records) if r["phase"] == "traced"}
    n_ops = len(traced_ids)
    traced = [records[i]["seconds"] for i in traced_ids]
    reference = [r["seconds"] for r in records if r["phase"] == "reference"]
    per_op = f"{n_ops} traced ops"
    metrics = {f"{group}_s": (seconds / n_ops, "s/op", per_op)
               for group, seconds in tracer.self_times(traced_ids).items()}
    for name, value in tracer.counts.items():
        unit = "B/op" if name.endswith("_bytes") else "count/op"
        metrics[name] = (value / n_ops, unit, per_op)
    metrics["cli.output_bytes"] = (
        sum(records[i]["bytes"] for i in traced_ids) / n_ops, "B/op", per_op)
    metrics["setup.generate_s"] = (statistics.median(generate_s), "s",
                                   f"median of {SETUP_REPS} set-ups")
    metrics["trace.overhead_s"] = (
        statistics.fmean(traced) - statistics.fmean(reference), "s/op",
        f"mean of {n_ops} traced ops - mean of {len(reference)} untraced")
    metrics["trace.spans"] = (tracer.span_count(traced_ids) / n_ops, "count/op",
                              per_op)
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full",
                        help="full, or smoke: tiny inputs for the tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s, import_refs = import_centrel()
    os.chdir(ROOT)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import checks
    import tracing
    import workloads
    from centrel import cli

    if args.workload not in workloads.WORKLOADS or args.size not in workloads.SIZES:
        raise SystemExit(f"error: workload must be one of {workloads.WORKLOADS} "
                         f"and size one of {workloads.SIZES}")
    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(cli, checks,
                    checks.load_pins(args.workload, args.size, args.seed), tracer)
    workdir = OUT_DIR / "work" / f"{args.workload}-{args.size}"

    # -- set-up ------------------------------------------------------------
    setup_reps, setup_refs, generate_s = [], [], []
    for rep in range(SETUP_REPS):
        gc.collect()
        with bracketed() as timing:
            if tracer is not None:
                tracer.op_id = -2 - rep
                tracer.install()
            wl = workloads.build(args.workload, args.seed, args.size, workdir)
            if tracer is not None:
                tracer.uninstall()
            runner.run(wl.warmup, "warm-up")
        if tracer is not None:
            generate_s.append(tracer.self_times({-2 - rep})["graphs.generate"])
        setup_reps.append(timing["seconds"])
        setup_refs.append(timing["refs"])
    gc.collect()
    gc.freeze()  # the benchmark's own objects stay out of the timed phase's GC

    # -- timed phase ---------------------------------------------------------
    if tracer is None:
        t0 = perf_counter()
        cycles = run_cycles(wl.ops, args.seconds, lambda op: runner.run(op, "timed"))
        phase_s = perf_counter() - t0
    else:
        t0 = perf_counter()
        for op in wl.ops:
            runner.run(op, "reference")
        remaining = args.seconds - (perf_counter() - t0)
        tracer.reset_counts()
        tracer.install()
        try:
            cycles = run_cycles(wl.ops, remaining,
                                lambda op: runner.run(op, "traced"))
        finally:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    shutil.rmtree(workdir, ignore_errors=True)

    records = runner.records
    measured = [r for r in records if r["phase"] in ("timed", "traced")]
    failed = sum(1 for r in records if not r["ok"])
    compute = [r for r in measured if r["key"].startswith("compute ")]
    n_src_lines = src_lines()
    lines = [f"workload {args.workload} size {args.size} seed {args.seed} "
             f"trace {args.trace}: {cycles} cycles x {len(wl.ops)} ops",
             f"  fail_ratio {failed}/{len(records)}",
             f"  compute ops with float (inexact) betweenness: "
             f"{sum(1 for r in compute if r['exact'] is False)} of {len(compute)}",
             f"  src lines: {n_src_lines}"]
    if tracer is None:
        metrics = end_to_end(measured, import_refs, setup_refs, peak_rss_mb)
        # printed and kept in the details, but not gated (see README)
        latency = wall_times(measured, phase_s, lines)
        lines.append(f"  set-up wall time {import_s:.4f} s import + median "
                     f"{statistics.median(setup_reps):.4f} s of "
                     f"{', '.join(f'{s:.4f}' for s in setup_reps)}")
    else:
        metrics = per_layer(tracer, records, generate_s)
        metrics["src.lines"] = (n_src_lines, "lines", "src/**/*.py")
        latency = {}
    for name, (value, unit, samples) in sorted(metrics.items()):
        lines.append(f"  {name:<36} {value:>16.6g} {unit:<8} ({samples})")
    lines += [f"  FAILED {f}" for f in runner.failures[:20]]

    out = OUT_DIR / "out"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    detail = {"args": vars(args), "cycles": cycles,
              "metrics": {k: {"value": v, "unit": u, "samples": s}
                          for k, (v, u, s) in metrics.items()},
              **latency, "fail_ratio": [failed, len(records)],
              "src_lines": n_src_lines,
              "setup_reps_s": setup_reps, "setup_reps_refs": setup_refs,
              "import_s": import_s, "import_refs": import_refs,
              "failures": runner.failures, "ops": records}
    (out / f"{stem}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    if tracer is not None:
        tracer.write(out / f"{stem}-spans.jsonl")
    lines.append(f"  details in {os.path.relpath(out / stem)}.json")

    print("\n".join(lines))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
