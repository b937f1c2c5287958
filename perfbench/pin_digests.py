"""Rewrite digests.json: the SHA-256 of every op's stdout for the pinned seeds.

    python3 perfbench/pin_digests.py

Runs the warm-up op and one cycle of every workload, at both sizes, for each
seed in ``run.PINNED_SEEDS``.  Every op must pass its output checks.  Re-pin
only when a change is meant to alter the CLI's output bytes, and say so in the
change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    run.import_centrel()
    os.chdir(run.ROOT)
    import checks
    import workloads
    from centrel import cli

    pins: dict = {}
    for name in workloads.WORKLOADS:
        for size in workloads.SIZES:
            for seed in run.PINNED_SEEDS:
                workdir = run.OUT_DIR / "work" / f"{name}-{size}"
                wl = workloads.build(name, seed, size, workdir)
                runner = run.Runner(cli, checks, None)
                for op in (wl.warmup, *wl.ops):
                    runner.run(op, "pin")
                shutil.rmtree(workdir, ignore_errors=True)
                if runner.failures:
                    print("\n".join(runner.failures), file=sys.stderr)
                    return 1
                pins.setdefault(name, {}).setdefault(size, {})[str(seed)] = {
                    r["key"]: r["sha256"] for r in runner.records}
                print(f"{name} {size} seed {seed}: {len(wl.ops)} ops", flush=True)
    with open(checks.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
