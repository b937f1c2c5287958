"""Tests of the benchmark itself, on the seconds-long smoke size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT_COUNTS = ("centralities.brandes_calls", "centralities.average_clustering_calls",
                "paths.diameter_calls", "paths.all_pairs_calls", "paths.bfs_sources",
                "paths.dense_bytes", "oracle.paths_enumerated", "cli.output_bytes",
                "trace.spans", "src.lines")


def bench(workload: str, trace: int, seconds: float = 0.5, seed: int = run.DEFAULT_SEED,
          cwd: Path = ROOT) -> tuple[dict, dict]:
    """Run the smoke size; return the result line and the details file."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((ROOT / ".perfbench" / "out" /
                         f"{workload}-smoke-seed{seed}-trace{trace}.json").read_text())
    return result, detail


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_is_correct_and_reports_end_to_end_metrics(workload):
    result, detail = bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # the default seed is pinned, so every op's stdout matched its digest
    pins = checks.load_pins(workload, "smoke", run.DEFAULT_SEED)
    assert pins and {r["key"] for r in detail["ops"]} <= set(pins)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, detail = bench(workload, trace=1, seconds=0.2)
    second, _ = bench(workload, trace=1, seconds=1.0)
    assert first["correct"] and second["correct"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    # self times by group add up to the traced op time
    traced = [r["seconds"] for r in detail["ops"] if r["phase"] == "traced"]
    layers = sum(v["value"] for k, v in first["metrics"].items()
                 if v["unit"] == "s/op" and k != "trace.overhead_s")
    assert layers == pytest.approx(sum(traced) / len(traced), rel=0.05)


def test_known_counts_on_the_mid_matrix():
    compute, _ = bench("compute-mid", trace=1, seconds=0.1)
    check, _ = bench("check-mid", trace=1, seconds=0.1)
    n = [g.n for g in (workloads.graphs.generate(workloads.graphs.FamilySpec(f, p, seed=0))
                       for f, p in workloads.MID_MATRIX["smoke"])]
    mean_n = sum(n) / len(n)
    assert compute["metrics"]["centralities.brandes_calls"]["value"] == 1
    assert check["metrics"]["centralities.brandes_calls"]["value"] == 2
    # radiality asks for the diameter once per vertex, plus the report's own
    assert compute["metrics"]["paths.diameter_calls"]["value"] == mean_n + 1
    assert compute["metrics"]["paths.bfs_sources"]["value"] == mean_n


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "compute-mid", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_seed_fixes_the_inputs(tmp_path):
    def keys(seed, sub):
        return [op.key for op in workloads.build("small-corpus", seed, "smoke",
                                                 tmp_path / sub).ops]
    assert keys(3, "a") == keys(3, "b")
    assert keys(3, "a") != keys(4, "c")


@pytest.mark.parametrize("field", ["betweenness", "radiality"])
def test_tampered_compute_output_fails(field):
    op = workloads.Op("compute x", ("compute",), n=3, m=3)
    third = {"exact": "1/3", "value": 1 / 3}
    zero = {"exact": "0", "value": 0.0}
    one = {"exact": "1", "value": 1.0}
    vertex = {"betweenness": zero, "radiality": one}
    payload = {"graph": {"n": 3, "m": 3}, "vertices": [dict(vertex) for _ in range(3)],
               "graph_level": {"avg_path_length": one, "diameter": 1,
                               "local_efficiency": one, "avg_clustering": one}}
    assert checks.check_output(op, 0, json.dumps(payload)) is True
    payload["vertices"][0][field] = third
    with pytest.raises(checks.CheckFailure):
        checks.check_output(op, 0, json.dumps(payload))


@pytest.mark.parametrize("eta,k", [(2, 3), (3, 4), (5, 5), (7, 3)])
def test_windmill_closed_form_matches_the_definition(eta, k):
    from centrel import average_clustering, global_clustering
    from centrel.graphs import FamilySpec, generate
    g = generate(FamilySpec("windmill", (eta, k)))
    assert checks.windmill_clustering(eta, k) == (average_clustering(g),
                                                  global_clustering(g))
    assert isinstance(checks.windmill_clustering(eta, k)[0], Fraction)


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    assert run.tail([float(i) for i in range(100)])[0] == 90
    assert run.tail([float(i) for i in range(1000)]) == (99, 989.0)


def test_calibration_runs_at_least_one_pass_for_the_asked_time():
    passes, seconds = run.calibrate(0.01)
    assert passes >= 1 and seconds >= 0.01
    assert run.calibrate(0.0)[0] == 1


def test_bracketed_reports_seconds_and_reference_passes():
    with run.bracketed() as timing:
        run.calibrate(0.01)
    assert timing["seconds"] >= 0.01
    # the body is itself reference-loop passes, so it counts about as many
    passes, seconds = run.calibrate(0.05)
    assert timing["refs"] == pytest.approx(timing["seconds"] / (seconds / passes),
                                           rel=0.5)
