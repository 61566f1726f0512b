"""Smoke test of the benchmark at toy sizes: ``python3 -m pytest -q bench``.

Kept out of the package's test suite (pytest's testpaths is ``tests``); it
checks the benchmark, not umpair.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import NAMES  # noqa: E402


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.3", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(NAMES)


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_run_is_correct_and_complete(workload):
    result = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, m in result["metrics"].items():
        assert m["unit"] == run.END_TO_END[name][0]
        assert m["value"] > 0


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_and_self_times_add_up(workload):
    first, second = bench(workload, 1), bench(workload, 1)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(run.PER_LAYER)
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
              for r in (first, second)]
    assert counts[0] == counts[1]
    layers = first["metrics"]
    accounted = sum(m["value"] for k, m in layers.items()
                    if m["unit"] == "s" and not k.startswith("trace."))
    total = layers["trace.verdict_s"]["value"]
    assert math.isclose(accounted + layers["trace.outside_s"]["value"], total,
                        rel_tol=1e-9)


def test_certify_batch_vectors_follow_the_seed(tmp_path):
    from workloads import build
    vectors = []
    for seed in (1, 1, 2):
        workdir = tmp_path / f"s{seed}-{len(vectors)}"
        workdir.mkdir()
        w = build("certify-batch", "smoke", seed, workdir)
        sys.path.insert(0, str(BENCH.parent / "src"))
        w.setup()
        vectors.append([p.read_text() for _, p, _ in w.vectors])
    assert vectors[0] == vectors[1] != vectors[2]


def test_refuses_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "null-search"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
