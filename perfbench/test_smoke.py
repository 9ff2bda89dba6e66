"""Smoke tests of the repository benchmark at tiny design sizes.

Run from the repository root::

    python3 -m pytest perfbench -q

Each test runs ``perfbench/run.py --smoke`` (mesh16, 300 traffic
cycles, a 2x8 mvmult) as a subprocess, exactly as the benchmark is
invoked, and checks the result line against ``BENCHMARK.json``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, seed=3, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return out


def result_of(out):
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result["metrics"]


def units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = result_of(run_bench(workload, trace=0))
    assert {k: v["unit"] for k, v in metrics.items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    metrics = result_of(run_bench(workload, trace=1))
    assert {k: v["unit"] for k, v in metrics.items()} == units("per_layer")
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["sim.cycles"] > 0 and value["core.elaboration.nets"] > 0
    if workload.startswith("mesh"):
        assert value["net.injected"] == value["net.ejected"] > 0
        assert value["simjit.c_calls_per_cycle"] > 0
        assert value["simjit.cache_hit"] == (1 if "warm" in workload else 0)
        assert (value["simjit.gcc_peak_rss_mb"] > 0) == ("cold" in workload)
    else:
        assert value["simjit.c_lines"] == 0 and value["net.injected"] == 0


def test_counts_repeat_for_one_seed():
    counts = ("sim.cycles", "net.injected", "net.ejected", "net.latency_sum",
              "simjit.c_calls_per_cycle", "simjit.c_lines", "simjit.c_bytes")
    runs = [result_of(run_bench("mesh64-rtl-jit-warm", trace=1))
            for _ in range(2)]
    assert [{k: m[k]["value"] for k in counts} for m in runs] == [
        {k: runs[0][k]["value"] for k in counts}] * 2


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
