"""Tests of the benchmark itself, on smoke-sized inputs.

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import run  # noqa: E402
from perfbench.workloads import PassResult, make_suites  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SINGLE_PROCESS = [w for w in WORKLOADS if w != "sweep_mixed"]


def bench(workload, *extra, seed=1, trace=0, cwd=ROOT, seconds="0.5"):
    """Run the benchmark command; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace),
         *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


def metric_units(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_workloads_match_benchmark_json():
    assert sorted(make_suites()) == sorted(WORKLOADS)
    assert sorted(make_suites(smoke=True)) == sorted(WORKLOADS)


def test_metric_tables_match_benchmark_json():
    assert run.END_TO_END == metric_units("end_to_end")
    assert run.PER_LAYER == metric_units("per_layer")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    code, lines = bench(workload, "--smoke")
    result = json.loads(lines[-1])
    assert code == 0, lines
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = metric_units("end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert f"{name} = " in "\n".join(lines) and unit
        assert result["metrics"][name]["value"] > 0, name
    assert any(line.startswith("failed_frac = 0 ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    code, lines = bench(workload, "--smoke", trace=1, seconds="1")
    result = json.loads(lines[-1])
    assert code == 0, lines
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == metric_units("per_layer")
    assert metrics["kernel.run.s"]["value"] > 0
    assert metrics["kernel.codegen.s"]["value"] > 0
    assert metrics["kernel.source_bytes"]["value"] > 0
    if workload in SINGLE_PROCESS:
        assert metrics["trace.coverage"]["value"] >= 0.9


def test_sweep_hit_share_equals_the_seeded_warm_share():
    suite = make_suites(smoke=True)["sweep_mixed"]
    code, lines = bench("sweep_mixed", "--smoke", trace=1, seconds="1")
    assert code == 0, lines
    hit_frac = json.loads(lines[-1])["metrics"]["exp.cache_hit_frac"]["value"]
    assert hit_frac == suite.warm_share


def test_sweep_warm_set_follows_the_seed():
    suite = make_suites()["sweep_mixed"]
    draws = {seed: suite.warm_set(random.Random(seed)) for seed in range(6)}
    assert draws[3] == suite.warm_set(random.Random(3))
    assert len({frozenset(d) for d in draws.values()}) > 1
    for warm in draws.values():
        assert len(warm) == sum(suite.warm_per_workload) == 11
        for tiles, count in zip(suite.tiles, suite.warm_per_tile):
            assert sum(d.endswith(f"tiles{tiles}") for d in warm) == count
    assert suite.warm_share == 11 / 21


def test_corrupted_golden_check_is_counted_as_failed():
    code, lines = bench("toolchain_cold", "--smoke", "--corrupt-check")
    result = json.loads(lines[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1
    assert any(line.startswith(f"failed_frac = {1 / result['attempted']:.6g} ")
               for line in lines)


def test_divergent_simulated_counts_are_reported():
    same = [PassResult(wall=1.0, counts={"cycles": 10}) for _ in range(3)]
    assert run.first_divergence(same) is None
    drift = same + [PassResult(wall=1.0, counts={"cycles": 11})]
    assert "cycles" in run.first_divergence(drift)


def test_fails_without_the_toolchain(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    code, lines = bench("sim_hot", "--smoke", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
