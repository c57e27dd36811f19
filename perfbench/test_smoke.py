"""Smoke tests of the benchmark itself, at tiny input sizes:

    python3 -m pytest perfbench -q

They check the output contract (every named metric, with its unit), that a
corrupted input counts as a failed operation, and that the benchmark
refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    argv = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=900)


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_metric_is_reported_with_its_unit(name, trace):
    done = _run("--workload", name, "--seed", "5", "--seconds", "0.1", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    table = "\n".join(lines[:-1])
    for metric, unit in expected.items():
        assert f" {metric} " in table and f" {unit} " in table
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_corrupted_input_counts_as_failed(name):
    record = run.bench(name, 5, 0.1, trace=False, smoke=True, corrupt=True)
    assert record["attempted"] >= 1
    assert record["failed"] == record["attempted"]
    assert record["result"]["correct"] is False


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", workloads.NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
