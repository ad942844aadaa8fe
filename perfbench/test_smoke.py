"""Smoke test of the benchmark harness at toy shapes (a few seconds per run).

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
LAYERS = {"vocab", "training", "sampling", "model", "tensor", "kernels", "optim", "evaluation",
          "checkpoint"}
SEED = 3


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_prints_declared_metrics(workload, trace):
    out = run_bench(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, out.stdout
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_spans_every_layer(workload):
    assert run_bench(workload, 1).returncode == 0
    with open(os.path.join(ROOT, ".perfbench", f"trace-{workload}-seed{SEED}-tiny.json"),
              encoding="utf-8") as fh:
        doc = json.load(fh)
    names = {s["name"] for s in doc["spans"]}
    assert LAYERS <= {name.split(".")[0] for name in names}
    assert ("sampling.neighbors" in names) == (workload == "train-neighbors")
    steps = {s["trace_id"] for s in doc["spans"] if s["name"] == "training.step"}
    assert {0, 1} <= steps
    assert all(s["end"] >= s["start"] for s in doc["spans"])


def test_inputs_depend_only_on_seed():
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS as SPECS, make_inputs, tiny

    w = tiny(SPECS[WORKLOADS[0]])
    a, b, c = make_inputs(w, 1), make_inputs(w, 1), make_inputs(w, 2)
    assert a.corpus == b.corpus and a.cloze == b.cloze and a.probe_corpus == b.probe_corpus
    assert a.corpus != c.corpus


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
