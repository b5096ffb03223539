"""Tests of the benchmark itself: contract shape, smoke runs, determinism.

Run from the repository root::

    python3 -m pytest perfbench -q

Every run goes through ``run.py`` in a subprocess, exactly as the
benchmark is invoked, with a tiny ``--seconds``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Counts that must repeat exactly across two runs of one seed.
EXACT_COUNTS = ("runtime.brgemm_calls", "graph_ir.ops_out", "tensor_ir.stmts",
                "service.compiles")


def bench(workload, trace=0, seed=1, seconds=0.5, cwd=ROOT, env=None):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300, env=env)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert "setup_s" in E2E and E2E["setup_s"]["bound"] == max(
        m["bound"] for m in E2E.values())
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25


def test_serve_constants_recorded_in_spec():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    why = next(w["why"] for w in SPEC["workloads"] if w["name"] == "serve_open")
    assert f"light {workloads.LIGHT_RPS:g} rps" in why
    assert f"busy {workloads.BUSY_RPS:g} rps" in why
    assert f"latency limit {workloads.LATENCY_LIMIT_MS:g} ms" in why
    assert set(workloads.WORKLOADS) == set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_untraced(workload):
    result = result_of(bench(workload))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    # Every workload reports every end-to-end metric, never zero.
    assert set(result["metrics"]) == set(E2E)
    for name, value in result["metrics"].items():
        assert value["unit"] == E2E[name]["unit"]
        assert value["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = result_of(bench(workload, trace=1))
    second = result_of(bench(workload, trace=1))
    for result in (first, second):
        assert result["correct"]
        # Every workload reports every per-layer metric.
        assert set(result["metrics"]) == set(PER_LAYER)
        for name, value in result["metrics"].items():
            assert value["unit"] == PER_LAYER[name]["unit"]
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    for name in ("runtime.brgemm_calls", "graph_ir.ops_out", "tensor_ir.stmts"):
        assert first["metrics"][name]["value"] > 0, name
    # Only the serving workload sends requests through the service layer.
    served = first["metrics"]["service.compiles"]["value"]
    assert (served > 0) == (workload == "serve_open")


def test_refuses_when_program_tracing_is_on():
    env = dict(os.environ, REPRO_TRACE="1")
    proc = bench("mha_infer", env=env)
    assert proc.returncode != 0
    assert "refusing" in proc.stderr
    assert '"metrics"' not in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("mlp_infer", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
