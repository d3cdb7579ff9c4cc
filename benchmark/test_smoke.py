"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the root of the repository:  python3 -m pytest -q benchmark/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

run.load_program()
import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


def declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_metric_and_workload_names_match_benchmark_json():
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == NAMES


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_at_tiny_size(name, trace):
    line = run.run(name, 7, 0.2, trace, tiny=True)["line"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {m: v["unit"] for m, v in line["metrics"].items()} == (run.PER_LAYER if trace else run.END_TO_END)
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_injected_wrong_result_raises_failed_count(name):
    line = run.run(name, 7, 0.1, False, tiny=True, inject_fault=True)["line"]
    assert line["failed"] > 0 and not line["correct"]


def test_oracle_and_mpmath_reject_a_wrong_result():
    data = workloads.cio.generate(workloads.GenConfig(n=500, levels=(3, 4, 2), seed=3))
    spec = workloads.TestSpec(0, 1, (2,))
    good = workloads.citest.ci_test(data, spec)
    assert checks.against_oracle(data, spec, good) == [] and checks.against_mpmath(good) == []
    bad = dataclasses.replace(good, g2=good.g2 + 1e-3, log_p_chi2=good.log_p_chi2 - 1e-6)
    assert checks.against_oracle(data, spec, bad) and checks.against_mpmath(bad)


@pytest.mark.parametrize("name", NAMES)
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    workload = workloads.WORKLOADS[name](tiny=True)

    def inputs(seed):
        state = workload.setup(seed, tmp_path)
        if name == "ingest_cli":  # the file is rewritten per seed: snapshot it now
            return state["path"].read_bytes(), state["codes"].tolist()
        return state

    assert inputs(5) == inputs(5) != inputs(6)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "paper_grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_command_line_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "pc_screen", "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and set(line["metrics"]) == set(run.END_TO_END)
