"""Tests of the benchmark itself (not of patchreg).

    python3 -m pytest perfbench/tests -q

Each workload runs once untraced and once traced at the shortest length
(one measured round). Running all four takes a few minutes and about
3 GB of memory for ``train-swin``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import Tracer, per_layer_names  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = SPEC["command"][:]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd + list(args), cwd=cwd, capture_output=True, text=True, timeout=600)


def checks(stdout: str) -> dict[str, str]:
    return {
        line.split()[1]: line.split()[3]
        for line in stdout.splitlines()
        if line.startswith("check ")
    }


def test_spec_matches_what_the_runner_prints():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == per_layer_names()
    assert {m["name"] for m in SPEC["end_to_end"]} == {"pairs_per_s", "call_s", "peak_rss_mb", "setup_s"}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_tracer_restores_every_wrapped_name():
    assert run.import_program() is not None
    from patchreg import blocks, gradcore, metrics, models, svf, training

    before = {
        "gradcore.gelu": gradcore.gelu,
        "blocks.gelu": blocks.gelu,
        "models.integrate_svf": models.integrate_svf,
        "register": models.RegistrationModel.__dict__["register"],
        "step": training.Adam.__dict__["step"],
        "pool": metrics.ThreadPoolExecutor,
    }
    tracer = Tracer()
    tracer.install()
    try:
        assert blocks.gelu is not before["blocks.gelu"]
        assert gradcore.gelu is not before["gradcore.gelu"]
        assert models.integrate_svf is not before["models.integrate_svf"]
        assert svf.integrate_svf is models.integrate_svf
        assert metrics.ThreadPoolExecutor is not before["pool"]
    finally:
        assert tracer.restore()
    after = {
        "gradcore.gelu": gradcore.gelu,
        "blocks.gelu": blocks.gelu,
        "models.integrate_svf": models.integrate_svf,
        "register": models.RegistrationModel.__dict__["register"],
        "step": training.Adam.__dict__["step"],
        "pool": metrics.ThreadPoolExecutor,
    }
    assert all(after[k] is before[k] for k in before)


def test_memory_window_counts_what_the_call_still_holds():
    import numpy as np

    tracer = Tracer()
    with tracer.memory_round():
        tracer.mem_open()
        held = np.ones(1 << 20)  # 8 MiB kept, like a graph referenced into validation
        step = np.ones(1 << 20)  # 8 MiB more at the peak
        del step
        tracer.mem_close()
    assert held.sum() and tracer.graph_peak_bytes >= 2 * held.nbytes


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_and_traced_checks_agree(workload):
    plain = bench("--workload", workload, "--seed", "7", "--seconds", "0.01", "--trace", "0")
    traced = bench("--workload", workload, "--seed", "7", "--seconds", "0.01", "--trace", "1")
    for proc, spec_key in ((plain, "end_to_end"), (traced, "per_layer")):
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for m in SPEC["end_to_end"]:
        assert plain.stdout.count(f" {m['unit']} ") >= 1
        assert json.loads(plain.stdout.splitlines()[-1])["metrics"][m["name"]]["value"] > 0
    assert "(median, n=" in plain.stdout and "failed_frac = 0 " in plain.stdout
    assert checks(plain.stdout) and checks(plain.stdout) == checks(traced.stdout)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
