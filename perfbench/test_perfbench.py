"""Smoke run of the benchmark at tiny sizes, and its output checks.

Runs ``perfbench/run.py --scale smoke`` in child processes, so the BLAS
environment the benchmark sets never leaks into the test process.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import bench

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_smoke_run_reports_every_metric_with_its_unit():
    # Both modes at once: each is a chain of child processes on one core.
    procs = {
        trace: subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload", "all", "--scale", "smoke",
             "--seed", "7", "--seconds", "0", "--trace", trace],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for trace in ("0", "1")
    }
    outputs = {}
    try:
        for trace, proc in procs.items():
            outputs[trace] = proc.communicate(timeout=300)
    finally:
        for proc in procs.values():
            proc.kill()
            proc.wait()
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        out, err = outputs[trace]
        assert procs[trace].returncode == 0, err
        _check_result(json.loads(out.strip().split("\n")[-1]), trace, section)


def _check_result(result, trace, section):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    for wl in SPEC["workloads"]:
        got = {k.split(":", 1)[1]: v for k, v in result["metrics"].items()
               if k.startswith(wl["name"] + ":")}
        assert set(got) == set(expected), wl["name"]
        for name, unit in expected.items():
            assert got[name]["unit"] == unit, name
            assert isinstance(got[name]["value"], (int, float)), name
        report = json.loads(
            (ROOT / ".perfbench" / f"{wl['name']}-smoke-seed7-trace{trace}.json").read_text()
        )
        assert report["problems"] == []
        assert report["environment"]["blas_threads_set"] == 1


def _fit(trace, ordinates):
    warps = SimpleNamespace(subject_offsets={"s1": None}, ordinates=lambda sid: np.asarray(ordinates))
    return SimpleNamespace(trace=trace, warps=warps)


def test_fit_checks_catch_trace_increase_and_non_monotone_warp():
    assert bench.fit_problems(_fit([3.0, 2.0, 2.0], [0.0, 0.3, 0.7, 1.0])) == []
    assert bench.fit_problems(_fit([3.0, 2.0, 2.5], [0.0, 0.3, 0.7, 1.0]))
    assert bench.fit_problems(_fit([3.0, 2.0], [0.0, 0.7, 0.7, 1.0]))


def test_prediction_checks_catch_bad_probability_and_label():
    ok = SimpleNamespace(subject_id="s1", pi_hat=0.3, label=0)
    assert bench.prediction_problems(ok) == []
    assert bench.prediction_problems(SimpleNamespace(subject_id="s1", pi_hat=1.5, label=1))
    assert bench.prediction_problems(SimpleNamespace(subject_id="s1", pi_hat=0.5, label=2))


def test_derived_seeds_differ_per_stream():
    assert bench.derive_seed(3, "train") != bench.derive_seed(3, "stream")
    assert bench.derive_seed(3, "train") == bench.derive_seed(3, "train")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "study2-common", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
