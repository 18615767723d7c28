"""Self-test of the end-to-end benchmark at toy sizes (a few seconds per workload).

Runs ``run.py`` the way a user does, in subprocesses, so the caches and
environment of the test session are never touched, and checks that:

* every workload passes its output checks;
* every span a workload declares in ``exercises`` fires on it;
* unaccounted time stays under 10% of the traced window;
* the Chrome trace JSON loads;
* the result line carries exactly the metrics ``BENCHMARK.json`` declares;
* the span wrappers are restored after a traced run;
* a directory holding only the benchmark fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "benchmarks/e2e/run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One toy traced run of every workload: (result line, runs by workload, trace dir)."""
    tmp = tmp_path_factory.mktemp("e2e")
    proc = _run("--scale", "toy", "--trace", "1", "--seconds", "0",
                "--trace-dir", str(tmp / "trace"), "--out", str(tmp / "results.json"))
    assert proc.returncode == 0, proc.stderr[-4000:]
    line = json.loads(proc.stdout.splitlines()[-1])
    runs = {run["workload"]: run for run in
            json.loads((tmp / "results.json").read_text())["runs"]}
    return line, runs, tmp / "trace"


def test_every_workload_passes_its_checks(traced):
    line, runs, _ = traced
    assert set(runs) == set(WORKLOADS)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    for run in runs.values():
        assert run["correct"], run["failures"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_declared_spans_fire(traced, name):
    metrics = traced[1][name]["metrics"]
    silent = [m for m in WORKLOADS[name].exercises if not metrics[m]["value"] > 0]
    assert not silent, f"{name}: spans never fired: {silent}"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_unaccounted_under_ten_percent(traced, name):
    assert traced[1][name]["metrics"]["unaccounted_frac"]["value"] < 0.10


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trace_json_loads(traced, name):
    trace = json.loads((traced[2] / f"{name}.trace.json").read_text())
    events = trace["traceEvents"]
    assert events and all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    assert (traced[2] / f"{name}.layers.txt").is_file()


def test_result_line_has_declared_per_layer_metrics(traced):
    declared = {m["name"] for m in SPEC["per_layer"]}
    for run in traced[1].values():
        assert set(run["metrics"]) == declared


def test_declared_metrics_are_recorded():
    recorded = set(tracing.recorded_metrics())
    assert {m["name"] for m in SPEC["per_layer"]} <= recorded
    for workload in WORKLOADS.values():
        assert set(workload.exercises) <= recorded


def test_untraced_line_has_end_to_end_metrics(tmp_path):
    proc = _run("--workload", "cluster", "--scale", "toy", "--seconds", "0",
                "--out", str(tmp_path / "results.json"))
    assert proc.returncode == 0, proc.stderr[-4000:]
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"]
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_wrappers_restored(tmp_path):
    import repro.simulator.engine as engine

    original = engine.run_fill
    recorder = tracing.Recorder(tmp_path)
    recorder.install()
    try:
        assert recorder.wrapped() and engine.run_fill is not original
    finally:
        recorder.uninstall()
    assert recorder.restored() and engine.run_fill is original


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "cluster", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_compare_verdicts():
    base = [1.0, 1.01, 0.99, 1.0, 1.02]
    assert compare.verdict(base, [v * 1.02 for v in base], 0.1, True) == "same"
    assert compare.verdict(base, [v * 1.3 for v in base], 0.1, True) == "worse"
    assert compare.verdict(base, [v * 0.7 for v in base], 0.1, True) == "improved"
    assert compare.verdict(base, [0.5, 1.5, 1.0, 0.6, 1.4], 0.1, True) == "unresolved"
