"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures: it runs the
relevant schedule generators and the simulator, prints the figure's series as
a text table, and appends the same table to ``benchmarks/results/<figure>.txt``
so the output survives pytest's output capture.

Scale control
-------------
The paper's largest experiments (27-node torus hardware runs, 1000-node
synthesis sweeps) are scaled to laptop/CI sizes by default.  Set
``REPRO_BENCH_SCALE=paper`` to run closer to the paper's sizes (minutes to
hours), ``REPRO_BENCH_SCALE=small`` (default) for the quick configuration.
The tables written to ``benchmarks/results/`` come from whichever scale ran.

Performance record
------------------
The figure benchmarks here print timings but gate none.  The one
performance record is the end-to-end benchmark in ``benchmarks/e2e/``
(see "Where time goes" in its README).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale() -> str:
    """Current benchmark scale: 'small' (default) or 'paper'."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
    if scale not in ("small", "paper"):
        raise ValueError(f"REPRO_BENCH_SCALE must be 'small' or 'paper', got {scale!r}")
    return scale


@pytest.fixture(scope="session")
def scale() -> str:
    return bench_scale()


@pytest.fixture(scope="session")
def runner():
    """Serial map over independent benchmark work items, in input order."""
    return map


@pytest.fixture(scope="session", autouse=True)
def _engine_cache_off():
    """Disable the engine's solution cache and the experiment layer's stage
    cache for the whole benchmark session.

    The figures regenerated here (Fig. 7 runtime scaling, the parallelism
    ablation) time LP solves; serving a repeated (topology, formulation) from
    the cache — or a whole synthesize stage from the plan's artifact cache —
    would report dict-lookup times as solve times and corrupt the comparison.
    Correctness tests keep the caches on; benchmarks measure.
    """
    from repro.engine import get_engine
    from repro.experiments import get_plan_cache

    engine = get_engine()
    plan_cache = get_plan_cache()
    prev = engine.cache.enabled
    prev_plan = plan_cache.enabled
    engine.cache.enabled = False
    plan_cache.enabled = False
    yield
    engine.cache.enabled = prev
    plan_cache.enabled = prev_plan


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def record(results_dir):
    """Print a table and append it to the per-figure results file."""

    def _record(figure: str, text: str) -> None:
        print(f"\n{text}\n")
        path = results_dir / f"{figure}.txt"
        with path.open("a") as fh:
            fh.write(text + "\n\n")

    # Start each session with clean files: remove stale results once.
    for old in results_dir.glob("*.txt"):
        old.unlink()
    return _record


@pytest.fixture
def bench_timer(benchmark):
    """One-shot timing hook for :func:`repro.report.specs.run_panel`.

    Wraps a callable in a single ``benchmark.pedantic`` round — the timing
    discipline every spec-wrapping benchmark (Fig. 3/4, Table 1) shares.
    """
    return lambda fn: benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture(scope="session")
def buffer_sweep(scale):
    """Buffer-size sweep (total per-node bytes), the x-axis of Fig. 3/4/5."""
    if scale == "paper":
        return [2 ** k for k in range(13, 29, 3)]
    return [2 ** 15, 2 ** 19, 2 ** 23, 2 ** 27]
