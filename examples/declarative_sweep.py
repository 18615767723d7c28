#!/usr/bin/env python
"""Declarative experiment sweep: grid spec -> streaming JSONL -> summary table.

Comparing schemes across topologies is data, not a hand-rolled loop: a
grid spec (here ``examples/sweep_grid.json``) expands into scenarios, each
scenario runs the staged synthesize -> lower -> validate -> simulate
pipeline, and one JSONL record streams out per completed scenario, so a
killed sweep is resumable (``resume=True`` skips every scenario whose
content hash already has a record).

The same sweep is available from the command line::

    python -m repro.cli sweep --grid examples/sweep_grid.json \
        --out results.jsonl --jobs 2 --resume

Run:  python examples/declarative_sweep.py
"""

import os
import tempfile

from repro import obs
from repro.analysis import format_table
from repro.experiments import SweepGrid, load_results, run_sweep, sweep_stats

GRID_FILE = os.path.join(os.path.dirname(__file__), "sweep_grid.json")


def main() -> None:
    grid = SweepGrid.from_file(GRID_FILE)
    scenarios = grid.scenarios()
    print(f"grid: {len(grid)} scenarios "
          f"({' x '.join(f'{k}={len(v)}' for k, v in grid.axes.items())})")

    out = os.path.join(tempfile.mkdtemp(prefix="repro-sweep-"), "results.jsonl")
    results = run_sweep(scenarios, out_path=out, workers=2)

    rows = []
    for res in results:
        tps = res.metrics.get("throughput_bytes_per_s", {})
        rows.append([
            res.scenario.label(),
            round(res.metrics["concurrent_flow"], 4),
            round(res.metrics["all_to_all_time"], 3),
            " ".join(f"{tp / 1e9:.2f}" for tp in tps.values()),
        ])
    print(format_table(["scenario", "F", "all-to-all time", "throughput GB/s"],
                       rows, title="Declarative sweep (Fig. 8 style)"))
    print(f"{len(load_results(out))} JSONL records streamed to {out}")

    # Re-running the same grid is free: every scenario resumes from its
    # JSONL record, and even without the file the stage/LP caches serve it.
    rerun, delta = obs.counted(
        lambda: run_sweep(scenarios, out_path=out, workers=2, resume=True))
    stats = sweep_stats(rerun)
    print(f"re-run: {stats['resumed']} of {stats['scenarios']} scenarios resumed "
          f"from JSONL, {delta.get('lp-cache.misses', 0)} new LP solves")


if __name__ == "__main__":
    main()
