#!/usr/bin/env python
"""Multiprocess sweep: a process pool over scenarios that share schedules.

Every parallel sweep runs on worker *processes* (``run_sweep(workers=N)``,
CLI ``--jobs N``): LP assembly and the fluid simulator hold the GIL, so
threads would only contend.  This example runs a grid — overlap x
degradation x scheme on a hypercube, so four scenarios share each
synthesized schedule — on two workers.  A first pool pass solves each synthesize key
once and hands the schedule to the parent; a second pool, which inherits
it, runs every simulation: the per-record ``stage_cache`` shows one
synthesize miss per key and hits for the rest.

A second, warm pass over the same disk cache (as a new process with the
same ``REPRO_CACHE_DIR`` would run it) finds every scenario's entry, so the
parent serves them all and starts no pool; the example fails unless each
warm record is all cache hits with the cold pass's metrics.

The same sweep is available from the command line::

    python -m repro.cli sweep \
        --set topology=hypercube:dim=3 --set buffers=1048576 \
        --axis 'scheme=mcf-extp;ewsp' --axis 'overlap=1;2' \
        --out results.jsonl --jobs 2

Run:  python examples/parallel_sweep.py
"""

import os
import tempfile

from repro.analysis import format_table
from repro.experiments import SweepGrid, configure_plan_cache, run_sweep


def main() -> None:
    grid = SweepGrid(
        base={"topology": "hypercube:dim=3",
              "buffers": [2 ** 20], "max_denominator": 16},
        axes={"scheme": ["mcf-extp", "ewsp"],
              "overlap": ["1", "2"],
              # healthy fabric vs one link degraded to half bandwidth
              "fabric": ["hpc", "hpc:scale=0~1:0.5"]},
    )
    scenarios = grid.scenarios()
    keys = {scenario.stage_key("synthesize") for scenario in scenarios}
    print(f"grid: {len(grid)} scenarios "
          f"({' x '.join(f'{k}={len(v)}' for k, v in grid.axes.items())}), "
          f"{len(keys)} synthesize keys")

    work = tempfile.mkdtemp(prefix="repro-psweep-")
    configure_plan_cache(cache_dir=os.path.join(work, "stages"))
    out = os.path.join(work, "results.jsonl")
    results = run_sweep(scenarios, out_path=out, workers=2)

    rows = []
    for res in results:
        flow = res.metrics.get("concurrent_flow")
        rows.append([
            res.scenario.label(),
            res.status,
            "-" if flow is None else round(float(flow), 4),
            "-" if res.metrics.get("all_to_all_time") is None
            else round(float(res.metrics["all_to_all_time"]), 3),
            res.stage_cache.get("synthesize", "-"),
        ])
    print(format_table(["scenario", "status", "F", "all-to-all time", "synthesize"],
                       rows, title="Multiprocess sweep (2 workers)"))

    solved = sum(1 for res in results if res.stage_cache.get("synthesize") == "miss")
    print(f"\n{solved} schedule(s) synthesized for {len(keys)} key(s); "
          f"{len(results) - solved} scenario(s) served from the stage cache")
    if solved > len(keys):
        raise SystemExit("a synthesize key was solved more than once")
    print(f"hash-sorted JSONL at {out}")

    # A fresh cache object on the same directory: memory empty, disk warm.
    configure_plan_cache(cache_dir=os.path.join(work, "stages"))
    warm = run_sweep(scenarios, out_path=os.path.join(work, "warm.jsonl"),
                     workers=2)
    differ = [res for res, again in zip(results, warm)
              if set(again.stage_cache.values()) != {"hit"}
              or again.metrics != res.metrics]
    print(f"warm pass: {len(warm) - len(differ)} of {len(warm)} scenario(s) "
          "read from the stage cache with the cold pass's metrics")
    if differ:
        raise SystemExit("warm pass differs from the cold pass: " + ", ".join(
            res.scenario.label() for res in differ))


if __name__ == "__main__":
    main()
