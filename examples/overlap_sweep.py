#!/usr/bin/env python
"""Overlap and degraded-fabric sweep on the unified simulation engine.

Two questions the new scenario axes answer directly:

1. **Overlap** — what happens to a collective's completion time when 1, 2 or
   3 copies of it share the fabric?  (Fair sharing predicts ~k-times slower;
   unbalanced schedules degrade worse because their hot link saturates
   first.)
2. **Degraded fabric** — how much throughput survives when one physical
   link runs at half/quarter bandwidth?  The schedule is *not* re-synthesized
   (same stage-cache artifact), so this isolates the fabric effect.

Both axes are ordinary scenario fields, so the whole study is one grid: the
synthesize/lower stages run once per scheme and every overlap/fabric variant
reuses them from the stage cache.

The same sweep from the command line::

    python -m repro.cli sweep --set topology=hypercube:dim=3 \
        --set scheme=mcf-extp --set buffers=1048576 \
        --axis 'overlap=1;2;3' \
        --axis 'fabric=hpc;hpc:scale=0~1:0.5;hpc:scale=0~1:0.25'

Run:  python examples/overlap_sweep.py
"""

from repro import obs
from repro.analysis import format_table
from repro.experiments import SweepGrid, run_sweep, sweep_stats


def main() -> None:
    grid = SweepGrid(
        base={"topology": "hypercube:dim=3", "scheme": "mcf-extp",
              "max_denominator": 16, "buffers": [2 ** 20]},
        axes={"overlap": [1, 2, 3],
              "fabric": ["hpc", "hpc:scale=0~1:0.5", "hpc:scale=0~1:0.25"]},
    )
    results = run_sweep(grid.scenarios())

    rows = []
    for res in results:
        buf = str(2 ** 20)
        tp = res.metrics["throughput_bytes_per_s"][buf]
        per_copy = (res.metrics.get("overlap_completion_seconds", {})
                    .get(buf, [res.metrics["completion_seconds"][buf]]))
        rows.append([
            res.scenario.fabric,
            res.scenario.overlap,
            f"{tp / 1e9:.3f}",
            " ".join(f"{t * 1e3:.3f}" for t in per_copy),
        ])
    print(format_table(
        ["fabric", "overlap", "throughput GB/s", "per-collective (ms)"],
        rows, title="MCF-extP on hypercube:dim=3, 1 MiB buffer"))

    totals = sweep_stats(results)
    counters = obs.snapshot()
    print(f"\nstage cache: {totals['stage_hits']} hits / "
          f"{totals['stage_misses']} misses "
          f"(one synthesize for all {len(results)} scenarios); "
          f"simulator: {counters['sim.fill_rounds']} fill rounds / "
          f"{counters['sim.events']} events")


if __name__ == "__main__":
    main()
