#!/usr/bin/env python
"""Multi-job cluster co-simulation: slowdown under increasing offered load.

Four jobs share one synthesized MCF-extP schedule on a 3-cube.  Each job
runs barrier-separated (compute, all-to-all) rounds; arrivals follow a
seeded Poisson process and every live comm phase's flows max-min fair share
the fabric with everyone else's (see docs/cluster.md for the job model,
the trace-spec grammar and the metric definitions).

At a low arrival rate the jobs barely overlap and per-job slowdown stays
~1.0; as the rate grows the fabric saturates, slowdown climbs and the
time-weighted fabric utilization approaches 1.

The same study from the command line::

    python -m repro.cli cluster hypercube:dim=3 \
        --trace 'cluster:jobs=4:arrival=poisson~500:placement=packed:seed=0' \
        --trace 'cluster:jobs=4:arrival=poisson~8000:placement=packed:seed=0'

Run:  python examples/cluster_trace.py
"""

from repro.analysis import format_table
from repro.experiments import Scenario, run_sweep, sweep_stats

RATES = (500, 2000, 8000)


def main() -> None:
    scenarios = [
        Scenario(topology="hypercube:dim=3", scheme="mcf-extp",
                 max_denominator=16, buffers=(float(2 ** 20),),
                 cluster=f"cluster:jobs=4:arrival=poisson~{rate}"
                         ":placement=packed:seed=0",
                 name=f"poisson-{rate}")
        for rate in RATES
    ]
    results = run_sweep(scenarios)

    rows = []
    for rate, res in zip(RATES, results):
        m = res.metrics
        rows.append([
            rate,
            m["cluster_jobs"],
            f"{m['makespan_seconds'] * 1e3:.3f}",
            f"{m['job_slowdown_p50']:.2f}",
            f"{m['job_slowdown_p99']:.2f}",
            f"{m['fabric_utilization']:.3f}",
        ])
    print(format_table(
        ["arrivals/s", "jobs", "makespan (ms)", "slowdown p50",
         "slowdown p99", "utilization"],
        rows, title="4 Poisson jobs, packed, MCF-extP on hypercube:dim=3"))

    totals = sweep_stats(results)
    print(f"\nstage cache: {totals['stage_hits']} hits / "
          f"{totals['stage_misses']} misses "
          f"(one synthesize shared by all {len(results)} traces)")


if __name__ == "__main__":
    main()
