"""Fig. 8: normalized all-to-all time of path-based schemes on GenKautz (d=4).

For a sweep of network sizes, computes the all-to-all time (1 / concurrent
flow = max link load at unit demand) of each scheme normalized by the optimal
link-based MCF:

* Link-based MCF (the 1.0 reference),
* pMCF-disjoint (path MCF on link-disjoint candidate paths),
* pMCF-shortest (path MCF on all-shortest-path candidates),
* EwSP, SSSP, ILP-disjoint, ILP-shortest.

Expected shape (paper Fig. 8): pMCF-disjoint stays within a few percent of
1.0; pMCF-shortest / EwSP / SSSP drift up to ~1.3-1.7x on expanders because
they have few shortest paths; ILP variants are competitive but only at the
sizes where they still solve.
"""

import pytest

from repro.analysis import format_table, normalize_times
from repro.baselines import ilp_disjoint_schedule, ilp_shortest_schedule
from repro.core import solve_decomposed_mcf, solve_path_mcf
from repro.paths import (
    all_shortest_path_sets,
    edge_disjoint_path_sets,
    ewsp_schedule,
    sssp_schedule,
)
from repro.topology import generalized_kautz

DEGREE = 4


def test_fig8_normalized_alltoall_time(benchmark, record, scale, runner):
    sizes = [25, 50, 75, 100] if scale == "paper" else [16, 24, 32]
    ilp_limit = 50 if scale == "paper" else 24

    rows = []
    per_size = {}

    def run_size(n):
        topo = generalized_kautz(DEGREE, n)
        optimal = solve_decomposed_mcf(topo)
        reference = 1.0 / optimal.concurrent_flow
        times = {"Link-based MCF": reference}
        times["pMCF-disjoint"] = 1.0 / solve_path_mcf(
            topo, edge_disjoint_path_sets(topo)).concurrent_flow
        times["pMCF-shortest"] = 1.0 / solve_path_mcf(
            topo, all_shortest_path_sets(topo, limit_per_pair=16)).concurrent_flow
        times["EwSP"] = ewsp_schedule(topo).all_to_all_time()
        times["SSSP"] = sssp_schedule(topo).all_to_all_time()
        if n <= ilp_limit:
            times["ILP-disjoint"] = ilp_disjoint_schedule(
                topo, mip_rel_gap=0.05, time_limit=120).all_to_all_time()
            times["ILP-shortest"] = ilp_shortest_schedule(
                topo, mip_rel_gap=0.05, time_limit=120).all_to_all_time()
        return n, normalize_times(times, reference)

    def run_sweep():
        for n, normalized in runner(run_size, sizes):
            per_size[n] = normalized
            for name, value in normalized.items():
                rows.append([name, n, value])
        return per_size

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    record("fig8_genkautz_schemes", format_table(
        ["scheme", "N", "normalized all-to-all time"], rows,
        title=f"Fig. 8: GenKautz degree {DEGREE}, normalized by link-based MCF"))

    for n, normalized in per_size.items():
        assert normalized["Link-based MCF"] == pytest.approx(1.0)
        assert normalized["pMCF-disjoint"] <= 1.15
        assert normalized["SSSP"] >= 1.0 - 1e-9
        assert normalized["EwSP"] >= normalized["pMCF-disjoint"] - 1e-9
    # At the largest size the single-/equal-path schemes are clearly suboptimal.
    last = per_size[sizes[-1]]
    assert max(last["EwSP"], last["SSSP"]) > 1.1
