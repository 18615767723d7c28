"""Fig. 5: performance on edge- and node-punctured tori (failure emulation).

Samples several punctured-torus instances (3 random links or 3 random nodes
removed at the paper scale; 2 at the default small scale), runs MCF-extP,
ILP-disjoint and SSSP on each, and reports the min/mean/max envelope of the
large-buffer throughput -- the same envelope Fig. 5 plots.

Expected shape: MCF-extP >= SSSP on every instance (by ~30% max link load in
the paper), and comparable to ILP-disjoint.
"""


from repro.analysis import Envelope, format_table
from repro.baselines import ilp_disjoint_schedule
from repro.core import solve_mcf_extract_paths
from repro.paths import sssp_schedule
from repro.schedule import chunk_path_schedule
from repro.simulator import cerio_hpc_fabric, throughput_sweep
from repro.topology import edge_punctured_torus, node_punctured_torus

FABRIC = cerio_hpc_fabric()
BUFFER = 2 ** 27


def _throughput(schedule):
    routed = chunk_path_schedule(schedule, max_denominator=16)
    return throughput_sweep(routed, [BUFFER], fabric=FABRIC)[0].throughput


def _run_envelopes(make_instance, num_instances, record, label, benchmark, runner):
    per_scheme = {"MCF-extP/C": [], "ILP-disjoint/C": [], "SSSP/C": []}

    def run_seed(seed):
        topo = make_instance(seed)
        return (_throughput(solve_mcf_extract_paths(topo)),
                _throughput(ilp_disjoint_schedule(topo, mip_rel_gap=0.05, time_limit=60)),
                _throughput(sssp_schedule(topo)))

    def run_all():
        for mcf, ilp, sssp in runner(run_seed, range(num_instances)):
            per_scheme["MCF-extP/C"].append(mcf)
            per_scheme["ILP-disjoint/C"].append(ilp)
            per_scheme["SSSP/C"].append(sssp)
        return per_scheme

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = []
    for scheme, values in per_scheme.items():
        env = Envelope.of(values)
        rows.append([scheme, env.minimum / 1e9, env.mean / 1e9, env.maximum / 1e9])
    record("fig5_punctured", format_table(
        ["scheme", "min GB/s", "mean GB/s", "max GB/s"], rows,
        title=f"Fig. 5 ({label}, {num_instances} instances, buffer 128MiB)"))
    return per_scheme


def test_fig5_edge_punctured_torus(benchmark, record, scale, runner):
    dims = [3, 3, 3] if scale == "paper" else [3, 3]
    removed = 3 if scale == "paper" else 2
    instances = 10 if scale == "paper" else 3
    per_scheme = _run_envelopes(
        lambda seed: edge_punctured_torus(dims, num_removed=removed, seed=seed),
        instances, record, f"edge-punctured torus {'x'.join(map(str, dims))}", benchmark,
        runner)
    for mcf, sssp in zip(per_scheme["MCF-extP/C"], per_scheme["SSSP/C"]):
        assert mcf >= sssp * 0.99


def test_fig5_node_punctured_torus(benchmark, record, scale, runner):
    dims = [3, 3, 3] if scale == "paper" else [3, 3]
    removed = 3 if scale == "paper" else 2
    instances = 10 if scale == "paper" else 3
    per_scheme = _run_envelopes(
        lambda seed: node_punctured_torus(dims, num_removed=removed, seed=seed),
        instances, record, f"node-punctured torus {'x'.join(map(str, dims))}", benchmark,
        runner)
    for mcf, sssp in zip(per_scheme["MCF-extP/C"], per_scheme["SSSP/C"]):
        assert mcf >= sssp * 0.99
