"""End-to-end integration tests: topology -> schedule -> XML -> simulator -> throughput.

Each test walks one of the paper's full tool-chains (Fig. 1 + §4) and checks
the qualitative result the evaluation section reports.
"""

import pytest

from repro.analysis import normalize_times
from repro.baselines import native_alltoall_schedule, taccl_like_schedule
from repro.core import (
    ForwardingModel,
    generate_schedule,
    solve_decomposed_mcf,
    solve_mcf_extract_paths,
    solve_path_mcf,
)
from repro.paths import edge_disjoint_path_sets, ewsp_schedule, sssp_schedule
from repro.routing import lash_sequential_assign, verify_layers
from repro.schedule import (
    chunk_path_schedule,
    chunk_timestepped_flow,
    compile_to_msccl_xml,
    compile_to_ompi_xml,
    execute_link_xml,
    execute_routed_xml,
)
from repro.simulator import (
    a100_ml_fabric,
    cerio_hpc_fabric,
    steady_state_throughput,
    throughput_sweep,
)
from repro.topology import edge_punctured_torus


class TestLinkPipeline:
    """ML-fabric pipeline: tsMCF -> chunking -> MSCCL XML -> interpreter -> throughput."""

    def test_full_toolchain_hypercube(self, cube3, cube3_tsmcf):
        schedule = chunk_timestepped_flow(cube3_tsmcf)
        xml = compile_to_msccl_xml(schedule)
        fabric = a100_ml_fabric()
        result = execute_link_xml(xml, cube3, buffer_bytes=2 ** 28, fabric=fabric)
        bound = steady_state_throughput(8, 0.25, fabric)
        assert 0.9 * bound <= result.throughput <= bound

    def test_tsmcf_beats_taccl_surrogate_at_large_buffers(self, cube3, cube3_link_schedule):
        """Fig. 3 shape: tsMCF >= TACCL with a visible gap."""
        fabric = a100_ml_fabric()
        buf = 2 ** 28
        taccl = taccl_like_schedule(cube3)
        mcf_tp = throughput_sweep(cube3_link_schedule, [buf], fabric=fabric)[0].throughput
        taccl_tp = throughput_sweep(taccl, [buf], fabric=fabric)[0].throughput
        assert mcf_tp >= 1.1 * taccl_tp

    def test_throughput_rises_with_buffer_size(self, cube3_link_schedule):
        """Fig. 3 x-axis behaviour: latency-bound at small buffers, saturating at large."""
        fabric = a100_ml_fabric()
        sweep = throughput_sweep(cube3_link_schedule, [2 ** 13, 2 ** 18, 2 ** 23, 2 ** 28],
                                 fabric=fabric)
        tps = [r.throughput for r in sweep]
        assert tps[0] < 0.5 * tps[-1]
        assert tps == sorted(tps)


class TestPathPipeline:
    """HPC-fabric pipeline: MCF-extP -> LASH -> OMPI XML -> interpreter -> throughput."""

    def test_full_toolchain_genkautz(self, genkautz_3_10, genkautz_extp):
        routes = [tuple(p.nodes) for plist in genkautz_extp.paths.values() for p in plist]
        layers = lash_sequential_assign(routes)
        assert verify_layers(layers)
        assert layers.num_layers <= 4
        routed = chunk_path_schedule(genkautz_extp, layers=layers.layer_of)
        xml = compile_to_ompi_xml(routed)
        fabric = cerio_hpc_fabric()
        result = execute_routed_xml(xml, genkautz_3_10, buffer_bytes=2 ** 28, fabric=fabric)
        bound = steady_state_throughput(10, genkautz_extp.concurrent_flow, fabric)
        assert result.throughput >= 0.85 * bound

    def test_mcf_extp_beats_native_on_bipartite(self, bipartite44):
        """Fig. 4 left: MCF-extP outperforms the native single-path all-to-all."""
        fabric = cerio_hpc_fabric()
        buf = 2 ** 28
        mcf = chunk_path_schedule(solve_mcf_extract_paths(bipartite44))
        native = chunk_path_schedule(native_alltoall_schedule(bipartite44))
        mcf_tp = throughput_sweep(mcf, [buf], fabric=fabric)[0].throughput
        native_tp = throughput_sweep(native, [buf], fabric=fabric)[0].throughput
        assert mcf_tp >= 1.5 * native_tp

    def test_mcf_extp_beats_sssp_on_punctured_torus(self):
        """Fig. 5 shape: MCF handles failures better than SSSP."""
        topo = edge_punctured_torus([3, 3], num_removed=2, seed=3)
        mcf_time = solve_mcf_extract_paths(topo).all_to_all_time()
        sssp_time = sssp_schedule(topo).all_to_all_time()
        assert mcf_time <= sssp_time + 1e-9

    def test_normalized_ordering_on_genkautz(self, genkautz_4_16):
        """Fig. 8 ordering: MCF <= pMCF-disjoint <= EwSP/SSSP at d=4."""
        optimal = 1.0 / solve_decomposed_mcf(genkautz_4_16).concurrent_flow
        times = {
            "pmcf-disjoint": solve_path_mcf(
                genkautz_4_16, edge_disjoint_path_sets(genkautz_4_16)).all_to_all_time(),
            "ewsp": ewsp_schedule(genkautz_4_16).all_to_all_time(),
            "sssp": sssp_schedule(genkautz_4_16).all_to_all_time(),
        }
        normalized = normalize_times(times, optimal)
        assert normalized["pmcf-disjoint"] <= normalized["ewsp"] + 1e-9
        assert normalized["pmcf-disjoint"] <= 1.2
        assert normalized["ewsp"] > 1.05
        assert normalized["sssp"] > 1.05


class TestPipelineAPI:
    def test_generate_schedule_host_vs_nic_consistency(self, bipartite44):
        host = generate_schedule(bipartite44, forwarding=ForwardingModel.HOST)
        nic = generate_schedule(bipartite44, forwarding=ForwardingModel.NIC)
        # Same topology, no extra forwarding bandwidth -> same asymptotic rate.
        assert host.equivalent_concurrent_flow() == pytest.approx(
            nic.concurrent_flow, rel=0.05)

    def test_bottlenecked_host_schedule_loses_throughput(self, torus33):
        """§5.2: host-injection bottleneck reduces the achievable flow value."""
        free = generate_schedule(torus33, forwarding=ForwardingModel.HOST)
        capped = generate_schedule(torus33, forwarding=ForwardingModel.HOST,
                                   host_bandwidth=2.0)
        assert capped.equivalent_concurrent_flow() < free.equivalent_concurrent_flow()
