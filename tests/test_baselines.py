"""Tests for the baseline schemes: ILP, FPTAS, native, TACCL/SCCL surrogates."""

import numpy as np
import pytest

from repro.baselines import (
    SynthesisTimeout,
    direct_pairwise_link_schedule,
    fptas_max_concurrent_flow,
    ilp_disjoint_schedule,
    ilp_shortest_schedule,
    native_alltoall_schedule,
    sccl_like_schedule,
    solve_ilp_path_selection,
    taccl_like_schedule,
)
from repro.core import link_loads, solve_decomposed_mcf
from repro.paths import edge_disjoint_path_sets
from repro.schedule import validate_link_schedule
from repro.topology import bidirectional_ring, complete, hypercube, ring


class TestILP:
    def test_ilp_disjoint_optimal_on_hypercube(self, cube3):
        schedule = ilp_disjoint_schedule(cube3)
        # Single-path min-max-load on the 3-cube achieves load 4 (= 1/F).
        assert schedule.meta["max_load"] == pytest.approx(4.0, abs=1e-6)
        assert schedule.all_to_all_time() == pytest.approx(4.0, rel=1e-6)

    def test_ilp_single_path_per_commodity(self, cube3):
        schedule = ilp_disjoint_schedule(cube3)
        for c in cube3.commodities():
            assert len(schedule.paths[c]) == 1
            assert schedule.paths[c][0].weight == pytest.approx(1.0)

    def test_ilp_not_bandwidth_optimal_on_bipartite(self, bipartite44):
        # §5.2: single-path ILP cannot reach the MCF optimum on K4,4.
        optimal_time = 1.0 / solve_decomposed_mcf(bipartite44).concurrent_flow
        ilp_time = ilp_disjoint_schedule(bipartite44).all_to_all_time()
        assert ilp_time > optimal_time + 1e-6

    def test_ilp_shortest_variant(self, cube3):
        schedule = ilp_shortest_schedule(cube3)
        assert schedule.meta["method"] == "ilp-shortest"
        assert schedule.all_to_all_time() <= 6.0

    def test_ilp_with_gap_tolerance(self, torus33):
        schedule = ilp_disjoint_schedule(torus33, mip_rel_gap=0.1, time_limit=60)
        optimal_time = 1.0 / solve_decomposed_mcf(torus33).concurrent_flow
        assert schedule.all_to_all_time() <= 1.25 * optimal_time

    def test_missing_candidate_rejected(self, complete4):
        path_sets = edge_disjoint_path_sets(complete4)
        del path_sets[(1, 2)]
        with pytest.raises(ValueError):
            solve_ilp_path_selection(complete4, path_sets)


class TestFPTAS:
    def test_ring_converges_to_optimum(self):
        topo = ring(6)
        sol = fptas_max_concurrent_flow(topo, epsilon=0.05)
        assert sol.concurrent_flow == pytest.approx(1.0 / 15.0, rel=0.05)
        assert sol.concurrent_flow <= 1.0 / 15.0 + 1e-9

    def test_hypercube_within_epsilon(self, cube3):
        sol = fptas_max_concurrent_flow(cube3, epsilon=0.05)
        assert 0.25 * 0.85 <= sol.concurrent_flow <= 0.25 + 1e-9

    def test_feasibility_of_returned_flow(self, cube3):
        sol = fptas_max_concurrent_flow(cube3, epsilon=0.1)
        caps = np.array([cube3.capacities()[e] for e in cube3.edges])
        assert (link_loads(sol.edge_flows())[0] <= caps + 1e-6).all()

    def test_smaller_epsilon_takes_more_phases(self, cube3):
        coarse = fptas_max_concurrent_flow(cube3, epsilon=0.3)
        fine = fptas_max_concurrent_flow(cube3, epsilon=0.05)
        assert fine.meta["phases"] > coarse.meta["phases"]
        assert fine.concurrent_flow >= coarse.concurrent_flow - 1e-9

    def test_invalid_epsilon(self, cube3):
        with pytest.raises(ValueError):
            fptas_max_concurrent_flow(cube3, epsilon=0.0)
        with pytest.raises(ValueError):
            fptas_max_concurrent_flow(cube3, epsilon=1.5)


class TestNativeBaseline:
    def test_native_schedule_single_shortest_path(self, bipartite44):
        schedule = native_alltoall_schedule(bipartite44)
        for c in bipartite44.commodities():
            assert len(schedule.paths[c]) == 1
        # Strictly worse than the MCF optimum on K4,4 (Fig. 4 left, up to 2.3x).
        optimal_time = 1.0 / solve_decomposed_mcf(bipartite44).concurrent_flow
        assert schedule.all_to_all_time() >= 1.5 * optimal_time

    def test_direct_pairwise_link_schedule_valid(self, cube3):
        schedule = direct_pairwise_link_schedule(cube3)
        validate_link_schedule(schedule)
        assert schedule.num_steps == cube3.diameter()


class TestTACCLSurrogate:
    def test_valid_schedule_on_hypercube(self, cube3):
        schedule = taccl_like_schedule(cube3)
        validate_link_schedule(schedule)
        assert schedule.meta["method"] == "taccl-like"

    def test_underperforms_tsmcf(self, cube3, cube3_tsmcf):
        # Fig. 3: TACCL trails tsMCF; the whole-chunk surrogate needs more
        # step-time than the fractional optimum (4.0 on the 3-cube).
        schedule = taccl_like_schedule(cube3)
        assert schedule.num_steps >= cube3_tsmcf.total_utilization + 1 - 1e-9

    def test_works_on_expander(self, genkautz_3_10):
        schedule = taccl_like_schedule(genkautz_3_10)
        validate_link_schedule(schedule)

    def test_chunked_variant(self, cube3):
        schedule = taccl_like_schedule(cube3, chunks_per_shard=2)
        validate_link_schedule(schedule)
        assert schedule.meta["chunks_per_shard"] == 2

    def test_time_budget_respected(self, genkautz_4_16):
        import time

        t0 = time.perf_counter()
        schedule = taccl_like_schedule(genkautz_4_16, num_sketches=64, time_budget=0.5)
        elapsed = time.perf_counter() - t0
        validate_link_schedule(schedule)
        assert elapsed < 5.0

    def test_invalid_chunks(self, cube3):
        with pytest.raises(ValueError):
            taccl_like_schedule(cube3, chunks_per_shard=0)


class TestSCCLSurrogate:
    def test_complete_graph_one_step(self):
        schedule = sccl_like_schedule(complete(4), time_budget=5.0)
        validate_link_schedule(schedule)
        assert schedule.num_steps == 1

    def test_small_ring_two_steps(self):
        schedule = sccl_like_schedule(bidirectional_ring(4), time_budget=5.0)
        validate_link_schedule(schedule)
        assert schedule.num_steps == 2

    def test_times_out_beyond_tiny_scale(self):
        # The defining behaviour from Fig. 7: exhaustive synthesis does not scale.
        with pytest.raises(SynthesisTimeout):
            sccl_like_schedule(hypercube(3), time_budget=0.5)
