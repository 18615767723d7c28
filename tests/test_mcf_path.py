"""Tests for the path-based MCF (pMCF, §3.1.4) and PathSchedule."""

import numpy as np
import pytest

from repro.core import (
    delivered,
    link_loads,
    path_schedule_from_single_paths,
    solve_decomposed_mcf,
    solve_path_mcf,
)
from repro.paths import bounded_length_path_sets, edge_disjoint_path_sets, first_shortest_path_sets


class TestPMCFOptimality:
    def test_matches_link_mcf_with_all_bounded_paths(self, cube3):
        # With a rich enough path set, pMCF reaches the link-MCF optimum
        # (it is the LP dual restricted to the supplied paths).
        path_sets = bounded_length_path_sets(cube3, max_length=4)
        schedule = solve_path_mcf(cube3, path_sets)
        assert schedule.concurrent_flow == pytest.approx(0.25, rel=1e-4)

    def test_disjoint_paths_near_optimal_on_hypercube(self, cube3):
        path_sets = edge_disjoint_path_sets(cube3)
        schedule = solve_path_mcf(cube3, path_sets)
        assert schedule.concurrent_flow >= 0.25 * 0.95

    def test_disjoint_paths_near_optimal_on_genkautz(self, genkautz_3_10):
        optimal = solve_decomposed_mcf(genkautz_3_10).concurrent_flow
        schedule = solve_path_mcf(genkautz_3_10, edge_disjoint_path_sets(genkautz_3_10))
        assert schedule.concurrent_flow >= 0.9 * optimal

    def test_shortest_paths_suboptimal_on_bipartite(self, bipartite44):
        # Same-side pairs in K4,4 have many 2-hop shortest paths, so shortest-path
        # pMCF is fine here; but restricting to a single shortest path per pair
        # (the native baseline) must be strictly worse than optimum.
        optimal = solve_decomposed_mcf(bipartite44).concurrent_flow
        single = path_schedule_from_single_paths(
            bipartite44, first_shortest_path_sets(bipartite44))
        assert single.concurrent_flow < optimal - 1e-6

    def test_ring_single_path_equals_optimum(self, ring5):
        # The unidirectional ring has exactly one path per pair, so every
        # formulation coincides.
        path_sets = {c: [p] for c, p in first_shortest_path_sets(ring5).items()}
        schedule = solve_path_mcf(ring5, path_sets)
        assert schedule.concurrent_flow == pytest.approx(0.1, rel=1e-5)


class TestPMCFValidation:
    def test_missing_commodity_rejected(self, complete4):
        path_sets = edge_disjoint_path_sets(complete4)
        del path_sets[(0, 1)]
        with pytest.raises(ValueError, match="no candidate paths"):
            solve_path_mcf(complete4, path_sets)

    def test_wrong_endpoints_rejected(self, complete4):
        path_sets = edge_disjoint_path_sets(complete4)
        path_sets[(0, 1)] = [[0, 2]]
        with pytest.raises(ValueError, match="does not connect"):
            solve_path_mcf(complete4, path_sets)

    def test_path_with_missing_edge_rejected(self, cube3):
        path_sets = edge_disjoint_path_sets(cube3)
        path_sets[(0, 7)] = [[0, 7]]      # 0-7 is not an edge of the 3-cube
        with pytest.raises(ValueError, match="non-existent edge"):
            solve_path_mcf(cube3, path_sets)


class TestPathScheduleObject:
    def test_link_loads_respect_capacity(self, cube3):
        schedule = solve_path_mcf(cube3, edge_disjoint_path_sets(cube3))
        caps = np.array([cube3.capacities()[e] for e in cube3.edges])
        assert (link_loads(schedule.edge_flows())[0] <= caps + 1e-6).all()

    def test_all_to_all_time_is_inverse_flow(self, cube3):
        schedule = solve_path_mcf(cube3, edge_disjoint_path_sets(cube3))
        assert schedule.all_to_all_time() == pytest.approx(
            1.0 / schedule.concurrent_flow, rel=1e-3)

    def test_normalized_delivers_one_per_commodity(self, genkautz_extp):
        norm = genkautz_extp.normalized()
        assert delivered(norm.edge_flows()) == pytest.approx(1.0, abs=1e-9)

    def test_edge_flows_deliver_the_path_weights(self, genkautz_extp):
        flows = genkautz_extp.edge_flows()
        assert flows.commodities == list(genkautz_extp.topology.commodities())
        got = delivered(flows)
        for (s, d), plist in genkautz_extp.paths.items():
            assert got[flows.commodities.index((s, d))] == pytest.approx(
                sum(p.weight for p in plist), abs=1e-9)
        hops = sum(len(p) * p.weight for plist in genkautz_extp.paths.values()
                   for p in plist)
        assert link_loads(flows).sum() == pytest.approx(hops, rel=1e-12)

    def test_single_path_wrapper_load_derivation(self, complete4):
        routes = first_shortest_path_sets(complete4)
        schedule = path_schedule_from_single_paths(complete4, routes)
        # Complete graph: every commodity on its direct link -> max load 1, F = 1.
        assert schedule.concurrent_flow == pytest.approx(1.0)
        assert schedule.all_to_all_time() == pytest.approx(1.0)

    def test_single_path_wrapper_missing_commodity(self, complete4):
        routes = first_shortest_path_sets(complete4)
        del routes[(0, 1)]
        with pytest.raises(ValueError, match="missing path"):
            path_schedule_from_single_paths(complete4, routes)

    def test_single_path_wrapper_rejects_non_existent_edge(self, cube3):
        # Direct routes on the 3-cube used to give F = 1 by skipping the
        # missing links; shortest paths give F = 1/9.
        direct = {(s, d): [s, d] for s, d in cube3.commodities()}
        with pytest.raises(ValueError, match="non-existent edge"):
            path_schedule_from_single_paths(cube3, direct)

    def test_single_path_wrapper_rejects_wrong_endpoints(self, cube3):
        routes = first_shortest_path_sets(cube3)
        routes[(0, 1)] = [0, 2]
        with pytest.raises(ValueError, match="does not connect"):
            path_schedule_from_single_paths(cube3, routes)
