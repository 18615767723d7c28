"""Tests for disjoint paths, SSSP, EwSP, DOR and the widest path."""

import pytest

from repro.core import delivered, link_loads, solve_decomposed_mcf, widest_path
from repro.paths import (
    dor_route,
    dor_routes,
    dor_schedule,
    edge_disjoint_path_sets,
    edge_disjoint_paths,
    ewsp_schedule,
    sssp_routes,
    sssp_schedule,
)
from repro.topology import edge_punctured_torus, mesh, torus


class TestDisjointPaths:
    def test_hypercube_has_degree_many_disjoint_paths(self, cube3):
        paths = edge_disjoint_paths(cube3, 0, 7)
        assert len(paths) == 3
        used = set()
        for p in paths:
            for e in zip(p[:-1], p[1:]):
                assert e not in used
                used.add(e)

    def test_max_paths_cap(self, cube3):
        assert len(edge_disjoint_paths(cube3, 0, 7, max_paths=2)) == 2

    def test_greedy_prefers_short_paths(self, bipartite44):
        paths = edge_disjoint_paths(bipartite44, 0, 4)
        assert min(len(p) for p in paths) == 2      # the direct link comes first
        assert paths[0] == [0, 4]

    def test_flow_based_variant(self, cube3):
        paths = edge_disjoint_paths(cube3, 0, 7, prefer_short=False)
        assert len(paths) == 3

    def test_ring_single_path(self, ring5):
        assert edge_disjoint_paths(ring5, 0, 3) == [[0, 1, 2, 3]]

    def test_path_sets_all_commodities(self, cube3):
        sets = edge_disjoint_path_sets(cube3)
        assert len(sets) == 56
        for (s, d), paths in sets.items():
            assert all(p[0] == s and p[-1] == d for p in paths)

    def test_same_source_destination_rejected(self, cube3):
        with pytest.raises(ValueError):
            edge_disjoint_paths(cube3, 2, 2)


class TestSSSP:
    def test_routes_cover_all_commodities(self, cube3):
        routes = sssp_routes(cube3)
        assert len(routes) == 56
        for (s, d), p in routes.items():
            assert p[0] == s and p[-1] == d

    def test_congestion_awareness_spreads_load(self, bipartite44):
        schedule = sssp_schedule(bipartite44)
        naive_max = link_loads(schedule.edge_flows()).max()
        # SSSP must do no worse than 2x the optimal max load on K4,4 (optimal 2.5).
        assert naive_max <= 2 * 2.5 + 1e-9

    def test_sssp_at_most_moderately_worse_than_mcf(self, genkautz_4_16):
        optimal_time = 1.0 / solve_decomposed_mcf(genkautz_4_16).concurrent_flow
        sssp_time = sssp_schedule(genkautz_4_16).all_to_all_time()
        assert optimal_time <= sssp_time <= 2.5 * optimal_time

    def test_order_seed_changes_routes(self, cube3):
        a = sssp_routes(cube3, order_seed=None)
        b = sssp_routes(cube3, order_seed=99)
        assert a != b or a == b  # both valid; just ensure no exception and same keys
        assert set(a) == set(b)

    def test_deterministic_without_seed(self, cube3):
        assert sssp_routes(cube3) == sssp_routes(cube3)


class TestEwSP:
    def test_ewsp_weights_sum_to_one(self, cube3):
        schedule = ewsp_schedule(cube3)
        assert delivered(schedule.edge_flows()) == pytest.approx(1.0, abs=1e-9)

    def test_ewsp_optimal_on_symmetric_topologies(self, cube3):
        # On the hypercube, equal splitting over shortest paths is optimal.
        schedule = ewsp_schedule(cube3)
        assert schedule.all_to_all_time() == pytest.approx(4.0, rel=1e-6)

    def test_ewsp_suboptimal_on_expander(self, genkautz_4_16):
        optimal_time = 1.0 / solve_decomposed_mcf(genkautz_4_16).concurrent_flow
        ewsp_time = ewsp_schedule(genkautz_4_16).all_to_all_time()
        assert ewsp_time > optimal_time * 1.05   # strictly worse (Fig. 8 behaviour)

    def test_limit_per_pair(self, cube3):
        schedule = ewsp_schedule(cube3, limit_per_pair=1)
        for plist in schedule.paths.values():
            assert len(plist) == 1


class TestDOR:
    def test_dor_route_dimension_order(self):
        topo = torus([3, 3])
        route = dor_route(topo, 0, 4)      # (0,0) -> (1,1): fix x then y
        assert route == [0, 3, 4]

    def test_dor_wraps_around_shorter_side(self):
        topo = torus([4, 4])
        route = dor_route(topo, 0, 12)     # (0,0) -> (3,0): wrap -1 in x
        assert route == [0, 12]

    def test_dor_on_mesh_no_wrap(self):
        topo = mesh([3, 3])
        route = dor_route(topo, 0, 8)
        assert route == [0, 3, 6, 7, 8]

    def test_dor_routes_complete(self, torus33):
        routes = dor_routes(torus33)
        assert len(routes) == 9 * 8

    def test_dor_optimal_on_torus(self, torus33):
        optimal_time = 1.0 / solve_decomposed_mcf(torus33).concurrent_flow
        assert dor_schedule(torus33).all_to_all_time() == pytest.approx(optimal_time, rel=1e-6)

    def test_dor_rejects_non_torus(self, cube3):
        with pytest.raises(ValueError):
            dor_route(cube3, 0, 1)

    def test_dor_rejects_punctured_torus(self):
        topo = edge_punctured_torus([3, 3], num_removed=2, seed=0)
        with pytest.raises(ValueError):
            dor_routes(topo)


class TestWidestPath:
    def test_picks_max_bottleneck(self):
        caps = {(0, 1): 5.0, (1, 3): 5.0, (0, 2): 10.0, (2, 3): 2.0}
        assert widest_path(caps, 0, 3) == [0, 1, 3]

    def test_no_path_returns_none(self):
        assert widest_path({(0, 1): 1.0}, 1, 0) is None

    def test_in_topology(self, cube3):
        path = widest_path(cube3.capacities(), 0, 7)
        assert path[0] == 0 and path[-1] == 7
        assert all(cube3.has_edge(u, v) for u, v in zip(path, path[1:]))
