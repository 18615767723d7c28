"""Tests for the link-based MCF formulation (§3.1.1)."""

import pytest

from repro.core import solve_link_mcf
from repro.core.flow import conservation_violation, delivered, link_loads
from repro.topology import Topology, ring
from repro.topology.properties import all_to_all_upper_bound_from_distance


class TestOptimalValues:
    """Closed-form optima on analytically tractable topologies."""

    def test_unidirectional_ring(self, ring5):
        # Sum of distances per source = N(N-1)/2 = 10; one outgoing link -> F = 1/10.
        assert solve_link_mcf(ring5).concurrent_flow == pytest.approx(0.1, rel=1e-6)

    def test_complete_graph(self, complete4):
        assert solve_link_mcf(complete4).concurrent_flow == pytest.approx(1.0, rel=1e-6)

    def test_hypercube(self, cube3):
        # d / sum-of-distances = 3 / 12 = 1/4 and the hypercube achieves it.
        assert solve_link_mcf(cube3).concurrent_flow == pytest.approx(0.25, rel=1e-6)

    def test_complete_bipartite(self, bipartite44):
        # Distances: 4 neighbours at 1, 3 same-side nodes at 2 -> bound 4/10.
        assert solve_link_mcf(bipartite44).concurrent_flow == pytest.approx(0.4, rel=1e-6)

    def test_capacity_scaling(self):
        base = solve_link_mcf(ring(4)).concurrent_flow
        scaled = solve_link_mcf(ring(4, cap=2.0)).concurrent_flow
        assert scaled == pytest.approx(2 * base, rel=1e-6)

    def test_never_exceeds_distance_bound(self, genkautz_3_10):
        sol = solve_link_mcf(genkautz_3_10)
        assert sol.concurrent_flow <= all_to_all_upper_bound_from_distance(genkautz_3_10) + 1e-9


class TestSolutionStructure:
    def test_capacity_respected(self, cube3_link_mcf):
        # Unit capacities: the busiest link's load is its utilization.
        assert link_loads(cube3_link_mcf.edge_flows()).max() <= 1.0 + 1e-6

    def test_every_commodity_delivers_f(self, cube3_link_mcf):
        f = cube3_link_mcf.concurrent_flow
        assert delivered(cube3_link_mcf.edge_flows()).min() >= f - 1e-6

    def test_conservation_after_repair(self, cube3_link_mcf):
        for (s, d), per in cube3_link_mcf.flows.items():
            assert conservation_violation(per, s, d) < 1e-7

    def test_unrepaired_solution_still_optimal(self, cube3):
        raw = solve_link_mcf(cube3, repair=False)
        assert raw.concurrent_flow == pytest.approx(0.25, rel=1e-6)
        assert raw.meta["method"] == "mcf-link"
        assert raw.meta["num_variables"] > 0

    def test_flows_only_on_existing_edges(self, cube3_link_mcf):
        topo = cube3_link_mcf.topology
        for per in cube3_link_mcf.flows.values():
            for (u, v) in per:
                assert topo.has_edge(u, v)

    def test_destination_never_reemits_own_commodity(self, cube3_link_mcf):
        for (s, d), per in cube3_link_mcf.flows.items():
            for (u, v), val in per.items():
                assert not (u == d and val > 1e-9)


class TestCustomDemand:
    def test_skewed_demand_reduces_f(self, complete4):
        uniform = solve_link_mcf(complete4).concurrent_flow
        demand = {c: 1.0 for c in complete4.commodities()}
        demand[(0, 1)] = 3.0     # one commodity needs 3x the bandwidth
        skewed = solve_link_mcf(complete4, demand=demand).concurrent_flow
        assert skewed < uniform
        # Node 0 must egress 3F + F + F = 5F over 3 unit links -> F = 3/5.
        assert skewed == pytest.approx(0.6, rel=1e-5)

    def test_zero_demand_commodity_is_free(self, complete4):
        demand = {c: 1.0 for c in complete4.commodities()}
        demand[(0, 1)] = 0.0
        sol = solve_link_mcf(complete4, demand=demand)
        assert sol.concurrent_flow >= 1.0 - 1e-6


class TestErrors:
    def test_disconnected_topology_rejected(self):
        topo = Topology.from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        with pytest.raises(ValueError, match="strongly connected"):
            solve_link_mcf(topo)
