"""Tests for flow data structures and hygiene utilities (repro.core.flow)."""

from dataclasses import replace

import pytest

from repro.core.flow import (
    EdgeFlows,
    FlowSolution,
    WeightedPath,
    conservation_violation,
    delivered,
    flow_to_paths,
    link_loads,
    repair_conservation,
)
from repro.topology import ring, Topology


class TestWeightedPath:
    def test_edges_and_endpoints(self):
        p = WeightedPath(nodes=(0, 2, 3), weight=0.5)
        assert p.source == 0
        assert p.destination == 3
        assert p.edges == ((0, 2), (2, 3))
        assert len(p) == 2


class TestFlowToPaths:
    def test_single_path_decomposition(self):
        flow = {(0, 1): 0.5, (1, 2): 0.5}
        paths = flow_to_paths(flow, 0, 2)
        assert len(paths) == 1
        assert paths[0].nodes == (0, 1, 2)
        assert paths[0].weight == pytest.approx(0.5)

    def test_two_parallel_paths(self):
        flow = {(0, 1): 0.3, (1, 3): 0.3, (0, 2): 0.7, (2, 3): 0.7}
        paths = flow_to_paths(flow, 0, 3)
        weights = sorted(p.weight for p in paths)
        assert weights == pytest.approx([0.3, 0.7])
        assert sum(p.weight for p in paths) == pytest.approx(1.0)

    def test_widest_path_extracted_first(self):
        flow = {(0, 1): 0.9, (1, 3): 0.9, (0, 2): 0.1, (2, 3): 0.1}
        paths = flow_to_paths(flow, 0, 3)
        assert paths[0].weight == pytest.approx(0.9)

    def test_cycle_flow_ignored(self):
        # A circulation not reaching the destination must not produce paths.
        flow = {(0, 1): 1.0, (1, 2): 1.0, (1, 3): 0.5, (3, 1): 0.5}
        paths = flow_to_paths(flow, 0, 2)
        assert sum(p.weight for p in paths) == pytest.approx(1.0)
        for p in paths:
            assert p.nodes == (0, 1, 2)

    def test_no_path_returns_empty(self):
        assert flow_to_paths({(0, 1): 1.0}, 0, 5) == [] or \
               sum(p.weight for p in flow_to_paths({(0, 1): 1.0}, 0, 5)) == 0.0

    def test_conservation_of_split_and_merge(self):
        # Diamond: 0->1->3, 0->2->3 then 3->4.
        flow = {(0, 1): 0.4, (0, 2): 0.6, (1, 3): 0.4, (2, 3): 0.6, (3, 4): 1.0}
        paths = flow_to_paths(flow, 0, 4)
        assert sum(p.weight for p in paths) == pytest.approx(1.0)
        for p in paths:
            assert p.source == 0 and p.destination == 4


class TestConservationViolation:
    def test_balanced_flow_has_no_violation(self):
        flow = {(0, 1): 1.0, (1, 2): 1.0}
        assert conservation_violation(flow, 0, 2) == pytest.approx(0.0)

    def test_excess_at_intermediate_detected(self):
        flow = {(0, 1): 1.0, (1, 2): 0.25}
        assert conservation_violation(flow, 0, 2) == pytest.approx(0.75)

    def test_source_and_destination_excluded(self):
        flow = {(0, 1): 2.0, (1, 2): 2.0}
        assert conservation_violation(flow, 0, 2) == 0.0


class TestFlowSolution:
    def _make(self, topo):
        flows = {}
        for s, d in topo.commodities():
            # route everything on one shortest path: ring -> the unique path.
            path = list(range(s, d + 1)) if d > s else list(range(s, topo.num_nodes)) + list(range(0, d + 1))
            per = {}
            for u, v in zip(path[:-1], path[1:]):
                per[(u, v)] = 0.1
            flows[(s, d)] = per
        return FlowSolution(concurrent_flow=0.1, flows=flows, topology=topo)

    def test_link_loads_and_utilization(self):
        topo = ring(4)
        sol = self._make(topo)
        loads = link_loads(sol.edge_flows())
        assert loads.shape == (1, topo.num_edges)
        # Each link is used by commodities at distance covering it: 1+2+3 = 6 -> 0.6.
        assert loads == pytest.approx(0.6)

    def test_delivered_and_all_to_all_time(self):
        topo = ring(4)
        sol = self._make(topo)
        flows = sol.edge_flows()
        got = delivered(flows)
        assert got[flows.commodities.index((0, 2))] == pytest.approx(0.1)
        assert got.min() == pytest.approx(0.1)
        assert sol.all_to_all_time() == pytest.approx(10.0)

    def test_all_to_all_time_infinite_for_zero_flow(self):
        topo = ring(3)
        sol = FlowSolution(concurrent_flow=0.0, flows={}, topology=topo)
        assert sol.all_to_all_time() == float("inf")


class TestRepairConservation:
    def test_repair_removes_excess_injection(self):
        topo = Topology.from_edges(3, [(0, 1), (1, 2), (0, 2)], cap=1.0)
        # Commodity (0,2) with excess flow near the source (allowed by the
        # inequality-form conservation constraint).
        flows = {(0, 2): {(0, 1): 0.7, (1, 2): 0.3, (0, 2): 0.3},
                 (0, 1): {(0, 1): 0.3},
                 (1, 2): {(1, 2): 0.3},
                 (2, 0): {},
                 (2, 1): {},
                 (1, 0): {}}
        # Make the remaining commodities routable (zero flow is fine for repair).
        sol = FlowSolution(concurrent_flow=0.3, flows=flows, topology=topo)
        repaired = repair_conservation(sol)
        per = repaired.commodity_flow(0, 2)
        assert conservation_violation(per, 0, 2) < 1e-9
        flows = repaired.edge_flows()
        got = delivered(flows)[flows.commodities.index((0, 2))]
        assert got == pytest.approx(0.3, abs=1e-9)

    def test_repair_preserves_value_on_clean_solution(self, cube3_link_mcf):
        repaired = repair_conservation(cube3_link_mcf)
        assert repaired.concurrent_flow == cube3_link_mcf.concurrent_flow
        assert delivered(repaired.edge_flows()) == pytest.approx(
            cube3_link_mcf.concurrent_flow, abs=1e-6)


class TestEdgeFlows:
    def test_loads_per_step_and_net_delivery(self):
        topo = ring(3)                  # edges (0,1), (1,2), (2,0)
        flows = EdgeFlows.collect(topo, [
            ((0, 2), (0, 1), 0, 1.0),
            ((0, 2), (1, 2), 1, 1.0),
            ((0, 2), (2, 0), 1, 0.25),  # leaves the destination again
            ((1, 2), (1, 2), 1, 0.5),
        ], num_steps=2)
        loads = link_loads(flows)
        assert loads.tolist() == [[1.0, 0.0, 0.0], [0.0, 1.5, 0.25]]
        got = dict(zip(flows.commodities, delivered(flows).tolist()))
        assert got[(0, 2)] == 0.75
        assert got[(1, 2)] == 0.5
        assert got[(2, 1)] == 0.0

    def test_commodities_follow_the_terminal_rule(self):
        topo = ring(4)
        assert EdgeFlows.collect(topo, [], [2, 0, 2]).commodities == [(0, 2), (2, 0)]
        assert len(EdgeFlows.collect(topo, [], []).commodities) == 12
        with pytest.raises(ValueError, match="at least two terminals"):
            EdgeFlows.collect(topo, [], [1])

    @pytest.mark.parametrize("entry,match", [
        (((0, 2), (0, 2), 0, 1.0), "non-existent edge"),
        (((1, 3), (1, 2), 0, 1.0), "does not serve"),
        (((0, 2), (0, 1), 1, 1.0), "outside 0..0"),
    ])
    def test_collect_rejects_bad_entries(self, entry, match):
        with pytest.raises(ValueError, match=match):
            EdgeFlows.collect(ring(4), [entry], [0, 1, 2])

    @pytest.mark.parametrize("spec", ["hypercube:dim=3", "torus:dims=3x3"])
    def test_busiest_link_matches_the_flow_compiler(self, spec):
        """``link_loads`` against the simulator's independently built incidence."""
        from repro.core import solve_mcf_extract_paths
        from repro.schedule import chunk_path_schedule
        from repro.simulator.engine import FluidFlow, compile_flows
        from repro.topology import from_spec

        topo = from_spec(spec)
        routed = chunk_path_schedule(solve_mcf_extract_paths(topo))
        shard = 3.0 * 2 ** 20
        program = compile_flows(topo, [
            FluidFlow(path=a.route, size_bytes=a.chunk.bytes(shard))
            for a in routed.assignments])
        flows = routed.edge_flows()
        busiest = link_loads(replace(flows, amount=flows.amount * shard)).max()
        assert busiest == pytest.approx(program.max_link_bytes, rel=1e-12)
