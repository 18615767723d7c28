"""Tests for terminal-restricted MCF (host-only commodities on augmented graphs)."""

import pytest

from repro.core import (
    augment_host_nic_bottleneck,
    delivered,
    solve_decomposed_mcf,
    solve_link_mcf,
    solve_master_lp,
    solve_timestepped_mcf,
)
from repro.core.mcf_link import terminal_commodities
from repro.schedule import chunk_timestepped_flow, validate_link_schedule
from repro.topology import bidirectional_ring, complete, ring


class TestTerminalCommodities:
    def test_default_is_all_pairs(self):
        topo = complete(4)
        assert len(terminal_commodities(topo)) == 12

    def test_restricted_set(self):
        topo = complete(4)
        pairs = terminal_commodities(topo, [0, 2])
        assert sorted(pairs) == [(0, 2), (2, 0)]

    def test_duplicates_ignored(self):
        topo = complete(4)
        assert len(terminal_commodities(topo, [1, 1, 3])) == 2

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            terminal_commodities(complete(4), [0, 9])

    def test_single_terminal_rejected(self):
        with pytest.raises(ValueError):
            terminal_commodities(complete(4), [2])


class TestTerminalRestrictedMCF:
    def test_link_mcf_with_terminals(self):
        # On a unidirectional 4-ring, all-to-all between nodes {0, 2} only:
        # each commodity consumes 2 hops of the 4 links -> F = 1 per commodity
        # is impossible (capacity 4 total, 2 commodities x 2 hops) -> F = 1.
        topo = ring(4)
        sol = solve_link_mcf(topo, terminals=[0, 2])
        assert set(sol.flows.keys()) == {(0, 2), (2, 0)}
        assert sol.concurrent_flow == pytest.approx(1.0, rel=1e-6)

    def test_decomposed_with_terminals_matches_link(self):
        topo = bidirectional_ring(6)
        terminals = [0, 2, 4]
        link = solve_link_mcf(topo, terminals=terminals).concurrent_flow
        decomposed = solve_decomposed_mcf(topo, terminals=terminals).concurrent_flow
        assert decomposed == pytest.approx(link, rel=1e-5)

    def test_fewer_terminals_means_more_flow(self):
        topo = bidirectional_ring(6)
        full = solve_master_lp(topo).concurrent_flow
        restricted = solve_master_lp(topo, terminals=[0, 3]).concurrent_flow
        assert restricted > full

    def test_augmented_tsmcf_schedule_valid(self):
        """End-to-end: bottlenecked host schedule delivers exactly the host shards."""
        topo = bidirectional_ring(4)
        aug = augment_host_nic_bottleneck(topo, host_bandwidth=1.0)
        flow = solve_timestepped_mcf(aug.topology, terminals=list(aug.host_nodes()))
        flows = flow.edge_flows()
        assert flows.commodities == terminal_commodities(aug.topology, list(aug.host_nodes()))
        assert delivered(flows) == pytest.approx(1.0, abs=1e-5)
        schedule = chunk_timestepped_flow(flow)
        schedule.meta["terminals"] = list(aug.host_nodes())
        validate_link_schedule(schedule)

    def test_bottleneck_halves_flow_on_ring(self):
        # Degree-2 ring with host bandwidth 1: the host boundary (cap 1 in,
        # 1 out) is half the NIC aggregate (2), so F drops accordingly.
        topo = bidirectional_ring(4)
        base = solve_master_lp(topo).concurrent_flow
        aug = augment_host_nic_bottleneck(topo, host_bandwidth=1.0)
        capped = solve_master_lp(aug.topology, terminals=list(aug.host_nodes())).concurrent_flow
        assert capped < base
        assert capped == pytest.approx(base / 2, rel=0.2)
