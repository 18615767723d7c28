"""Tests for schedule chunking (fractional flows/weights -> concrete chunks)."""

import pytest

from repro.core import link_loads, solve_path_mcf, solve_timestepped_mcf
from repro.paths import edge_disjoint_path_sets
from repro.schedule import (
    chunk_path_schedule,
    chunk_timestepped_flow,
    quantize_weights,
    validate_link_schedule,
    validate_routed_schedule,
)
from repro.topology import ring, torus_2d


class TestQuantizeWeights:
    def test_simple_halves(self):
        counts, denom = quantize_weights([0.5, 0.5])
        assert counts == [denom // 2, denom // 2]
        assert sum(counts) == denom

    def test_unequal_weights(self):
        counts, denom = quantize_weights([2.0, 1.0])
        assert sum(counts) == denom
        assert counts[0] == 2 * counts[1]

    def test_counts_proportional_within_tolerance(self):
        weights = [0.37, 0.41, 0.22]
        counts, denom = quantize_weights(weights, max_denominator=64)
        total = sum(weights)
        for w, c in zip(weights, counts):
            assert c / denom == pytest.approx(w / total, abs=1.0 / 32)

    def test_every_positive_weight_represented(self):
        counts, denom = quantize_weights([0.999, 0.001], max_denominator=16)
        assert all(c >= 1 for c in counts)
        assert sum(counts) == denom

    def test_single_weight(self):
        counts, denom = quantize_weights([0.3])
        assert counts == [denom]

    def test_zero_sum_rejected(self):
        with pytest.raises(ValueError):
            quantize_weights([0.0, 0.0])

    @pytest.mark.parametrize("weight", [0.0, -1.0, float("nan"), float("inf")])
    def test_single_non_positive_or_non_finite_weight_rejected(self, weight):
        with pytest.raises(ValueError):
            quantize_weights([weight])


class TestChunkPathSchedule:
    def test_covers_every_shard_exactly(self, genkautz_extp):
        routed = chunk_path_schedule(genkautz_extp)
        validate_routed_schedule(routed)

    def test_chunk_counts_follow_weights(self, bipartite44):
        schedule = solve_path_mcf(bipartite44, edge_disjoint_path_sets(bipartite44))
        routed = chunk_path_schedule(schedule, max_denominator=16)
        norm = schedule.normalized()
        for (s, d), plist in norm.paths.items():
            assignments = routed.routes_for(s, d)
            total_fraction = sum(a.chunk.fraction for a in assignments)
            assert total_fraction == pytest.approx(1.0, abs=1e-9)
            # Per-route fractions approximate the normalized weights.
            by_route = {}
            for a in assignments:
                by_route[a.route] = by_route.get(a.route, 0.0) + a.chunk.fraction
            for p in plist:
                if p.weight > 1e-6:
                    assert by_route.get(tuple(p.nodes), 0.0) == pytest.approx(
                        p.weight, abs=0.13)

    def test_layers_applied(self, genkautz_extp):
        routes = {tuple(p.nodes): 2 for plist in genkautz_extp.paths.values() for p in plist}
        routed = chunk_path_schedule(genkautz_extp, layers=routes)
        assert all(a.layer == 2 for a in routed.assignments)

    def test_chunks_use_existing_links(self, genkautz_routed_schedule):
        genkautz_routed_schedule.validate_links()


class TestChunkTimesteppedFlow:
    def test_hypercube_schedule_valid(self, cube3_link_schedule):
        validate_link_schedule(cube3_link_schedule)
        assert cube3_link_schedule.num_steps == 4

    def test_every_chunk_send_matches_flow_volume(self, cube3_tsmcf, cube3_link_schedule):
        # Total bytes moved by the schedule equal the total flow volume.
        total_flow = sum(sum(per.values()) for per in cube3_tsmcf.flows.values())
        total_sched = sum(op.chunk.fraction for op in cube3_link_schedule.operations)
        assert total_sched == pytest.approx(total_flow, rel=1e-5)

    def test_ring_timestepped_chunking(self):
        topo = ring(4)
        flow = solve_timestepped_mcf(topo, num_steps=4)
        schedule = chunk_timestepped_flow(flow)
        validate_link_schedule(schedule)

    def test_torus_timestepped_chunking(self):
        topo = torus_2d(3)
        flow = solve_timestepped_mcf(topo, num_steps=3)
        schedule = chunk_timestepped_flow(flow)
        validate_link_schedule(schedule)
        assert schedule.meta["source"] == "tsmcf"

    def test_per_step_link_volume_matches_flow(self, cube3_tsmcf, cube3_link_schedule):
        flow_load = link_loads(cube3_tsmcf.edge_flows())
        sched_load = link_loads(cube3_link_schedule.edge_flows())
        assert sched_load == pytest.approx(flow_load, abs=1e-6)
