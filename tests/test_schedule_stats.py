"""Tests for schedule statistics (repro.schedule.stats)."""

import pytest

from repro.schedule import Chunk, RouteAssignment, RoutedSchedule, routed_schedule_stats
from repro.topology import hypercube


class TestRoutedScheduleStats:
    def test_basic_counts(self):
        topo = hypercube(2)
        assignments = [
            RouteAssignment(Chunk(0, 3, 0.0, 0.5), (0, 1, 3), layer=0),
            RouteAssignment(Chunk(0, 3, 0.5, 1.0), (0, 2, 3), layer=1),
            RouteAssignment(Chunk(1, 2, 0.0, 1.0), (1, 0, 2), layer=0),
        ]
        stats = routed_schedule_stats(RoutedSchedule(topo, assignments))
        assert stats.num_assignments == 3
        assert stats.num_distinct_routes == 3
        assert stats.num_layers == 2
        assert stats.max_route_hops == 2
        assert stats.mean_route_hops == pytest.approx(2.0)
        assert stats.queue_pairs_per_rank_max == 2      # rank 0 opens two chunk flows

    def test_generated_schedule_stats(self, genkautz_routed_schedule):
        stats = routed_schedule_stats(genkautz_routed_schedule)
        n = genkautz_routed_schedule.topology.num_nodes
        assert stats.num_assignments >= n * (n - 1)
        assert stats.queue_pairs_per_rank_max >= n - 1
        assert 1.0 <= stats.load_imbalance <= 3.0
        assert stats.max_route_hops <= 2 * genkautz_routed_schedule.topology.diameter()

    def test_empty_schedule(self):
        stats = routed_schedule_stats(RoutedSchedule(hypercube(2), []))
        assert stats.num_assignments == 0
        assert stats.num_layers == 0
