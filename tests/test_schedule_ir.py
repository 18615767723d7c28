"""Tests for the schedule IR (Chunk, LinkSchedule, RoutedSchedule)."""

import pytest

from repro.core import link_loads
from repro.schedule import Chunk, LinkSchedule, LinkSendOp, RouteAssignment, RoutedSchedule
from repro.topology import hypercube, ring


class TestChunk:
    def test_fraction_and_bytes(self):
        chunk = Chunk(source=0, destination=3, lo=0.25, hi=0.75)
        assert chunk.fraction == pytest.approx(0.5)
        assert chunk.bytes(1000) == pytest.approx(500)
        assert chunk.commodity == (0, 3)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            Chunk(0, 1, 0.5, 0.5)
        with pytest.raises(ValueError):
            Chunk(0, 1, -0.1, 0.5)
        with pytest.raises(ValueError):
            Chunk(0, 1, 0.2, 1.2)

    def test_full_shard(self):
        chunk = Chunk(0, 1, 0.0, 1.0)
        assert chunk.fraction == 1.0


class TestLinkSendOp:
    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            LinkSendOp(chunk=Chunk(0, 1, 0.0, 1.0), src=0, dst=1, step=0)

    def test_src_dst_must_differ(self):
        with pytest.raises(ValueError):
            LinkSendOp(chunk=Chunk(0, 1, 0.0, 1.0), src=2, dst=2, step=1)


class TestLinkSchedule:
    def _schedule(self):
        topo = ring(3)
        ops = [
            LinkSendOp(Chunk(0, 1, 0.0, 1.0), 0, 1, 1),
            LinkSendOp(Chunk(0, 2, 0.0, 1.0), 0, 1, 1),
            LinkSendOp(Chunk(0, 2, 0.0, 1.0), 1, 2, 2),
            LinkSendOp(Chunk(1, 2, 0.0, 1.0), 1, 2, 1),
            LinkSendOp(Chunk(1, 0, 0.0, 1.0), 1, 2, 2),
            LinkSendOp(Chunk(1, 0, 0.0, 1.0), 2, 0, 3),
            LinkSendOp(Chunk(2, 0, 0.0, 1.0), 2, 0, 1),
            LinkSendOp(Chunk(2, 1, 0.0, 1.0), 2, 0, 2),
            LinkSendOp(Chunk(2, 1, 0.0, 1.0), 0, 1, 3),
        ]
        return LinkSchedule(topology=topo, num_steps=3, operations=ops)

    def test_ops_at_step(self):
        sched = self._schedule()
        assert len(sched.ops_at_step(1)) == 4
        assert len(sched.ops_at_step(3)) == 2

    def test_ops_by_link(self):
        sched = self._schedule()
        grouped = sched.ops_by_link(1)
        assert len(grouped[(0, 1)]) == 2

    def test_link_bytes(self):
        sched = self._schedule()
        per_link = dict(zip(sched.topology.edges,
                            100.0 * link_loads(sched.edge_flows())[0]))
        assert per_link[(0, 1)] == pytest.approx(200.0)
        assert per_link[(2, 0)] == pytest.approx(100.0)

    def test_total_bytes(self):
        sched = self._schedule()
        assert link_loads(sched.edge_flows()).sum() * 10.0 == pytest.approx(90.0)

    def test_validate_links_rejects_missing_edge(self):
        topo = ring(3)
        bad = LinkSchedule(topology=topo, num_steps=1, operations=[
            LinkSendOp(Chunk(0, 2, 0.0, 1.0), 0, 2, 1)])
        with pytest.raises(ValueError, match="non-existent link"):
            bad.validate_links()

    def test_validate_links_rejects_step_overflow(self):
        topo = ring(3)
        bad = LinkSchedule(topology=topo, num_steps=1, operations=[
            LinkSendOp(Chunk(0, 1, 0.0, 1.0), 0, 1, 5)])
        with pytest.raises(ValueError, match="step range"):
            bad.validate_links()


class TestRoutedSchedule:
    def _schedule(self):
        topo = hypercube(2)
        assignments = [
            RouteAssignment(Chunk(0, 3, 0.0, 0.5), route=(0, 1, 3), layer=0),
            RouteAssignment(Chunk(0, 3, 0.5, 1.0), route=(0, 2, 3), layer=1),
        ]
        return RoutedSchedule(topology=topo, assignments=assignments)

    def test_route_endpoint_validation(self):
        with pytest.raises(ValueError, match="endpoints"):
            RouteAssignment(Chunk(0, 3, 0.0, 1.0), route=(0, 1, 2))
        with pytest.raises(ValueError):
            RouteAssignment(Chunk(0, 3, 0.0, 1.0), route=(0,))

    def test_routes_for(self):
        sched = self._schedule()
        assert len(sched.routes_for(0, 3)) == 2
        assert sched.routes_for(1, 2) == []

    def test_link_bytes(self):
        sched = self._schedule()
        per_link = dict(zip(sched.topology.edges,
                            100.0 * link_loads(sched.edge_flows())[0]))
        assert per_link[(0, 1)] == pytest.approx(50.0)
        assert per_link[(2, 3)] == pytest.approx(50.0)
        assert per_link[(1, 0)] == 0.0

    def test_num_layers(self):
        assert self._schedule().num_layers() == 2
        assert RoutedSchedule(topology=hypercube(2)).num_layers() == 0

    def test_validate_links(self):
        topo = hypercube(2)
        bad = RoutedSchedule(topology=topo, assignments=[
            RouteAssignment(Chunk(0, 3, 0.0, 1.0), route=(0, 3))])
        with pytest.raises(ValueError, match="non-existent link"):
            bad.validate_links()
