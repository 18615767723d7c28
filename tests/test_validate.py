"""Tests for schedule validation (repro.schedule.validate)."""

import pytest

from repro.schedule import (
    Chunk,
    LinkSchedule,
    LinkSendOp,
    RouteAssignment,
    RoutedSchedule,
    ScheduleValidationError,
    validate_link_schedule,
    validate_routed_schedule,
)
from repro.topology import complete, ring


def _complete3():
    return complete(3)


class TestLinkValidation:
    def test_direct_exchange_valid(self):
        topo = _complete3()
        ops = [LinkSendOp(Chunk(s, d, 0.0, 1.0), s, d, 1)
               for s, d in topo.commodities()]
        validate_link_schedule(LinkSchedule(topo, 1, ops))

    def test_missing_delivery_detected(self):
        topo = _complete3()
        ops = [LinkSendOp(Chunk(s, d, 0.0, 1.0), s, d, 1)
               for s, d in topo.commodities() if (s, d) != (0, 1)]
        with pytest.raises(ScheduleValidationError, match=r"\(0,1\)"):
            validate_link_schedule(LinkSchedule(topo, 1, ops))

    def test_partial_delivery_detected(self):
        topo = _complete3()
        ops = [LinkSendOp(Chunk(s, d, 0.0, 1.0), s, d, 1)
               for s, d in topo.commodities() if (s, d) != (0, 1)]
        ops.append(LinkSendOp(Chunk(0, 1, 0.0, 0.5), 0, 1, 1))
        with pytest.raises(ScheduleValidationError, match="delivered"):
            validate_link_schedule(LinkSchedule(topo, 1, ops))

    def test_causality_violation_detected(self):
        # Node 1 forwards shard (0, 2) in step 1, before receiving it.
        ops = [
            LinkSendOp(Chunk(0, 1, 0.0, 1.0), 0, 1, 1),
            LinkSendOp(Chunk(1, 2, 0.0, 1.0), 1, 2, 1),
            LinkSendOp(Chunk(2, 0, 0.0, 1.0), 2, 0, 1),
            LinkSendOp(Chunk(0, 2, 0.0, 1.0), 1, 2, 1),   # too early
            LinkSendOp(Chunk(0, 2, 0.0, 1.0), 0, 1, 1),
            LinkSendOp(Chunk(1, 0, 0.0, 1.0), 1, 2, 1),
            LinkSendOp(Chunk(1, 0, 0.0, 1.0), 2, 0, 2),
            LinkSendOp(Chunk(2, 1, 0.0, 1.0), 2, 0, 1),
            LinkSendOp(Chunk(2, 1, 0.0, 1.0), 0, 1, 2),
        ]
        with pytest.raises(ScheduleValidationError, match="holds only"):
            validate_link_schedule(LinkSchedule(ring(3), 2, ops))

    def test_store_and_forward_two_steps_valid(self):
        topo = ring(3)
        ops = []
        for s, d in topo.commodities():
            # Route along the ring, one hop per step.
            path = [s]
            while path[-1] != d:
                path.append((path[-1] + 1) % 3)
            for i, (u, v) in enumerate(zip(path[:-1], path[1:]), start=1):
                ops.append(LinkSendOp(Chunk(s, d, 0.0, 1.0), u, v, i))
        validate_link_schedule(LinkSchedule(topo, 2, ops))

    def test_causality_can_be_relaxed(self):
        topo = ring(3)
        ops = [LinkSendOp(Chunk(0, 2, 0.0, 1.0), 1, 2, 1),
               LinkSendOp(Chunk(0, 2, 0.0, 1.0), 0, 1, 1),
               LinkSendOp(Chunk(2, 0, 0.0, 1.0), 2, 0, 1)]
        # With strict causality off, only delivery of (0,2) is checked, and the
        # other commodities fail first -- restrict to a single-commodity meta.
        schedule = LinkSchedule(topo, 1, ops, meta={"terminals": [0, 2]})
        with pytest.raises(ScheduleValidationError):
            validate_link_schedule(schedule)          # strict: node 1 sends too early
        validate_link_schedule(schedule, strict_causality=False)

    def test_terminals_meta_restricts_commodities(self):
        topo = _complete3()
        ops = [LinkSendOp(Chunk(0, 1, 0.0, 1.0), 0, 1, 1),
               LinkSendOp(Chunk(1, 0, 0.0, 1.0), 1, 0, 1)]
        schedule = LinkSchedule(topo, 1, ops, meta={"terminals": [0, 1]})
        validate_link_schedule(schedule)

    def test_unexpected_commodity_rejected(self):
        topo = _complete3()
        ops = [LinkSendOp(Chunk(0, 1, 0.0, 1.0), 0, 1, 1),
               LinkSendOp(Chunk(1, 0, 0.0, 1.0), 1, 0, 1),
               LinkSendOp(Chunk(2, 0, 0.0, 1.0), 2, 0, 1)]
        schedule = LinkSchedule(topo, 1, ops, meta={"terminals": [0, 1]})
        with pytest.raises(ScheduleValidationError, match="unexpected commodity"):
            validate_link_schedule(schedule)

    def test_one_terminal_meta_rejected(self):
        # Same terminal rule as the MCF solvers: fewer than two terminals
        # is an error, not an empty commodity set.
        schedule = LinkSchedule(_complete3(), 1, [], meta={"terminals": [1]})
        with pytest.raises(ValueError, match="at least two terminals"):
            validate_link_schedule(schedule)


class TestRoutedValidation:
    def test_valid_multi_path_cover(self):
        topo = complete(3)
        assignments = []
        for s, d in topo.commodities():
            assignments.append(RouteAssignment(Chunk(s, d, 0.0, 0.5), (s, d)))
            other = 3 - s - d
            assignments.append(RouteAssignment(Chunk(s, d, 0.5, 1.0), (s, other, d)))
        validate_routed_schedule(RoutedSchedule(topo, assignments))

    def test_uncovered_shard_detected(self):
        topo = complete(3)
        assignments = [RouteAssignment(Chunk(s, d, 0.0, 1.0), (s, d))
                       for s, d in topo.commodities() if (s, d) != (2, 1)]
        assignments.append(RouteAssignment(Chunk(2, 1, 0.0, 0.25), (2, 1)))
        with pytest.raises(ScheduleValidationError, match="not fully covered"):
            validate_routed_schedule(RoutedSchedule(topo, assignments))

    def test_overlapping_chunks_detected(self):
        topo = complete(3)
        assignments = [RouteAssignment(Chunk(s, d, 0.0, 1.0), (s, d))
                       for s, d in topo.commodities()]
        assignments.append(RouteAssignment(Chunk(0, 1, 0.0, 0.5), (0, 2, 1)))
        with pytest.raises(ScheduleValidationError, match="overlapping"):
            validate_routed_schedule(RoutedSchedule(topo, assignments))

    def test_generated_schedule_passes(self, genkautz_routed_schedule):
        validate_routed_schedule(genkautz_routed_schedule)
