"""Schedule correctness validation.

A valid all-to-all schedule must deliver every shard ``B[s, d]`` from node
``s`` to node ``d`` in full, moving data only over existing links, and -- for
link-based schedules -- only forwarding bytes a node has already received
(store-and-forward causality).  These checks run on every schedule the
compilers emit and on everything the interpreter executes.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..constants import SCHEDULE_TOL
from ..core.flow import Commodity
from ..core.mcf_link import terminal_commodities
from .ir import LinkSchedule, RoutedSchedule

__all__ = ["validate_link_schedule", "validate_routed_schedule", "ScheduleValidationError"]


class ScheduleValidationError(ValueError):
    """Raised when a schedule fails a correctness check."""


def _merge(intervals: List[Tuple[float, float]], tol: float = 1e-12) -> List[Tuple[float, float]]:
    if not intervals:
        return []
    intervals = sorted(intervals)
    merged = [intervals[0]]
    for lo, hi in intervals[1:]:
        plo, phi = merged[-1]
        if lo <= phi + tol:
            merged[-1] = (plo, max(phi, hi))
        else:
            merged.append((lo, hi))
    return merged


def _covered(intervals: List[Tuple[float, float]]) -> float:
    return sum(hi - lo for lo, hi in _merge(intervals))


def validate_link_schedule(schedule: LinkSchedule, strict_causality: bool = True) -> None:
    """Validate a time-stepped link schedule.

    Checks: links exist; per-commodity causality (a node only forwards
    intervals it already holds at the start of the step); and completion
    (node d ends holding all of shard (s, d) for every commodity).  When the
    schedule's meta carries a ``terminals`` list (host-NIC augmented
    topologies), the commodity set is all-to-all over those terminals only.

    Raises :class:`ScheduleValidationError` on the first violation.
    """
    schedule.validate_links()
    topo = schedule.topology
    # holdings[(s, d)][node] = list of intervals of shard (s,d) held at node.
    holdings: Dict[Commodity, Dict[int, List[Tuple[float, float]]]] = {}
    for s, d in terminal_commodities(topo, schedule.meta.get("terminals") or None):
        holdings[(s, d)] = {u: [] for u in topo.nodes}
        holdings[(s, d)][s] = [(0.0, 1.0)]

    for step in range(1, schedule.num_steps + 1):
        arrivals: List[Tuple[Commodity, int, Tuple[float, float]]] = []
        for op in schedule.ops_at_step(step):
            c = op.chunk.commodity
            if c not in holdings:
                raise ScheduleValidationError(f"operation for unexpected commodity {c}")
            interval = (op.chunk.lo, op.chunk.hi)
            if strict_causality:
                held = holdings[c][op.src]
                if not _interval_contained(interval, held):
                    raise ScheduleValidationError(
                        f"step {step}: node {op.src} sends {interval} of shard {c} "
                        f"but holds only {held}")
            arrivals.append((c, op.dst, interval))
            # Remove the sent interval from the sender (data is moved onward).
            holdings[c][op.src] = _subtract(holdings[c][op.src], interval)
        for c, dst, interval in arrivals:
            holdings[c][dst] = _merge(holdings[c][dst] + [interval])

    for (s, d), per_node in holdings.items():
        covered = _covered(per_node[d])
        if covered < 1.0 - SCHEDULE_TOL:
            raise ScheduleValidationError(
                f"shard ({s},{d}) only {covered:.6f} delivered to destination {d}")


def _interval_contained(interval: Tuple[float, float],
                        held: List[Tuple[float, float]], tol: float = 1e-6) -> bool:
    lo, hi = interval
    remaining = [(lo, hi)]
    for hlo, hhi in _merge(held):
        new_remaining = []
        for rlo, rhi in remaining:
            if hhi <= rlo + tol or hlo >= rhi - tol:
                new_remaining.append((rlo, rhi))
                continue
            if hlo > rlo + tol:
                new_remaining.append((rlo, hlo))
            if hhi < rhi - tol:
                new_remaining.append((hhi, rhi))
        remaining = new_remaining
    return sum(hi - lo for lo, hi in remaining) <= tol


def _subtract(held: List[Tuple[float, float]], interval: Tuple[float, float],
              tol: float = 1e-12) -> List[Tuple[float, float]]:
    lo, hi = interval
    out: List[Tuple[float, float]] = []
    for hlo, hhi in held:
        if hhi <= lo + tol or hlo >= hi - tol:
            out.append((hlo, hhi))
            continue
        if hlo < lo - tol:
            out.append((hlo, lo))
        if hhi > hi + tol:
            out.append((hi, hhi))
    return out


def validate_routed_schedule(schedule: RoutedSchedule) -> None:
    """Validate a path-based schedule.

    Checks: every route uses existing links and connects the chunk's source to
    its destination; and the chunks of every commodity cover its full shard
    without overlap.
    """
    schedule.validate_links()
    topo = schedule.topology
    per_commodity: Dict[Commodity, List[Tuple[float, float]]] = {
        c: [] for c in terminal_commodities(topo, schedule.meta.get("terminals") or None)}
    for a in schedule.assignments:
        c = a.chunk.commodity
        if c not in per_commodity:
            raise ScheduleValidationError(f"assignment for unknown commodity {c}")
        per_commodity[c].append((a.chunk.lo, a.chunk.hi))
    for c, intervals in per_commodity.items():
        total = sum(hi - lo for lo, hi in intervals)
        covered = _covered(intervals)
        if covered < 1.0 - SCHEDULE_TOL:
            raise ScheduleValidationError(f"commodity {c} shard not fully covered ({covered:.6f})")
        if total > covered + SCHEDULE_TOL:
            raise ScheduleValidationError(f"commodity {c} has overlapping chunks")
