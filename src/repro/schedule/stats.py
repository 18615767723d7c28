"""Routed-schedule statistics: route counts, load balance, queue pairs.

These metrics summarise a lowered routed schedule the way a runtime engineer
would inspect it before deploying: how many distinct routes and layers it
uses, how evenly the links are loaded (directly tied to achievable
throughput), and how many queue pairs it opens (§5.5 discusses QP pressure as
the practical scaling limit of granular chunking).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.flow import link_loads
from .ir import RoutedSchedule

__all__ = ["RoutedScheduleStats", "routed_schedule_stats"]


@dataclass(frozen=True)
class RoutedScheduleStats:
    """Summary statistics of a routed (path-based) schedule."""

    num_assignments: int
    num_distinct_routes: int
    num_layers: int
    max_route_hops: int
    mean_route_hops: float
    queue_pairs_per_rank_max: int
    load_imbalance: float              # max / mean link fraction


def routed_schedule_stats(schedule: RoutedSchedule) -> RoutedScheduleStats:
    """Compute :class:`RoutedScheduleStats` for a routed schedule."""
    routes = set()
    per_rank: Dict[int, int] = {}
    hops: List[int] = []
    for a in schedule.assignments:
        routes.add((a.route, a.layer))
        per_rank[a.chunk.source] = per_rank.get(a.chunk.source, 0) + 1
        hops.append(len(a.route) - 1)
    totals = link_loads(schedule.edge_flows())[0]
    totals = totals[totals > 0]      # shard fractions on the links routes cross
    mean_load = float(totals.mean()) if totals.size else 0.0
    return RoutedScheduleStats(
        num_assignments=len(schedule.assignments),
        num_distinct_routes=len(routes),
        num_layers=schedule.num_layers(),
        max_route_hops=max(hops, default=0),
        mean_route_hops=(sum(hops) / len(hops)) if hops else 0.0,
        queue_pairs_per_rank_max=max(per_rank.values(), default=0),
        load_imbalance=(float(totals.max()) / mean_load) if mean_load > 0 else 0.0,
    )
