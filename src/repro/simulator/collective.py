"""End-to-end execution of all-to-all schedules on the simulated fabric.

This is the substitute for the paper's hardware testbeds: given a schedule
(link-based :class:`LinkSchedule` or path-based :class:`RoutedSchedule`), a
fabric model and a buffer size, it validates the schedule, lowers it to the
unified flow IR, executes it on the vectorized engine and reports the
achieved throughput -- producing the same throughput-vs-buffer-size series as
Fig. 3/4/5.

The ``overlap`` axis runs several copies of the collective concurrently on
the same fabric (one flow set per copy); results then carry per-collective
completion times in ``meta["per_collective_seconds"]`` and the headline
``completion_time`` is the last copy's finish.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..schedule.ir import LinkSchedule, RoutedSchedule
from ..schedule.validate import validate_link_schedule, validate_routed_schedule
from .engine import FluidFlow, compile_flows, execute
from .fabric import FabricModel
from .stepsim import simulate_link_schedule

__all__ = ["CollectiveResult", "run_link_collective", "run_routed_collective",
           "throughput_sweep"]


@dataclass
class CollectiveResult:
    """Result of running one all-to-all collective at one buffer size."""

    buffer_bytes: float          # total per-node buffer (N shards)
    shard_bytes: float           # m = buffer / N
    completion_time: float       # seconds
    num_nodes: int
    schedule_kind: str
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """All-to-all throughput ``(N - 1) * m / T`` in bytes/second (§2.2).

        With overlap, ``completion_time`` is the *last* copy's finish, so
        this is the per-collective throughput under contention.
        """
        if self.completion_time <= 0:
            return float("inf")
        return (self.num_nodes - 1) * self.shard_bytes / self.completion_time

    @property
    def per_collective_seconds(self) -> List[float]:
        """Completion time of each overlapping copy (single entry without overlap)."""
        times = self.meta.get("per_collective_seconds")
        return list(times) if times else [self.completion_time]


def run_link_collective(schedule: LinkSchedule, buffer_bytes: float,
                        fabric: Optional[FabricModel] = None,
                        validate: bool = True,
                        num_channels: int = 1,
                        overlap: int = 1) -> CollectiveResult:
    """Execute a link-based schedule for a total per-node buffer size."""
    if validate:
        validate_link_schedule(schedule)
    n = schedule.topology.num_nodes
    shard = buffer_bytes / n
    sim = simulate_link_schedule(schedule, shard_bytes=shard, fabric=fabric,
                                 num_channels=num_channels, overlap=overlap)
    meta = {"step_times": sim.step_times, "num_steps": schedule.num_steps,
            "fill_rounds": sim.fill_rounds, "events": sim.events_processed}
    if overlap > 1:
        # Steps are globally synchronized, so every copy ends with the last step.
        meta["per_collective_seconds"] = [sim.total_time] * overlap
    return CollectiveResult(
        buffer_bytes=buffer_bytes,
        shard_bytes=shard,
        completion_time=sim.total_time,
        num_nodes=n,
        schedule_kind="link",
        meta=meta,
    )


def run_routed_collective(schedule: RoutedSchedule, buffer_bytes: float,
                          fabric: Optional[FabricModel] = None,
                          validate: bool = True,
                          overlap: int = 1) -> CollectiveResult:
    """Execute a path-based schedule for a total per-node buffer size.

    Every chunk assignment becomes one fluid flow along its route; flows run
    concurrently under max-min fair sharing (cut-through fabric behaviour).
    With ``overlap > 1`` each copy contributes its own flow set and completes
    independently (the per-copy times land in the result's meta).  This is
    the one-buffer case of :func:`throughput_sweep`.
    """
    return _routed_sweep(schedule, [buffer_bytes], fabric, validate, overlap)[0]


def _routed_sweep(schedule: RoutedSchedule, buffer_sizes: Sequence[float],
                  fabric: Optional[FabricModel], validate: bool,
                  overlap: int) -> List[CollectiveResult]:
    """Compile the routed schedule once and run it at every buffer size."""
    if validate:
        validate_routed_schedule(schedule)
    if overlap < 1:
        raise ValueError(f"overlap must be >= 1, got {overlap}")
    topo = schedule.topology
    n = topo.num_nodes
    # Flow sizes are chunk fractions (a one-byte shard); each buffer scales
    # them by its shard.
    flows: List[FluidFlow] = []
    set_ids: List[int] = []
    for copy in range(overlap):
        for a in schedule.assignments:
            flows.append(FluidFlow(path=a.route, size_bytes=float(a.chunk.fraction)))
            set_ids.append(copy)
    program = compile_flows(topo, flows, fabric, set_ids=set_ids,
                            set_names=tuple(f"copy{c}" for c in range(overlap)))
    results: List[CollectiveResult] = []
    for buffer_bytes in buffer_sizes:
        shard = buffer_bytes / n
        if shard < 0:
            raise ValueError("flow size must be non-negative")
        sim = execute(program, sizes=program.sizes * shard)
        meta: Dict[str, object] = {
            "num_flows": len(flows), "max_link_bytes": sim.max_link_bytes,
            "fill_rounds": sim.fill_rounds, "events": sim.events_processed}
        if overlap > 1:
            meta["per_collective_seconds"] = [
                sim.set_completion_times[f"copy{c}"] for c in range(overlap)]
        results.append(CollectiveResult(
            buffer_bytes=buffer_bytes,
            shard_bytes=shard,
            completion_time=sim.completion_time,
            num_nodes=n,
            schedule_kind="routed",
            meta=meta,
        ))
    return results


def throughput_sweep(schedule: Union[LinkSchedule, RoutedSchedule],
                     buffer_sizes: Sequence[float],
                     fabric: Optional[FabricModel] = None,
                     validate_first: bool = True,
                     num_channels: int = 1,
                     overlap: int = 1) -> List[CollectiveResult]:
    """Run the schedule across a sweep of buffer sizes (the Fig. 3/4 x-axis).

    The schedule is validated once, before the first point.  A routed
    schedule is compiled to one flow program per ``(schedule, fabric,
    overlap)``, and every buffer runs that program at its own flow sizes;
    the fill never reads sizes, so a buffer re-running an earlier buffer's
    active mask takes its rates from the program's fill memo.
    """
    buffer_sizes = list(buffer_sizes)
    if isinstance(schedule, RoutedSchedule):
        return (_routed_sweep(schedule, buffer_sizes, fabric, validate_first,
                              overlap) if buffer_sizes else [])
    if not isinstance(schedule, LinkSchedule):
        raise TypeError(f"unsupported schedule type {type(schedule)!r}")
    return [run_link_collective(schedule, buf, fabric=fabric,
                                validate=validate_first and i == 0,
                                num_channels=num_channels, overlap=overlap)
            for i, buf in enumerate(buffer_sizes)]
