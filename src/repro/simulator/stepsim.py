"""Store-and-forward step simulator for link-based (ML fabric) schedules.

Link-based schedules (tsMCF, TACCL/SCCL-style) execute in synchronized
communication steps: at each step every rank posts its sends and receives for
that step, all transfers proceed concurrently, and a global synchronization
closes the step (the paper's oneCCL/MSCCL lowering behaves this way, §4).

Each step is lowered to the unified flow IR — one single-hop fluid flow per
loaded link, carrying that link's aggregate bytes — and executed on the
vectorized engine (:mod:`repro.simulator.engine`), so link/injection caps and
degraded fabrics are accounted exactly like the cut-through regime:

    step_time = per_step_latency + per_message_overhead / num_channels
              + fluid completion of the step's link flows

and the collective time is the sum over steps.  When the fabric is not
injection-limited, the fluid completion is exactly
``max_over_links(bytes / link_bandwidth)`` — the classic closed form.  When
host injection *is* the bottleneck, both the send side (bytes leaving a
node) and the receive side (bytes arriving) are capped as shared fluid
resources.  Throughput is ``(N - 1) * shard_bytes / total_time``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from ..core.flow import link_loads
from ..schedule.ir import LinkSchedule
from .engine import FluidFlow, simulate_program
from .fabric import FabricModel

__all__ = ["StepSimResult", "simulate_link_schedule"]


@dataclass
class StepSimResult:
    """Outcome of executing a link schedule step by step."""

    total_time: float
    step_times: List[float]
    shard_bytes: float
    num_nodes: int
    max_link_bytes_per_step: List[float] = field(default_factory=list)
    fill_rounds: int = 0
    events_processed: int = 0

    @property
    def algorithm_bandwidth(self) -> float:
        """Per-node all-to-all throughput (N-1 shards sent per node / total time)."""
        if self.total_time <= 0:
            return float("inf")
        return (self.num_nodes - 1) * self.shard_bytes / self.total_time


def simulate_link_schedule(schedule: LinkSchedule, shard_bytes: float,
                           fabric: Optional[FabricModel] = None,
                           num_channels: int = 1,
                           overlap: int = 1) -> StepSimResult:
    """Execute a time-stepped link schedule on the store-and-forward model.

    Parameters
    ----------
    shard_bytes:
        Size ``m`` of each shard B[s, d] in bytes (the buffer size divided by N).
    num_channels:
        Parallel channels (schedule copies on disjoint chunk halves); modelled
        as reducing the per-message overhead share per byte but not the
        bandwidth (channels share the same links).
    overlap:
        Concurrent copies of the collective sharing the fabric.  Steps stay
        globally synchronized, so every copy's link load lands in the same
        step's fluid system; all copies finish together at ``total_time``.
    """
    fabric = fabric or FabricModel(nic_forwarding=False)
    topo = schedule.topology
    if overlap < 1:
        raise ValueError(f"overlap must be >= 1, got {overlap}")

    fractions = schedule.edge_flows()
    # A link joins a step when some send crosses it, even at zero bytes (the
    # step still costs its latency); bytes are per send, as in Chunk.bytes.
    sends = link_loads(fractions) > 0
    link_bytes = link_loads(replace(fractions, amount=fractions.amount * shard_bytes))
    edges = topo.edges
    step_times: List[float] = []
    max_link_bytes: List[float] = []
    fill_rounds = 0
    events = 0
    for step_bytes, step_sends in zip(link_bytes, sends):
        used = np.flatnonzero(step_sends)
        if not used.size:
            step_times.append(0.0)
            max_link_bytes.append(0.0)
            continue
        # One single-hop flow per (copy, loaded link) in edge order;
        # forwarding caps do not apply to single-hop transfers, so only
        # link/injection/ejection resources constrain the step.
        step_flows = [FluidFlow(path=edges[i], size_bytes=float(step_bytes[i]))
                      for _ in range(overlap) for i in used]
        set_ids = [copy for copy in range(overlap) for _ in used]
        sim = simulate_program(topo, step_flows, fabric, set_ids=set_ids,
                               set_names=tuple(f"copy{c}" for c in range(overlap)),
                               include_latency=False, include_ejection=True)
        fill_rounds += sim.fill_rounds
        events += sim.events_processed
        per_message = fabric.per_message_overhead / max(num_channels, 1)
        step_times.append(fabric.per_step_latency + per_message + sim.completion_time)
        max_link_bytes.append(float(step_bytes[used].max()) * overlap)

    return StepSimResult(
        total_time=sum(step_times),
        step_times=step_times,
        shard_bytes=shard_bytes,
        num_nodes=topo.num_nodes,
        max_link_bytes_per_step=max_link_bytes,
        fill_rounds=fill_rounds,
        events_processed=events,
    )
