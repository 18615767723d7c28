"""Closed-form (alpha-beta style) cost models and throughput upper bounds.

These analytic models complement the simulators: they give the theoretical
"Upper Bound" curves plotted in Fig. 3/4 and quick estimates used by tests to
cross-check the simulators' asymptotic behaviour.
"""

from __future__ import annotations

from typing import Optional

from ..topology.base import Topology
from .fabric import FabricModel

__all__ = ["alltoall_time_upper_bound", "steady_state_throughput"]


def steady_state_throughput(num_nodes: int, concurrent_flow: float,
                            fabric: FabricModel) -> float:
    """Asymptotic (large-buffer) all-to-all throughput ``(N-1) * f * b`` bytes/s.

    ``concurrent_flow`` is the MCF value computed with unit link capacities;
    multiplying by the physical link bandwidth converts to bytes/second
    (§5.2's 6.01 GB/s example on the bottlenecked 27-node torus).
    """
    return (num_nodes - 1) * concurrent_flow * fabric.link_bandwidth


def alltoall_time_upper_bound(topology: Topology, concurrent_flow: float,
                              shard_bytes: float, fabric: FabricModel,
                              num_steps: Optional[int] = None) -> float:
    """Lower bound on all-to-all completion time (reciprocal throughput bound).

    The bandwidth term is ``(N - 1) * m / ((N - 1) * f * b) = m / (f * b)``;
    a latency term of ``num_steps * per_step_latency`` (store-and-forward) or
    ``diameter * per_hop_latency`` (cut-through) is added when applicable.
    """
    n = topology.num_nodes
    bw = steady_state_throughput(n, concurrent_flow, fabric)
    bandwidth_term = (n - 1) * shard_bytes / bw if bw > 0 else float("inf")
    if fabric.nic_forwarding:
        latency_term = topology.diameter() * fabric.per_hop_latency + fabric.per_message_overhead
    else:
        steps = num_steps if num_steps is not None else topology.diameter()
        latency_term = steps * fabric.per_step_latency
    return bandwidth_term + latency_term
