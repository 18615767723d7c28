"""Schedule intermediate representation (§2.2).

An all-to-all communication schedule specifies which *chunk* (a subinterval of
a shard ``B[s, d]``) is communicated over which link or route at which comm
step.  Two concrete forms are used:

* :class:`LinkSchedule` -- time-stepped, link-granular sends for fabrics
  without NIC forwarding (lowered to MSCCL / oneCCL XML);
* :class:`RoutedSchedule` -- per-commodity weighted routes with chunk-to-route
  assignments for fabrics with NIC forwarding (lowered to OMPI/UCX steering).

Chunks are expressed as fractional intervals ``[lo, hi) ⊆ [0, 1)`` of their
shard, so schedules are independent of the byte size ``m``; the compiler
multiplies by ``m`` when emitting XML for a specific buffer size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..topology.base import Edge, Topology
from ..core.flow import Commodity, EdgeFlows

__all__ = ["Chunk", "LinkSendOp", "LinkSchedule", "RouteAssignment", "RoutedSchedule"]


@dataclass(frozen=True)
class Chunk:
    """A contiguous fraction of shard (source, destination).

    ``lo`` and ``hi`` are fractions of the shard in ``[0, 1]`` with
    ``lo < hi``; the chunk size as a fraction of the shard is ``hi - lo``.
    """

    source: int
    destination: int
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.lo < self.hi <= 1.0 + 1e-12):
            raise ValueError(f"invalid chunk interval [{self.lo}, {self.hi})")

    @property
    def fraction(self) -> float:
        """Chunk size as a fraction of its shard."""
        return self.hi - self.lo

    @property
    def commodity(self) -> Commodity:
        return (self.source, self.destination)

    def bytes(self, shard_bytes: float) -> float:
        """Chunk size in bytes for a given shard size."""
        return self.fraction * shard_bytes


@dataclass(frozen=True)
class LinkSendOp:
    """One send of a chunk over a directly connected link at a given step."""

    chunk: Chunk
    src: int
    dst: int
    step: int

    def __post_init__(self) -> None:
        if self.step < 1:
            raise ValueError("steps are 1-based")
        if self.src == self.dst:
            raise ValueError("link send must cross a link")


@dataclass
class LinkSchedule:
    """Time-stepped link-granular schedule (ML-fabric form).

    The schedule is a list of :class:`LinkSendOp`; ``num_steps`` is the number
    of synchronized communication steps.
    """

    topology: Topology
    num_steps: int
    operations: List[LinkSendOp] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    def ops_at_step(self, step: int) -> List[LinkSendOp]:
        """All sends scheduled for a given step."""
        return [op for op in self.operations if op.step == step]

    def ops_by_link(self, step: int) -> Dict[Edge, List[LinkSendOp]]:
        """Sends at a step grouped by link."""
        grouped: Dict[Edge, List[LinkSendOp]] = {}
        for op in self.ops_at_step(step):
            grouped.setdefault((op.src, op.dst), []).append(op)
        return grouped

    def edge_flows(self) -> EdgeFlows:
        """Each send's shard fraction, in operation order."""
        return EdgeFlows.collect(
            self.topology, ((op.chunk.commodity, (op.src, op.dst), op.step - 1,
                             op.chunk.fraction) for op in self.operations),
            self.meta.get("terminals"), self.num_steps)

    def validate_links(self) -> None:
        """Check every send uses an existing directed link."""
        for op in self.operations:
            if not self.topology.has_edge(op.src, op.dst):
                raise ValueError(f"operation {op} uses non-existent link ({op.src},{op.dst})")
            if not (1 <= op.step <= self.num_steps):
                raise ValueError(f"operation {op} outside step range 1..{self.num_steps}")


@dataclass(frozen=True)
class RouteAssignment:
    """A chunk assigned to an explicit multi-hop route (path-based schedules)."""

    chunk: Chunk
    route: Tuple[int, ...]
    layer: int = 0   # virtual-channel layer for deadlock freedom

    def __post_init__(self) -> None:
        if len(self.route) < 2:
            raise ValueError("route must contain at least source and destination")
        if self.route[0] != self.chunk.source or self.route[-1] != self.chunk.destination:
            raise ValueError("route endpoints must match the chunk's shard endpoints")

    @property
    def edges(self) -> Tuple[Edge, ...]:
        return tuple(zip(self.route[:-1], self.route[1:]))


@dataclass
class RoutedSchedule:
    """Path-based schedule: every chunk steered onto an explicit route."""

    topology: Topology
    assignments: List[RouteAssignment] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    def routes_for(self, source: int, destination: int) -> List[RouteAssignment]:
        """Assignments belonging to one commodity."""
        return [a for a in self.assignments
                if a.chunk.source == source and a.chunk.destination == destination]

    def edge_flows(self) -> EdgeFlows:
        """Each chunk's shard fraction on every hop of its route, in order."""
        return EdgeFlows.collect(
            self.topology, ((a.chunk.commodity, e, 0, a.chunk.fraction)
                            for a in self.assignments for e in a.edges),
            self.meta.get("terminals"))

    def num_layers(self) -> int:
        """Number of distinct virtual-channel layers used."""
        return len({a.layer for a in self.assignments}) if self.assignments else 0

    def validate_links(self) -> None:
        """Check every route hop uses an existing directed link."""
        for a in self.assignments:
            for u, v in a.edges:
                if not self.topology.has_edge(u, v):
                    raise ValueError(f"route {a.route} uses non-existent link ({u},{v})")
