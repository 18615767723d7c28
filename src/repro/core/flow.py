"""Flow solution data structures and flow hygiene utilities.

The LP formulations in §3.1 use an *inequality* form of flow conservation
(eq. 3) for solver speed, which means the returned flow for a commodity may
carry extra flow near the source or contain circulation that never reaches the
destination.  The paper applies a post-processing step to restore exact
conservation; :func:`repair_conservation` implements it by decomposing each
commodity's flow into source->destination paths (dropping excess flow and
cycles) and re-accumulating link flows.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..constants import FLOW_TOL
from ..topology.base import Edge, Topology

Commodity = Tuple[int, int]

__all__ = ["Commodity", "EdgeFlows", "FlowSolution", "WeightedPath",
           "delivered", "flow_to_paths", "flows_from_array", "link_loads",
           "widest_path", "repair_conservation", "conservation_violation"]


def flows_from_array(values, commodities: Sequence[Commodity],
                     edges: Sequence[Edge],
                     tol: float = FLOW_TOL) -> Dict[Commodity, Dict[Edge, float]]:
    """Convert a ``(num_commodities, num_edges)`` value array into sparse
    per-commodity link-flow dicts.

    This is the extraction path for block-assembled MCF solutions: the solver
    hands back one flat ndarray per variable block, the above-``tol`` entries
    are located with a single vectorized comparison, and Python dicts are
    built for those entries only (MCF solutions are overwhelmingly zeros).
    """
    arr = np.asarray(values, dtype=float)
    if arr.shape != (len(commodities), len(edges)):
        raise ValueError(f"flow array shape {arr.shape} does not match "
                         f"{len(commodities)} commodities x {len(edges)} edges")
    flows: Dict[Commodity, Dict[Edge, float]] = {c: {} for c in commodities}
    ci, ei = np.nonzero(arr > tol)
    vals = arr[ci, ei]
    for k in range(len(ci)):
        flows[commodities[ci[k]]][edges[ei[k]]] = float(vals[k])
    return flows


@dataclass(frozen=True)
class WeightedPath:
    """A source->destination path carrying a fractional flow ``weight``."""

    nodes: Tuple[int, ...]
    weight: float

    @property
    def source(self) -> int:
        return self.nodes[0]

    @property
    def destination(self) -> int:
        return self.nodes[-1]

    @property
    def edges(self) -> Tuple[Edge, ...]:
        return tuple(zip(self.nodes[:-1], self.nodes[1:]))

    def __len__(self) -> int:
        return len(self.nodes) - 1


@dataclass
class FlowSolution:
    """Per-commodity link flows plus the concurrent flow value ``F``.

    ``flows[(s, d)][(u, v)]`` is the amount of commodity ``(s, d)`` routed over
    directed link ``(u, v)`` per unit of concurrent demand.
    """

    concurrent_flow: float
    flows: Dict[Commodity, Dict[Edge, float]]
    topology: Topology
    solve_seconds: float = 0.0
    meta: Dict[str, object] = field(default_factory=dict)

    def commodity_flow(self, s: int, d: int) -> Dict[Edge, float]:
        """Link flows of commodity ``(s, d)`` (empty dict if absent)."""
        return self.flows.get((s, d), {})

    def edge_flows(self) -> EdgeFlows:
        """Each commodity's link flows, in commodity then edge order."""
        return EdgeFlows.collect(
            self.topology, ((c, e, 0, v) for c, per in self.flows.items()
                            for e, v in per.items()),
            self.meta.get("terminals"))

    def all_to_all_time(self) -> float:
        """Normalized all-to-all time = 1 / F (equals the maximum link load
        for an optimal solution with unit capacities)."""
        if self.concurrent_flow <= 0:
            return float("inf")
        return 1.0 / self.concurrent_flow


def conservation_violation(flow: Mapping[Edge, float], source: int, destination: int) -> float:
    """Maximum absolute conservation violation at intermediate nodes.

    For exact conservation the net flow (in minus out) must be zero at every
    node other than the source and destination.
    """
    net: Dict[int, float] = {}
    for (u, v), val in flow.items():
        net[u] = net.get(u, 0.0) - val
        net[v] = net.get(v, 0.0) + val
    worst = 0.0
    for node, imbalance in net.items():
        if node in (source, destination):
            continue
        worst = max(worst, abs(imbalance))
    return worst


def flow_to_paths(flow: Mapping[Edge, float], source: int, destination: int,
                  tol: float = FLOW_TOL) -> List[WeightedPath]:
    """Decompose a single-commodity link flow into weighted s->d paths.

    Uses iterative widest-path extraction on the flow-induced subgraph: find
    the s->d path whose bottleneck flow is largest, subtract it, and repeat.
    Excess flow (circulations, over-injection near the source allowed by the
    inequality-form conservation constraint) is simply never extracted, so the
    output is a clean path decomposition of the *delivered* flow.
    """
    residual: Dict[Edge, float] = {e: v for e, v in flow.items() if v > tol}
    paths: List[WeightedPath] = []
    # Guard: each iteration removes at least one edge from the residual,
    # so the loop terminates after at most |E| iterations.
    for _ in range(len(residual) + 1):
        path = widest_path(residual, source, destination, tol)
        if path is None:
            break
        bottleneck = min(residual[e] for e in zip(path[:-1], path[1:]))
        for e in zip(path[:-1], path[1:]):
            residual[e] -= bottleneck
            if residual[e] <= tol:
                del residual[e]
        paths.append(WeightedPath(nodes=tuple(path), weight=bottleneck))
    return paths


def widest_path(capacity: Mapping[Edge, float], source: int, destination: int,
                tol: float = FLOW_TOL) -> Optional[List[int]]:
    """Maximum-bottleneck (widest) s->d path on an edge-capacity map.

    The inner primitive of MCF-extP's extraction loop (§3.2.1): a Dijkstra
    variant whose node label is the best bottleneck found so far (maximized
    instead of minimized).  Edges at or below ``tol`` are ignored, and a
    label must improve by more than ``tol`` to be replaced.  Returns the node
    sequence, or None when no positive-capacity path exists.
    """
    adj: Dict[int, List[Tuple[int, float]]] = {}
    for (u, v), c in capacity.items():
        if c > tol:
            adj.setdefault(u, []).append((v, c))
    best: Dict[int, float] = {source: float("inf")}
    parent: Dict[int, int] = {}
    heap = [(-float("inf"), source)]
    visited = set()
    while heap:
        neg_width, u = heapq.heappop(heap)
        if u in visited:
            continue
        visited.add(u)
        if u == destination:
            break
        for v, c in adj.get(u, []):
            width = min(-neg_width, c)
            if width > best.get(v, 0.0) + tol:
                best[v] = width
                parent[v] = u
                heapq.heappush(heap, (-width, v))
    if destination not in best:
        return None
    path = [destination]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def repair_conservation(solution: FlowSolution, tol: float = 1e-7) -> FlowSolution:
    """Return a flow solution with exact conservation per commodity.

    Each commodity's flow is decomposed into s->d paths whose total weight is
    clipped to the concurrent flow value ``F`` (extra delivered flow beyond F
    is harmless but unnecessary and is removed for clean schedules), and the
    link flows are rebuilt from the path decomposition.  The concurrent flow
    value is unchanged.
    """
    new_flows: Dict[Commodity, Dict[Edge, float]] = {}
    target = solution.concurrent_flow
    for (s, d), per_edge in solution.flows.items():
        paths = flow_to_paths(per_edge, s, d)
        rebuilt: Dict[Edge, float] = {}
        remaining = target
        for p in sorted(paths, key=lambda p: -p.weight):
            if remaining <= tol:
                break
            take = min(p.weight, remaining)
            for e in p.edges:
                rebuilt[e] = rebuilt.get(e, 0.0) + take
            remaining -= take
        new_flows[(s, d)] = rebuilt
    return FlowSolution(
        concurrent_flow=solution.concurrent_flow,
        flows=new_flows,
        topology=solution.topology,
        solve_seconds=solution.solve_seconds,
        meta={**solution.meta, "conservation_repaired": True},
    )


@dataclass(frozen=True)
class EdgeFlows:
    """A schedule's flow as parallel arrays: entry ``k`` moves ``amount[k]``
    of ``commodities[commodity[k]]`` over ``topology.edges[edge[k]]`` in step
    ``step[k]`` (0-based).  ``commodities`` is what the schedule must serve.
    Every schedule type builds one with its ``edge_flows()`` method.
    """

    topology: Topology
    commodities: List[Commodity]
    commodity: np.ndarray
    edge: np.ndarray
    step: np.ndarray
    amount: np.ndarray
    num_steps: int = 1

    @classmethod
    def collect(cls, topology: Topology,
                entries: Iterable[Tuple[Commodity, Edge, int, float]],
                terminals: Optional[Sequence[int]] = None,
                num_steps: int = 1) -> "EdgeFlows":
        """Build from ``(commodity, edge, step, amount)`` entries, kept in
        order, serving :func:`~repro.core.mcf_link.terminal_commodities` of
        ``terminals`` (all pairs when empty).  Raises ValueError for an edge
        the topology lacks, an unserved commodity or a step out of range."""
        from .mcf_link import terminal_commodities

        commodities = terminal_commodities(topology, terminals or None)
        c_index = {c: i for i, c in enumerate(commodities)}
        e_index = {e: i for i, e in enumerate(topology.edges)}
        ids, amounts = [], []
        for c, e, t, amount in entries:
            if c not in c_index:
                raise ValueError(f"flow of commodity {c} the schedule does not serve")
            if e not in e_index:
                raise ValueError(f"flow over non-existent edge {e}")
            if not 0 <= t < num_steps:
                raise ValueError(f"flow at step {t} outside 0..{num_steps - 1}")
            ids.append((c_index[c], e_index[e], t))
            amounts.append(amount)
        cols = np.array(ids, dtype=np.int64).reshape(-1, 3).T
        return cls(topology, commodities, cols[0], cols[1], cols[2],
                   np.array(amounts, dtype=float), num_steps)


def link_loads(flows: EdgeFlows) -> np.ndarray:
    """Amount crossing each edge in each step, a ``(num_steps, num_edges)``
    array summed in entry order."""
    shape = (flows.num_steps, flows.topology.num_edges)
    return np.bincount(flows.step * shape[1] + flows.edge, weights=flows.amount,
                       minlength=shape[0] * shape[1]).reshape(shape)


def delivered(flows: EdgeFlows) -> np.ndarray:
    """Net amount each commodity receives over all steps: what arrives at its
    destination minus what leaves it, each summed in entry order."""
    ends = np.array(flows.topology.edges, dtype=np.int64).reshape(-1, 2)[flows.edge]
    dest = np.array([d for _, d in flows.commodities], dtype=np.int64)[flows.commodity]
    arrive, leave = (np.bincount(flows.commodity[at], weights=flows.amount[at],
                                 minlength=len(flows.commodities))
                     for at in (ends[:, 1] == dest, ends[:, 0] == dest))
    return arrive - leave

