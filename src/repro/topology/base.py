"""Direct-connect topology abstraction.

A :class:`Topology` wraps a directed :class:`networkx.DiGraph` whose nodes are
contiguous integers ``0..N-1`` and whose edges carry a ``cap`` attribute (link
capacity, in normalized bandwidth units where 1.0 is one link of bandwidth
``b``).  All schedule-synthesis algorithms in :mod:`repro.core` operate on this
class.

The paper's setting (§2.2): every node has a bounded number of ports ``d``
(the degree), the link bandwidth is ``b`` and the node (injection) bandwidth is
``B = d*b``.  Bidirectional physical links are modelled as a pair of opposing
directed edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import networkx as nx

Edge = Tuple[int, int]

__all__ = ["Topology", "Edge"]


@dataclass
class Topology:
    """A direct-connect interconnect topology.

    Parameters
    ----------
    graph:
        Directed graph with integer nodes ``0..N-1``.  Each edge may carry a
        ``cap`` attribute; missing capacities default to ``default_cap``.
    name:
        Human readable name, used in reports and benchmark output.
    default_cap:
        Capacity assigned to edges that do not define ``cap``.
    metadata:
        Free-form generator metadata (dimensions, seed, construction params).
    """

    graph: nx.DiGraph
    name: str = "topology"
    default_cap: float = 1.0
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.graph, nx.DiGraph):
            raise TypeError("Topology requires a networkx.DiGraph")
        nodes = sorted(self.graph.nodes())
        if nodes != list(range(len(nodes))):
            raise ValueError(
                "Topology nodes must be contiguous integers 0..N-1; "
                f"got {nodes[:8]}{'...' if len(nodes) > 8 else ''}"
            )
        if any(u == v for u, v in self.graph.edges()):
            raise ValueError("Topology must not contain self loops")
        for u, v, data in self.graph.edges(data=True):
            cap = data.get("cap", self.default_cap)
            if cap <= 0:
                raise ValueError(f"edge ({u},{v}) has non-positive capacity {cap}")
            data["cap"] = float(cap)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``N``."""
        return self.graph.number_of_nodes()

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return self.graph.number_of_edges()

    @property
    def nodes(self) -> List[int]:
        """Sorted node list ``[0, ..., N-1]``."""
        return list(range(self.num_nodes))

    @property
    def edges(self) -> List[Edge]:
        """Deterministically ordered list of directed edges."""
        return sorted(self.graph.edges())

    def capacity(self, u: int, v: int) -> float:
        """Capacity of directed edge ``(u, v)``."""
        return float(self.graph.edges[u, v]["cap"])

    def capacities(self) -> Dict[Edge, float]:
        """Mapping from every directed edge to its capacity."""
        return {(u, v): self.capacity(u, v) for u, v in self.edges}

    def out_edges(self, u: int) -> List[Edge]:
        """Outgoing edges of ``u`` in deterministic order."""
        return sorted(self.graph.out_edges(u))

    def in_edges(self, u: int) -> List[Edge]:
        """Incoming edges of ``u`` in deterministic order."""
        return sorted(self.graph.in_edges(u))

    def successors(self, u: int) -> List[int]:
        """Sorted successor nodes of ``u``."""
        return sorted(self.graph.successors(u))

    def predecessors(self, u: int) -> List[int]:
        """Sorted predecessor nodes of ``u``."""
        return sorted(self.graph.predecessors(u))

    def has_edge(self, u: int, v: int) -> bool:
        """Whether directed edge ``(u, v)`` exists."""
        return self.graph.has_edge(u, v)

    def out_degree(self, u: int) -> int:
        """Out-degree of node ``u``."""
        return int(self.graph.out_degree(u))

    def in_degree(self, u: int) -> int:
        """In-degree of node ``u``."""
        return int(self.graph.in_degree(u))

    def degree(self) -> int:
        """The common out-degree ``d`` if the graph is regular.

        Raises
        ------
        ValueError
            If out-degrees differ across nodes (e.g. punctured topologies).
        """
        degrees = {self.out_degree(u) for u in self.nodes}
        if len(degrees) != 1:
            raise ValueError(f"topology is not out-regular: degrees {sorted(degrees)}")
        return degrees.pop()

    def max_degree(self) -> int:
        """Maximum out-degree across nodes."""
        return max(self.out_degree(u) for u in self.nodes)

    def is_regular(self) -> bool:
        """True if every node has identical in- and out-degree."""
        out = {self.out_degree(u) for u in self.nodes}
        inn = {self.in_degree(u) for u in self.nodes}
        return len(out) == 1 and len(inn) == 1 and out == inn

    def is_bidirectional(self) -> bool:
        """True if for every edge (u,v) the reverse edge (v,u) exists."""
        return all(self.graph.has_edge(v, u) for u, v in self.graph.edges())

    def is_strongly_connected(self) -> bool:
        """True if there is a directed path between every ordered node pair."""
        return nx.is_strongly_connected(self.graph)

    def diameter(self) -> int:
        """Directed diameter (longest shortest path, in hops)."""
        if not self.is_strongly_connected():
            raise ValueError("diameter undefined: topology is not strongly connected")
        return int(nx.diameter(self.graph))

    def commodities(self) -> Iterator[Tuple[int, int]]:
        """Iterate over all ``N(N-1)`` ordered (source, destination) pairs."""
        n = self.num_nodes
        for s in range(n):
            for d in range(n):
                if s != d:
                    yield (s, d)

    # ------------------------------------------------------------------ #
    # Derived topologies
    # ------------------------------------------------------------------ #
    def copy(self, name: Optional[str] = None) -> "Topology":
        """Deep copy, optionally renamed."""
        return Topology(
            graph=self.graph.copy(),
            name=name or self.name,
            default_cap=self.default_cap,
            metadata=dict(self.metadata),
        )

    def with_capacity(self, cap: float, name: Optional[str] = None) -> "Topology":
        """Return a copy with every edge capacity set to ``cap``."""
        g = self.graph.copy()
        for _, _, data in g.edges(data=True):
            data["cap"] = float(cap)
        return Topology(g, name=name or self.name, default_cap=cap, metadata=dict(self.metadata))

    def remove_edges(self, edges: Iterable[Edge], name: Optional[str] = None) -> "Topology":
        """Return a copy with the given directed edges removed.

        Raises ``ValueError`` if the result is not strongly connected, because
        all-to-all schedules are undefined on disconnected topologies.
        """
        g = self.graph.copy()
        for u, v in edges:
            if g.has_edge(u, v):
                g.remove_edge(u, v)
        topo = Topology(g, name=name or f"{self.name}-punctured", default_cap=self.default_cap,
                        metadata=dict(self.metadata))
        if not topo.is_strongly_connected():
            raise ValueError("edge removal disconnected the topology")
        return topo

    def remove_nodes(self, nodes: Iterable[int], name: Optional[str] = None) -> "Topology":
        """Return a copy with the given nodes removed and nodes relabelled 0..N'-1."""
        removed = set(nodes)
        g = self.graph.copy()
        g.remove_nodes_from(removed)
        mapping = {old: new for new, old in enumerate(sorted(g.nodes()))}
        g = nx.relabel_nodes(g, mapping)
        topo = Topology(g, name=name or f"{self.name}-node-punctured",
                        default_cap=self.default_cap,
                        metadata={**self.metadata, "removed_nodes": sorted(removed)})
        if topo.num_nodes < 2:
            raise ValueError("node removal left fewer than 2 nodes")
        if not topo.is_strongly_connected():
            raise ValueError("node removal disconnected the topology")
        return topo

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_edges(
        num_nodes: int,
        edges: Sequence[Edge],
        name: str = "topology",
        cap: float = 1.0,
        bidirectional: bool = False,
        metadata: Optional[Mapping[str, object]] = None,
    ) -> "Topology":
        """Build a topology from an explicit edge list.

        Parameters
        ----------
        bidirectional:
            If True, each listed edge ``(u, v)`` also adds ``(v, u)``.
        """
        g = nx.DiGraph()
        g.add_nodes_from(range(num_nodes))
        for u, v in edges:
            if u == v:
                continue
            g.add_edge(u, v, cap=cap)
            if bidirectional:
                g.add_edge(v, u, cap=cap)
        return Topology(g, name=name, default_cap=cap, metadata=dict(metadata or {}))

    @staticmethod
    def from_undirected(graph: nx.Graph, name: str = "topology", cap: float = 1.0,
                        metadata: Optional[Mapping[str, object]] = None) -> "Topology":
        """Convert an undirected graph to a bidirectional direct-connect topology."""
        mapping = {old: new for new, old in enumerate(sorted(graph.nodes()))}
        g = nx.DiGraph()
        g.add_nodes_from(range(graph.number_of_nodes()))
        for u, v in graph.edges():
            a, b = mapping[u], mapping[v]
            if a == b:
                continue
            g.add_edge(a, b, cap=cap)
            g.add_edge(b, a, cap=cap)
        return Topology(g, name=name, default_cap=cap, metadata=dict(metadata or {}))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Topology(name={self.name!r}, N={self.num_nodes}, E={self.num_edges})"
