"""Miscellaneous reference topologies: ring, chain and complete graph.

These are not headline topologies in the paper's evaluation but serve as
analytically tractable fixtures for tests (the optimal all-to-all MCF value on
a ring and on a complete graph is known in closed form) and as additional
coverage for the topology-agnostic claims of the MCF algorithms.
"""

from __future__ import annotations

import networkx as nx

from .base import Topology

__all__ = ["ring", "bidirectional_ring", "chain", "complete"]


def ring(num_nodes: int, cap: float = 1.0) -> Topology:
    """Unidirectional ring: node ``u`` connects to ``(u+1) mod N`` (degree 1)."""
    if num_nodes < 2:
        raise ValueError("ring needs at least 2 nodes")
    g = nx.DiGraph()
    g.add_nodes_from(range(num_nodes))
    for u in range(num_nodes):
        g.add_edge(u, (u + 1) % num_nodes, cap=cap)
    return Topology(g, name=f"ring-{num_nodes}", default_cap=cap,
                    metadata={"family": "ring"})


def bidirectional_ring(num_nodes: int, cap: float = 1.0) -> Topology:
    """Bidirectional ring (degree 2)."""
    if num_nodes < 3:
        raise ValueError("bidirectional ring needs at least 3 nodes")
    g = nx.DiGraph()
    g.add_nodes_from(range(num_nodes))
    for u in range(num_nodes):
        v = (u + 1) % num_nodes
        g.add_edge(u, v, cap=cap)
        g.add_edge(v, u, cap=cap)
    return Topology(g, name=f"biring-{num_nodes}", default_cap=cap,
                    metadata={"family": "bidirectional_ring"})


def chain(num_nodes: int, cap: float = 1.0) -> Topology:
    """Bidirectional line/chain topology."""
    if num_nodes < 2:
        raise ValueError("chain needs at least 2 nodes")
    g = nx.DiGraph()
    g.add_nodes_from(range(num_nodes))
    for u in range(num_nodes - 1):
        g.add_edge(u, u + 1, cap=cap)
        g.add_edge(u + 1, u, cap=cap)
    return Topology(g, name=f"chain-{num_nodes}", default_cap=cap,
                    metadata={"family": "chain"})


def complete(num_nodes: int, cap: float = 1.0) -> Topology:
    """Complete directed graph (every ordered pair connected)."""
    if num_nodes < 2:
        raise ValueError("complete graph needs at least 2 nodes")
    g = nx.DiGraph()
    g.add_nodes_from(range(num_nodes))
    for u in range(num_nodes):
        for v in range(num_nodes):
            if u != v:
                g.add_edge(u, v, cap=cap)
    return Topology(g, name=f"complete-{num_nodes}", default_cap=cap,
                    metadata={"family": "complete"})

