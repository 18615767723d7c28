"""Generalized Kautz (Imase–Itoh) and classic Kautz digraphs.

The paper identifies generalized Kautz graphs (§5.4, [21] Imase & Itoh 1983) as
a family of expander digraphs that (a) can be constructed for *any* number of
nodes ``N`` and degree ``d`` and (b) come within a small constant factor of the
all-to-all time lower bound of Theorem 1.

Constructions
-------------
Generalized Kautz ``GK(d, N)``:
    node ``u`` has arcs to ``(-d*u - j) mod N`` for ``j = 1..d``.
    Diameter is at most ``ceil(log_d N)``.

The rule may produce self-loops or parallel arcs for particular ``(d, N)``
combinations; those arcs are dropped (as in practical deployments the
corresponding port simply remains unused), so a handful of nodes may have
out-degree slightly below ``d``.  ``strict=True`` raises instead.
"""

from __future__ import annotations

import networkx as nx

from .base import Topology

__all__ = ["generalized_kautz", "kautz"]


def generalized_kautz(degree: int, num_nodes: int, cap: float = 1.0,
                      strict: bool = False) -> Topology:
    """Build the generalized Kautz digraph ``GK(degree, num_nodes)``.

    Parameters
    ----------
    degree:
        Target out-degree ``d`` (number of ports per node).
    num_nodes:
        Number of nodes ``N``; any value >= 2 is accepted.
    strict:
        If True, raise when the Imase–Itoh rule produces a self-loop or a
        duplicate arc (instead of silently dropping it).
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if num_nodes < 2:
        raise ValueError("num_nodes must be >= 2")
    g = nx.DiGraph()
    g.add_nodes_from(range(num_nodes))
    for u in range(num_nodes):
        for j in range(1, degree + 1):
            v = (-degree * u - j) % num_nodes
            if v == u or g.has_edge(u, v):
                if strict:
                    raise ValueError(
                        f"GK({degree},{num_nodes}): degenerate arc {u}->{v} for j={j}"
                    )
                continue
            g.add_edge(u, v, cap=cap)
    topo = Topology(g, name=f"genkautz-d{degree}-n{num_nodes}", default_cap=cap,
                    metadata={"family": "generalized_kautz", "degree": degree})
    return topo


def kautz(degree: int, diameter: int, cap: float = 1.0) -> Topology:
    """Classic Kautz digraph ``K(d, k)`` with ``(d+1) * d^(k-1)`` nodes.

    Nodes are strings ``a_1 a_2 ... a_k`` over an alphabet of ``d+1`` symbols
    with ``a_i != a_{i+1}``; arcs shift the string left by one symbol.  Exposed
    mostly for validating :func:`generalized_kautz` against the classic family
    at the node counts where both exist.
    """
    if degree < 1 or diameter < 1:
        raise ValueError("degree and diameter must be >= 1")
    alphabet = list(range(degree + 1))

    def words(k: int):
        if k == 1:
            for a in alphabet:
                yield (a,)
            return
        for w in words(k - 1):
            for a in alphabet:
                if a != w[-1]:
                    yield w + (a,)

    nodes = sorted(words(diameter))
    index = {w: i for i, w in enumerate(nodes)}
    g = nx.DiGraph()
    g.add_nodes_from(range(len(nodes)))
    for w in nodes:
        for a in alphabet:
            if a == w[-1]:
                continue
            nxt = w[1:] + (a,)
            if index[w] != index[nxt]:
                g.add_edge(index[w], index[nxt], cap=cap)
    return Topology(g, name=f"kautz-d{degree}-k{diameter}", default_cap=cap,
                    metadata={"family": "kautz", "degree": degree, "diameter": diameter})
