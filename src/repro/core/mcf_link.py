"""Link-variable based max-concurrent MCF formulation (§3.1.1, eqs. 1-5).

Maximizes the common concurrent rate ``F`` at which every one of the
``N(N-1)`` commodities (ordered node pairs) can flow, subject to link
capacities.  Variables ``f[(s,d),(u,v)]`` give the amount of commodity (s,d)
routed on each directed link.  Flow conservation is written as an inequality
(outflow <= inflow at every intermediate node) and the demand constraint is
only enforced at the sink, exactly as in the paper; the optional
post-processing step (:func:`repro.core.flow.repair_conservation`) restores
exact conservation for schedule generation.

This formulation has ``O(N^2 * E) = O(k N^3)`` variables for a k-regular graph
and is the scalability bottleneck the decomposition of §3.1.2 addresses.

The LP is assembled by :func:`build_link_mcf` and solved through
:func:`repro.engine.solve`, which adds content-addressed caching on top.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..engine import solve as engine_solve
from ..topology.base import Topology
from .flow import Commodity, FlowSolution, flows_from_array, repair_conservation
from .solver import LPBuilder

__all__ = ["solve_link_mcf", "terminal_commodities", "terminal_nodes",
           "topology_arrays"]


def topology_arrays(topology: Topology):
    """Edge tail / head / capacity ndarrays in the deterministic edge order.

    Shared by all vectorized MCF assemblers: the link structure enters the
    COO constraint triplets through these arrays instead of per-edge Python
    loops.
    """
    edges = topology.edges
    caps = topology.capacities()
    tails = np.fromiter((e[0] for e in edges), dtype=np.int64, count=len(edges))
    heads = np.fromiter((e[1] for e in edges), dtype=np.int64, count=len(edges))
    cap_arr = np.fromiter((caps[e] for e in edges), dtype=float, count=len(edges))
    return edges, tails, heads, cap_arr


def terminal_nodes(topology: Topology,
                   terminals: Optional[Sequence[int]] = None) -> List[int]:
    """The sorted terminal set, every node by default.

    Raises ValueError for a terminal outside the node range or for fewer
    than two terminals.
    """
    if terminals is None:
        return list(topology.nodes)
    nodes = sorted(set(int(t) for t in terminals))
    for t in nodes:
        if not (0 <= t < topology.num_nodes):
            raise ValueError(f"terminal {t} outside node range")
    if len(nodes) < 2:
        raise ValueError("need at least two terminals")
    return nodes


def terminal_commodities(topology: Topology,
                         terminals: Optional[Sequence[int]] = None) -> List[Commodity]:
    """Ordered (source, destination) pairs restricted to a terminal set.

    ``terminals`` defaults to all nodes (the plain all-to-all commodity set).
    On host-NIC augmented topologies (§3.2.2) only the host vertices exchange
    data, so the commodity set is restricted to them while NIC vertices act as
    pure relays.
    """
    nodes = terminal_nodes(topology, terminals)
    return [(s, d) for s in nodes for d in nodes if s != d]


def build_link_mcf(topology: Topology,
                   terminals: Optional[Sequence[int]] = None,
                   demand: Optional[Mapping[Commodity, float]] = None) -> LPBuilder:
    """Assemble the link-based MCF LP (eqs. 1-5) with block/COO numpy ops.

    The O(N^2 * E) flow variables live in one ``"f"`` block of shape
    (commodities, edges); every constraint family (capacity, conservation,
    sink demand, sink no-re-emit) is built as one COO triplet batch over the
    full (commodity, edge) grid instead of per-row Python loops.
    """
    commodities = terminal_commodities(topology, terminals)
    edges, tails, heads, cap_arr = topology_arrays(topology)
    num_nodes = topology.num_nodes
    C, E = len(commodities), len(edges)
    if demand is None:
        demand_arr = np.ones(C)
    else:
        demand_arr = np.fromiter((demand[c] for c in commodities),
                                 dtype=float, count=C)

    lp = LPBuilder()
    f_col = lp.add_variable_block("F", 1, lb=0.0, objective=1.0)[0]
    f = lp.add_variable_block("f", (C, E), lb=0.0)

    # (2) capacity per link: sum over commodities.
    lp.add_le_block(rows=np.repeat(np.arange(E), C), cols=f.T.ravel(),
                    vals=np.ones(C * E), rhs=cap_arr)

    # The remaining families are masks over the full (commodity, edge) grid:
    # an edge contributes +1 at its tail's row and -1 at its head's row.
    c_ids = np.repeat(np.arange(C), E)
    e_ids = np.tile(np.arange(E), C)
    var = f.ravel()
    tail, head = tails[e_ids], heads[e_ids]
    s_of = np.fromiter((c[0] for c in commodities), dtype=np.int64,
                       count=C)[c_ids]
    d_of = np.fromiter((c[1] for c in commodities), dtype=np.int64,
                       count=C)[c_ids]

    # (3) conservation (inequality form) at intermediate nodes: rows are the
    # used (commodity, node) pairs, compressed to consecutive ids.
    plus = (tail != s_of) & (tail != d_of)
    minus = (head != s_of) & (head != d_of)
    lp.add_compressed_block(
        [c_ids[plus] * num_nodes + tail[plus],
         c_ids[minus] * num_nodes + head[minus]],
        [var[plus], var[minus]],
        [np.ones(int(plus.sum())), -np.ones(int(minus.sum()))])

    # (4) demand at the sink: inflow at d covers demand * F.
    sink = head == d_of
    lp.add_le_block(np.concatenate([c_ids[sink], np.arange(C)]),
                    np.concatenate([var[sink], np.full(C, f_col)]),
                    np.concatenate([-np.ones(int(sink.sum())), demand_arr]),
                    np.zeros(C))

    # The sink never re-emits its own commodity, otherwise circulation
    # through the sink could satisfy (4) without delivering anything (the
    # gross-inflow exploit the paper's post-processing step also guards
    # against).
    reemit = tail == d_of
    k = int(reemit.sum())
    lp.add_le_block(np.arange(k), var[reemit], np.ones(k), np.zeros(k))
    return lp


def solve_link_mcf(topology: Topology, repair: bool = True,
                   demand: Optional[Dict[Commodity, float]] = None,
                   terminals: Optional[Sequence[int]] = None) -> FlowSolution:
    """Solve the link-based max-concurrent MCF for all-to-all traffic.

    Parameters
    ----------
    topology:
        Direct-connect topology with link capacities.
    repair:
        If True (default), post-process the returned flows so that every
        commodity satisfies exact conservation and delivers exactly ``F``.
    demand:
        Optional per-commodity relative demand (defaults to 1 for every
        ordered pair, i.e. the all-to-all personalized exchange).  A commodity
        with demand ``w`` must receive ``w * F`` flow at its destination.
    terminals:
        Optional subset of nodes that exchange data (all-to-all among the
        terminals); other nodes only relay.  Used for host-NIC augmented
        topologies where only host vertices are endpoints.

    Returns
    -------
    FlowSolution
        The concurrent flow value ``F`` and per-commodity link flows.
    """
    if not topology.is_strongly_connected():
        raise ValueError("MCF requires a strongly connected topology")

    start = time.perf_counter()
    commodities = terminal_commodities(topology, terminals)
    solution = engine_solve(build_link_mcf, topology, terminals, demand,
                            maximize=True)
    elapsed = time.perf_counter() - start

    flows = flows_from_array(solution.block("f"), commodities, topology.edges)

    result = FlowSolution(
        concurrent_flow=float(solution.block("F")[0]),
        flows=flows,
        topology=topology,
        solve_seconds=elapsed,
        meta={"method": "mcf-link",
              "num_variables": solution.info.get("num_variables"),
              "num_constraints": solution.info.get("num_constraints"),
              "engine": dict(solution.info)},
    )
    if repair:
        result = repair_conservation(result)
        result.solve_seconds = elapsed
    return result
