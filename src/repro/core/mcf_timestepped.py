"""Time-stepped MCF (tsMCF) formulation for store-and-forward fabrics (§3.1.3).

ML-accelerator fabrics move finite chunks in synchronized, fixed-length time
steps (store-and-forward, no NIC routing).  tsMCF extends the MCF to the
temporal domain: flows are computed on a time-expanded graph with ``l_max``
communication steps.  The LP (eqs. 15-20) minimizes the per-step maximum link
utilization summed over steps, subject to:

* (16) the per-step utilization ``U_t`` upper-bounds every link's load;
* (17) a node can only forward data it has already received (cumulative
  inequality) -- this is the store-and-forward causality constraint;
* (18) intermediate nodes retain nothing at the end;
* (19) each commodity injects and delivers exactly one shard (normalized to 1).

The total ``sum_t U_t`` of an optimal solution equals the optimal all-to-all
time ``1/F`` of the steady-state MCF whenever ``l_max`` is large enough, so the
time-stepped schedule loses nothing asymptotically while being executable in
synchronized steps.

The LP is assembled by :func:`build_timestepped_mcf` and solved through
:func:`repro.engine.solve` (cached, HiGHS).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..constants import FLOW_TOL
from ..engine import solve as engine_solve
from ..topology.base import Topology
from .flow import Commodity, EdgeFlows
from .solver import LPBuilder

__all__ = ["TimeSteppedFlow", "solve_timestepped_mcf"]


@dataclass
class TimeSteppedFlow:
    """Solution of the time-stepped MCF.

    ``flows[(s, d)][(u, v, t)]`` is the fraction of shard (s, d) that node u
    sends to node v during communication step ``t`` (1-based).
    """

    num_steps: int
    flows: Dict[Commodity, Dict[Tuple[int, int, int], float]]
    step_utilizations: List[float]
    topology: Topology
    solve_seconds: float = 0.0
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def total_utilization(self) -> float:
        """Sum over steps of the per-step max link utilization (LP objective).

        This equals the normalized all-to-all completion time in units of
        (shard bytes / link bandwidth); its reciprocal upper-bounds the
        achievable concurrent flow value.
        """
        return float(sum(self.step_utilizations))

    def equivalent_concurrent_flow(self) -> float:
        """Concurrent-flow value implied by the schedule (1 / total utilization)."""
        tot = self.total_utilization
        return float("inf") if tot <= 0 else 1.0 / tot

    def edge_flows(self) -> EdgeFlows:
        """Each commodity's per-step link flows, in commodity order."""
        return EdgeFlows.collect(
            self.topology, ((c, (u, v), t - 1, val) for c, per in self.flows.items()
                            for (u, v, t), val in per.items()),
            self.meta.get("terminals"), self.num_steps)


def build_timestepped_mcf(topology: Topology, num_steps: int,
                          terminals: Optional[Sequence[int]] = None) -> LPBuilder:
    """Assemble the time-stepped MCF LP (eqs. 15-20) with block/COO ops.

    Variables live in two blocks — ``"U"`` (per-step utilizations) and
    ``"f"`` of shape (commodities, edges, steps) — and every constraint
    family is built as COO triplet batches over the (c, e, t) grid.  Only the
    causality family (17) loops in Python, over the small step count.
    """
    from .mcf_link import terminal_commodities, topology_arrays

    commodities = terminal_commodities(topology, terminals)
    edges, tails, heads, cap_arr = topology_arrays(topology)
    num_nodes = topology.num_nodes
    C, E, T = len(commodities), len(edges), int(num_steps)

    lp = LPBuilder()
    u_vars = lp.add_variable_block("U", (T,), lb=0.0, objective=1.0)
    f = lp.add_variable_block("f", (C, E, T), lb=0.0, ub=1.0)

    # Index grids over the (commodity, edge, step) variable space.
    c_ids = np.repeat(np.arange(C), E * T)
    e_ids = np.tile(np.repeat(np.arange(E), T), C)
    t_ids = np.tile(np.arange(T), C * E)          # 0-based step index
    var = f.ravel()
    tail, head = tails[e_ids], heads[e_ids]
    s_of = np.fromiter((c[0] for c in commodities), dtype=np.int64,
                       count=C)[c_ids]
    d_of = np.fromiter((c[1] for c in commodities), dtype=np.int64,
                       count=C)[c_ids]

    # (16): per-step utilization bound, scaled by capacity so that a link of
    # capacity cap can carry cap * U_t per step.  One row per (edge, step).
    lp.add_le_block(
        rows=np.concatenate([e_ids * T + t_ids, np.arange(E * T)]),
        cols=np.concatenate([var, np.tile(u_vars, E)]),
        vals=np.concatenate([np.ones(C * E * T), -np.repeat(cap_arr, T)]),
        rhs=np.zeros(E * T))

    # (17): cumulative store-and-forward causality at intermediate nodes for
    # every step t (the t = 1 case degenerates to "nothing can be forwarded
    # in step 1").  Variable (c, e, tp) with tail u enters row (c, u, t) for
    # every t >= tp; inflow (head u) enters rows with t > tp.
    plus_valid = (tail != s_of) & (tail != d_of)
    minus_valid = (head != s_of) & (head != d_of)
    key_parts, col_parts, val_parts = [], [], []
    for t in range(T):
        plus = plus_valid & (t_ids <= t)
        minus = minus_valid & (t_ids < t)
        key_parts.append((c_ids[plus] * num_nodes + tail[plus]) * T + t)
        col_parts.append(var[plus])
        val_parts.append(np.ones(int(plus.sum())))
        key_parts.append((c_ids[minus] * num_nodes + head[minus]) * T + t)
        col_parts.append(var[minus])
        val_parts.append(-np.ones(int(minus.sum())))
    lp.add_compressed_block(key_parts, col_parts, val_parts)

    # (18): nothing retained at intermediate nodes at the end.
    lp.add_compressed_block(
        [c_ids[plus_valid] * num_nodes + tail[plus_valid],
         c_ids[minus_valid] * num_nodes + head[minus_valid]],
        [var[plus_valid], var[minus_valid]],
        [np.ones(int(plus_valid.sum())), -np.ones(int(minus_valid.sum()))],
        equality=True)

    # (19): source sends exactly 1; destination receives exactly 1.
    emit = tail == s_of
    lp.add_eq_block(c_ids[emit], var[emit], np.ones(int(emit.sum())),
                    np.ones(C))
    recv = head == d_of
    lp.add_eq_block(c_ids[recv], var[recv], np.ones(int(recv.sum())),
                    np.ones(C))

    # Destination never re-emits and source never re-absorbs its own shard.
    gag = (tail == d_of) | (head == s_of)
    k = int(gag.sum())
    lp.add_le_block(np.arange(k), var[gag], np.ones(k), np.zeros(k))
    return lp


def solve_timestepped_mcf(topology: Topology, num_steps: Optional[int] = None,
                          extra_steps: int = 1,
                          terminals: Optional[List[int]] = None) -> TimeSteppedFlow:
    """Solve the time-stepped MCF LP (eqs. 15-20).

    Parameters
    ----------
    topology:
        Direct-connect topology.  Link capacities scale the per-step
        utilization contribution of each link (a link with capacity 2 can move
        twice as much per unit of step time).
    num_steps:
        Number of communication steps ``l_max``.  Must be at least the
        diameter; defaults to ``diameter + extra_steps``.
    extra_steps:
        Slack steps added to the diameter when ``num_steps`` is None.  One or
        two extra steps are usually enough for the LP to reach the
        steady-state optimum ``1/F``.
    terminals:
        Optional subset of nodes that exchange data (all-to-all among the
        terminals); other nodes relay only.  Used on host-NIC augmented
        topologies where only host vertices are endpoints.
    """
    from .mcf_link import terminal_commodities

    if not topology.is_strongly_connected():
        raise ValueError("tsMCF requires a strongly connected topology")
    diam = topology.diameter()
    if num_steps is None:
        num_steps = diam + extra_steps
    if num_steps < diam:
        raise ValueError(f"num_steps={num_steps} below topology diameter {diam}")

    start = time.perf_counter()
    commodities = terminal_commodities(topology, terminals)
    edges = topology.edges

    solution = engine_solve(build_timestepped_mcf, topology, int(num_steps),
                            terminals)
    elapsed = time.perf_counter() - start

    arr = np.asarray(solution.block("f"))
    flows: Dict[Commodity, Dict[Tuple[int, int, int], float]] = {
        c: {} for c in commodities}
    for ci, ei, ti in zip(*np.nonzero(arr > FLOW_TOL)):
        e = edges[ei]
        flows[commodities[ci]][(e[0], e[1], int(ti) + 1)] = float(arr[ci, ei, ti])
    utilizations = [max(float(u), 0.0) for u in solution.block("U")]

    return TimeSteppedFlow(
        num_steps=num_steps,
        flows=flows,
        step_utilizations=utilizations,
        topology=topology,
        solve_seconds=elapsed,
        meta={"method": "tsmcf",
              "num_variables": solution.info.get("num_variables"),
              "num_constraints": solution.info.get("num_constraints"),
              "diameter": diam,
              "terminals": None if terminals is None else sorted(set(terminals)),
              "engine": dict(solution.info)},
    )
