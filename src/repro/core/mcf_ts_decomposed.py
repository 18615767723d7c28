"""Decomposed time-stepped MCF (§3.1.3, final remark).

The paper notes that the time-stepped LP of §3.1.3 "can be decomposed into a
source-based LP + child LPs as described in §3.1.2".  This module implements
that decomposition, which matters because the monolithic tsMCF has
``O(N^2 * E * l_max)`` variables and becomes the bottleneck well before the
steady-state decomposed MCF does.

Master LP (source-grouped, time-stepped):
    variables ``g[s, (u, v), t]`` (total flow of source ``s``'s shards on link
    (u, v) at step t) and per-step utilizations ``U_t``;
    minimize ``sum_t U_t`` subject to

    * per-link, per-step utilization:  ``sum_s g[s, e, t] <= cap(e) * U_t``;
    * store-and-forward causality at every node ``u != s``: the amount of
      group-s data forwarded by ``u`` up to step t cannot exceed the amount
      received before step t;
    * every destination ``u != s`` nets exactly one shard of group s by the
      end (received minus re-forwarded equals 1), and the source injects
      exactly ``N - 1`` shards and never re-absorbs its own group.

Child LPs (one per source): split the grouped flow into per-destination
shard flows on the time-expanded graph, with the master's ``g[s, e, t]``
acting as per-link, per-step capacities -- the same structure as the
steady-state child LP of §3.1.2, plus the causality constraints.

The decomposition preserves the optimal ``sum_t U_t`` (the grouped flow is an
aggregation of any per-commodity solution, and any grouped solution splits by
per-source flow decomposition on the time-expanded DAG).

Master and children are assembled by :func:`build_ts_master` and
:func:`build_ts_child` and solved through :func:`repro.engine.solve`; the
independent child LPs run serially or, with ``n_jobs > 1``, on a process
pool.
"""

from __future__ import annotations

import time
from typing import AbstractSet, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..constants import FLOW_TOL
from ..engine import solve as engine_solve
from ..topology.base import Topology
from .flow import Commodity
from .mcf_decomposed import map_child_lps
from .mcf_link import terminal_commodities, topology_arrays
from .mcf_timestepped import TimeSteppedFlow
from .solver import LPBuilder

__all__ = ["solve_timestepped_mcf_decomposed"]


def build_ts_master(topology: Topology, steps: Sequence[int],
                    sources: Sequence[int], terminal_set: AbstractSet[int]) -> LPBuilder:
    """Assemble the source-grouped time-stepped master LP (block/COO ops).

    One source group per entry of ``sources``, in the order given.
    """
    edges, tails, heads, cap_arr = topology_arrays(topology)
    num_nodes = topology.num_nodes
    S, E, T = len(sources), len(edges), len(steps)
    src_arr = np.asarray(sources, dtype=np.int64)
    term_arr = np.asarray(sorted(terminal_set), dtype=np.int64)
    is_terminal = np.zeros(num_nodes, dtype=bool)
    is_terminal[term_arr] = True

    lp = LPBuilder()
    u_vars = lp.add_variable_block("U", (T,), lb=0.0, objective=1.0)
    g = lp.add_variable_block("g", (S, E, T), lb=0.0)

    s_ids = np.repeat(np.arange(S), E * T)
    e_ids = np.tile(np.repeat(np.arange(E), T), S)
    t_ids = np.tile(np.arange(T), S * E)          # 0-based step index
    var = g.ravel()
    tail, head = tails[e_ids], heads[e_ids]
    s_of = src_arr[s_ids]

    # Per-step utilization bound: one row per (edge, step).
    lp.add_le_block(
        rows=np.concatenate([e_ids * T + t_ids, np.arange(E * T)]),
        cols=np.concatenate([var, np.tile(u_vars, E)]),
        vals=np.concatenate([np.ones(S * E * T), -np.repeat(cap_arr, T)]),
        rhs=np.zeros(E * T))

    # Causality at every node u != s: cumulative forwarded <= cumulative
    # received (strictly earlier steps).  Data kept for sinking simply stays
    # in the buffer.
    plus_valid = tail != s_of
    minus_valid = head != s_of
    key_parts, col_parts, val_parts = [], [], []
    for t in range(T):
        plus = plus_valid & (t_ids <= t)
        minus = minus_valid & (t_ids < t)
        key_parts.append((s_ids[plus] * num_nodes + tail[plus]) * T + t)
        col_parts.append(var[plus])
        val_parts.append(np.ones(int(plus.sum())))
        key_parts.append((s_ids[minus] * num_nodes + head[minus]) * T + t)
        col_parts.append(var[minus])
        val_parts.append(-np.ones(int(minus.sum())))
    lp.add_compressed_block(key_parts, col_parts, val_parts)

    # Net retention at the end: 1 shard for terminals, 0 for relays
    # (in minus out, at every node u != s).
    lp.add_compressed_block(
        [s_ids[minus_valid] * num_nodes + head[minus_valid],
         s_ids[plus_valid] * num_nodes + tail[plus_valid]],
        [var[minus_valid], var[plus_valid]],
        [np.ones(int(minus_valid.sum())), -np.ones(int(plus_valid.sum()))],
        equality=True,
        rhs=lambda uniq: is_terminal[uniq % num_nodes].astype(float))

    # Source injects exactly one shard per destination and never re-absorbs.
    emit = tail == s_of
    sinks_per_source = np.fromiter(
        (sum(1 for u in term_arr if u != s) for s in sources),
        dtype=float, count=S)
    lp.add_eq_block(s_ids[emit], var[emit], np.ones(int(emit.sum())),
                    sinks_per_source)
    reabsorb = head == s_of
    k = int(reabsorb.sum())
    lp.add_le_block(np.arange(k), var[reabsorb], np.ones(k), np.zeros(k))
    return lp


def _solve_ts_master(topology: Topology, steps: List[int], sources: List[int],
                     terminal_set: set) -> Tuple[float, Dict[int, Dict[Tuple[int, int, int], float]], List[float], float]:
    """Source-grouped time-stepped master LP.

    Returns (total utilization, grouped flows per source, per-step utilizations,
    solve seconds).
    """
    start = time.perf_counter()
    solution = engine_solve(build_ts_master, topology, steps, sources, terminal_set)
    elapsed = time.perf_counter() - start

    edges = topology.edges
    arr = np.asarray(solution.block("g"))
    grouped: Dict[int, Dict[Tuple[int, int, int], float]] = {s: {} for s in sources}
    for si, ei, ti in zip(*np.nonzero(arr > FLOW_TOL)):
        e = edges[ei]
        grouped[sources[si]][(e[0], e[1], steps[ti])] = float(arr[si, ei, ti])
    utilizations = [max(float(u), 0.0) for u in solution.block("U")]
    return float(sum(utilizations)), grouped, utilizations, elapsed


def build_ts_child(topology: Topology, source: int, destinations: Sequence[int],
                   grouped: Mapping[Tuple[int, int, int], float],
                   steps: Sequence[int]) -> LPBuilder:
    """Assemble the per-source time-stepped child LP (block/COO ops).

    The ``"f"`` block has one row per destination, in the order given, and
    one column per ``(u, v, t)`` key of ``grouped``, in sorted order.
    """
    num_nodes = topology.num_nodes
    used = sorted(grouped.keys())            # (u, v, t) triples with positive flow
    D, K, T = len(destinations), len(used), len(steps)
    k_tail = np.fromiter((k[0] for k in used), dtype=np.int64, count=K)
    k_head = np.fromiter((k[1] for k in used), dtype=np.int64, count=K)
    k_step = np.fromiter((k[2] for k in used), dtype=np.int64, count=K)
    group_arr = np.fromiter((grouped[k] for k in used), dtype=float, count=K)
    dest_arr = np.asarray(destinations, dtype=np.int64)

    lp = LPBuilder()
    f = lp.add_variable_block("f", (D, K), lb=0.0, objective=1.0)

    # Grouped flow acts as per-(link, step) capacity.
    lp.add_le_block(rows=np.repeat(np.arange(K), D), cols=f.T.ravel(),
                    vals=np.ones(D * K), rhs=group_arr)

    d_ids = np.repeat(np.arange(D), K)
    k_ids = np.tile(np.arange(K), D)
    var = f.ravel()
    tail, head = k_tail[k_ids], k_head[k_ids]
    step = k_step[k_ids]
    d_of = dest_arr[d_ids]

    # Causality per destination at intermediate nodes (u != source, u != d).
    plus_valid = (tail != source) & (tail != d_of)
    minus_valid = (head != source) & (head != d_of)
    key_parts, col_parts, val_parts = [], [], []
    for t in steps:
        plus = plus_valid & (step <= t)
        minus = minus_valid & (step < t)
        key_parts.append((d_ids[plus] * num_nodes + tail[plus]) * (T + 1) + t)
        col_parts.append(var[plus])
        val_parts.append(np.ones(int(plus.sum())))
        key_parts.append((d_ids[minus] * num_nodes + head[minus]) * (T + 1) + t)
        col_parts.append(var[minus])
        val_parts.append(-np.ones(int(minus.sum())))
    lp.add_compressed_block(key_parts, col_parts, val_parts)

    # Relays retain nothing of this shard.
    lp.add_compressed_block(
        [d_ids[plus_valid] * num_nodes + tail[plus_valid],
         d_ids[minus_valid] * num_nodes + head[minus_valid]],
        [var[plus_valid], var[minus_valid]],
        [np.ones(int(plus_valid.sum())), -np.ones(int(minus_valid.sum()))],
        equality=True)

    # The destination receives exactly one shard and never re-emits it.
    recv = head == d_of
    lp.add_ge_block(d_ids[recv], var[recv], np.ones(int(recv.sum())),
                    np.full(D, 1.0 - 1e-7))
    reemit = tail == d_of
    k = int(reemit.sum())
    lp.add_le_block(np.arange(k), var[reemit], np.ones(k), np.zeros(k))
    return lp


def _solve_ts_child(topology: Topology, source: int, destinations: List[int],
                    grouped: Dict[Tuple[int, int, int], float],
                    steps: List[int]) -> Tuple[Dict[Commodity, Dict[Tuple[int, int, int], float]], float]:
    """Split one source's grouped time-stepped flow into per-destination flows."""
    start = time.perf_counter()
    used = sorted(grouped.keys())
    solution = engine_solve(build_ts_child, topology, source, destinations,
                            grouped, steps)
    elapsed = time.perf_counter() - start

    arr = np.asarray(solution.block("f"))
    flows: Dict[Commodity, Dict[Tuple[int, int, int], float]] = {
        (source, d): {} for d in destinations}
    for di, ki in zip(*np.nonzero(arr > FLOW_TOL)):
        flows[(source, destinations[di])][used[ki]] = float(arr[di, ki])
    return flows, elapsed


def _ts_child_worker(args) -> Tuple[int, Dict[Commodity, Dict[Tuple[int, int, int], float]], float]:
    topology, source, destinations, grouped, steps = args
    flows, elapsed = _solve_ts_child(topology, source, destinations, grouped, steps)
    return source, flows, elapsed


def solve_timestepped_mcf_decomposed(topology: Topology, num_steps: Optional[int] = None,
                                     extra_steps: int = 1,
                                     terminals: Optional[List[int]] = None,
                                     n_jobs: int = 1) -> TimeSteppedFlow:
    """Decomposed tsMCF: source-grouped master LP + per-source child LPs.

    Same interface and semantics as
    :func:`repro.core.mcf_timestepped.solve_timestepped_mcf`; the meta dict
    records the master/child timing breakdown (keys ``master_seconds`` and
    ``child_seconds_each``).  ``n_jobs > 1`` runs the independent child LPs
    on a process pool.
    """
    if not topology.is_strongly_connected():
        raise ValueError("tsMCF requires a strongly connected topology")
    diam = topology.diameter()
    if num_steps is None:
        num_steps = diam + extra_steps
    if num_steps < diam:
        raise ValueError(f"num_steps={num_steps} below topology diameter {diam}")
    steps = list(range(1, num_steps + 1))

    commodities = terminal_commodities(topology, terminals)
    sources = sorted({s for s, _ in commodities})
    terminal_set = {s for s, _ in commodities} | {d for _, d in commodities}

    total_start = time.perf_counter()
    total_util, grouped, utilizations, master_seconds = _solve_ts_master(
        topology, steps, sources, terminal_set)

    args = [(topology, s, sorted({d for src, d in commodities if src == s}),
             grouped[s], steps) for s in sources]
    flows: Dict[Commodity, Dict[Tuple[int, int, int], float]] = {}
    child_seconds: List[float] = []
    for s, child_flows, elapsed in map_child_lps(_ts_child_worker, args, n_jobs):
        flows.update(child_flows)
        child_seconds.append(elapsed)

    return TimeSteppedFlow(
        num_steps=num_steps,
        flows=flows,
        step_utilizations=utilizations,
        topology=topology,
        solve_seconds=time.perf_counter() - total_start,
        meta={"method": "tsmcf-decomposed", "diameter": diam,
              "master_seconds": master_seconds,
              "child_seconds_each": child_seconds,
              "terminals": None if terminals is None else sorted(set(terminals))},
    )
