"""Decomposed link-based MCF: master LP + N parallelizable child LPs (§3.1.2).

The master LP (eqs. 6-9) groups the ``N(N-1)`` commodities into ``N``
source-rooted grouped flows, reducing the variable count from ``O(k N^3)`` to
``O(k N^2)``.  Its source-based conservation constraint (eq. 8) states that at
every node ``u != s`` the grouped flow of source ``s`` entering ``u`` must
cover both the flow forwarded onwards and the share ``F`` sunk at ``u``.

Each child LP (eqs. 10-14), one per source ``s``, then splits the grouped flow
``f'_s`` into per-destination commodity flows on a graph whose link capacities
are set to the master solution, minimizing total flow (which discourages
gratuitous detours).  Child LPs are independent: they run serially or, with
``n_jobs > 1``, on a process pool of that size (:func:`map_child_lps`, which
the decomposed tsMCF shares), whose workers' counters reach the parent
through :mod:`repro.obs`.

The decomposition returns the same optimal concurrent flow value ``F`` as the
original MCF (the grouped flow is a relaxation whose value is achievable, and
any per-commodity solution aggregates to a feasible grouped flow), although
the individual link flows may differ.

The master and child LPs are assembled by :func:`build_master_lp` and
:func:`build_child_lp` and solved through :func:`repro.engine.solve`, so
repeated solves of the same topology hit the solution cache.

Every master solve, cached or not, is checked against a certificate that
does not trust the solver: the capacity-row shadow prices, used as link
lengths, give a weak-duality upper bound on F
(:func:`~repro.core.lower_bound.dual_bound_concurrent_flow`).  F may not
exceed it by more than :data:`CERTIFICATE_TOL`; the bound's relative excess
over F, the optimality gap the duals prove, is recorded with the solution.
:func:`solve_mcf_objective` stops after the master LP, for callers that
need F alone.  Its LP (:func:`build_objective_lp`) is solved without a
vertex, and on tori and hypercubes it is a one-source LP whose expanded
duals are certified on the full topology.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..constants import FLOW_TOL
from ..engine import solve as engine_solve
from ..topology.base import Edge, Topology
from .flow import Commodity, FlowSolution, flows_from_array, repair_conservation
from .lower_bound import dual_bound_concurrent_flow
from .mcf_link import terminal_nodes, topology_arrays
from .solver import LPBuilder, SolverError

__all__ = ["solve_decomposed_mcf", "solve_master_lp", "solve_child_lp",
           "solve_mcf_objective", "certify_master", "CERTIFICATE_TOL",
           "DecomposedTimings", "MasterSolution", "ConcurrentFlowValue"]

#: How far, relative, F may exceed its dual bound: ten times HiGHS's default
#: primal feasibility tolerance (1e-7), the slack a solver-feasible flow can
#: gain over a truly feasible one.  Any more is a weak-duality violation.
CERTIFICATE_TOL = 1e-6


@dataclass
class MasterSolution:
    """Master LP output: concurrent flow value and grouped per-source flows."""

    concurrent_flow: float
    grouped_flows: Dict[int, Dict[Edge, float]]
    solve_seconds: float
    info: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class ConcurrentFlowValue:
    """The optimal concurrent flow F of a topology, without any flows.

    The synthesize artifact of the ``mcf-objective`` scheme: enough for
    results that read F alone (Fig. 10's all-to-all time 1/F), and nothing
    that could be lowered or simulated.  ``meta["engine"]`` is the
    ``mcf-objective`` LP's engine info, certificate included.
    """

    concurrent_flow: float
    num_nodes: int
    meta: Dict[str, object] = field(default_factory=dict)

    def all_to_all_time(self) -> float:
        """Normalized all-to-all time of an optimal schedule, 1/F."""
        return 1.0 / self.concurrent_flow


@dataclass
class DecomposedTimings:
    """Wall-clock breakdown reported in Fig. 7 (master / child / total)."""

    master_seconds: float = 0.0
    child_seconds_each: List[float] = field(default_factory=list)
    total_seconds: float = 0.0

    @property
    def max_child_seconds(self) -> float:
        """Per-child max — the critical path when children run fully in parallel."""
        return max(self.child_seconds_each, default=0.0)

    @property
    def parallel_seconds(self) -> float:
        """Estimated runtime when all child LPs run in parallel on N cores."""
        return self.master_seconds + self.max_child_seconds


def build_master_lp(topology: Topology,
                    terminals: Optional[Sequence[int]] = None) -> LPBuilder:
    """Assemble the source-grouped master LP (eqs. 6-9) with block/COO ops.

    One source group per terminal, in sorted order; ``terminals`` defaults
    to every node.
    """
    edges, tails, heads, cap_arr = topology_arrays(topology)
    sources = terminal_nodes(topology, terminals)
    S, E = len(sources), len(edges)

    lp = LPBuilder()
    f_col = lp.add_variable_block("F", 1, lb=0.0, objective=1.0)[0]
    g = lp.add_variable_block("g", (S, E), lb=0.0)

    # (7) capacity per link over all source groups; its duals certify F.
    lp.add_le_block(rows=np.repeat(np.arange(E), S), cols=g.T.ravel(),
                    vals=np.ones(S * E), rhs=cap_arr, name="capacity")
    # The terminal set is exactly the source set.
    src_arr = np.asarray(sources, dtype=np.int64)
    _add_source_conservation(lp, f_col, g, src_arr, src_arr, tails, heads,
                             topology.num_nodes)
    return lp


def _add_source_conservation(lp: LPBuilder, f_col: int, g: np.ndarray,
                             sources: np.ndarray, terminals: np.ndarray,
                             tails: np.ndarray, heads: np.ndarray,
                             num_nodes: int) -> None:
    """(8) source-based conservation of the grouped flows ``g[si, e]``.

    F + outflow <= inflow at every terminal u != s; non-terminal relays
    only forward (outflow <= inflow).  Rows are keyed (source index, node)
    and compressed to consecutive ids; the F column enters the rows of
    terminal nodes.
    """
    S, E = g.shape
    s_ids = np.repeat(np.arange(S), E)
    e_ids = np.tile(np.arange(E), S)
    var = g.ravel()
    tail, head = tails[e_ids], heads[e_ids]
    s_of = sources[s_ids]
    plus = tail != s_of
    minus = head != s_of
    si_grid = np.repeat(np.arange(S), len(terminals))
    u_grid = np.tile(terminals, S)
    f_rows = u_grid != sources[si_grid]
    lp.add_compressed_block(
        [s_ids[plus] * num_nodes + tail[plus],
         s_ids[minus] * num_nodes + head[minus],
         si_grid[f_rows] * num_nodes + u_grid[f_rows]],
        [var[plus], var[minus], np.full(int(f_rows.sum()), f_col)],
        [np.ones(int(plus.sum())), -np.ones(int(minus.sum())),
         np.ones(int(f_rows.sum()))])


def certify_master(topology: Topology, concurrent_flow: float,
                   capacity_duals: np.ndarray,
                   terminals: Optional[List[int]] = None) -> Dict[str, float]:
    """Check a master LP's F against the dual bound of its capacity duals.

    Returns ``{"concurrent_flow", "bound", "gap"}`` with ``gap`` the bound's
    relative excess over F: how close to optimal the duals prove F to be.
    Raises :class:`SolverError` when F exceeds the bound by more than
    :data:`CERTIFICATE_TOL` (no feasible flow reaches it) or the bound is
    infinite (the duals bound nothing).  A loose but finite gap is recorded,
    not raised: solver tolerances alone open one on large masters.
    """
    bound = dual_bound_concurrent_flow(topology, capacity_duals, terminals)
    if not np.isfinite(bound) or concurrent_flow > bound * (1.0 + CERTIFICATE_TOL):
        raise SolverError(
            f"mcf-master certificate failed on {topology.name}: F={concurrent_flow!r} "
            f"exceeds or is unbounded by the dual bound {bound!r}")
    gap = (bound - concurrent_flow) / concurrent_flow
    return {"concurrent_flow": concurrent_flow, "bound": bound, "gap": gap}


def solve_master_lp(topology: Topology,
                    terminals: Optional[List[int]] = None) -> MasterSolution:
    """Solve the source-grouped master LP (eqs. 6-9) and certify its F.

    ``terminals`` optionally restricts the set of nodes that source and sink
    traffic (all-to-all among terminals, e.g. the host vertices of an
    augmented topology); non-terminal nodes are pure relays with plain flow
    conservation.  ``info["certificate"]`` holds :func:`certify_master`'s
    result, recomputed on every call, cache hits included.
    """
    if not topology.is_strongly_connected():
        raise ValueError("MCF requires a strongly connected topology")
    start = time.perf_counter()
    sources = terminal_nodes(topology, terminals)
    solution = engine_solve(build_master_lp, topology, terminals, maximize=True)
    concurrent_flow = float(solution.block("F")[0])
    info = dict(solution.info)
    info["certificate"] = certify_master(topology, concurrent_flow,
                                         solution.dual("capacity"),
                                         None if terminals is None else sources)
    elapsed = time.perf_counter() - start

    g = np.asarray(solution.block("g"))
    edges = topology.edges
    grouped: Dict[int, Dict[Edge, float]] = {s: {} for s in sources}
    for si, ei in zip(*np.nonzero(g > FLOW_TOL)):
        grouped[sources[si]][edges[ei]] = float(g[si, ei])
    return MasterSolution(concurrent_flow=concurrent_flow,
                          grouped_flows=grouped, solve_seconds=elapsed,
                          info=info)


def _proposed_translations(topology: Topology) -> Optional[Tuple[int, ...]]:
    """The translation group ``topology.metadata`` proposes, as cyclic orders.

    A wrapped torus proposes ``Z_dims``; a ``d``-cube proposes ``Z_2^d``,
    whose translations are the XORs.  Node ids are row-major coordinates in
    both.  Metadata survives edits (``remove_edges`` keeps
    ``family=torus``), so this is only a proposal: see :func:`_edge_orbits`.
    """
    meta = topology.metadata
    if meta.get("family") == "torus" and meta.get("wrap", True):
        return tuple(int(d) for d in meta["dims"])
    if meta.get("family") == "hypercube":
        return (2,) * int(meta["dimension"])
    return None


def _edge_orbits(topology: Topology) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Edge orbits under :func:`_proposed_translations`, if they are symmetries.

    Returns ``(orbit, first)``: each edge's orbit id (orbits sorted by the
    translation that carries an edge's tail to its head) and one edge index
    per orbit.  Returns None unless every translation maps the edge set
    onto itself with capacities unchanged, i.e. unless every orbit holds
    one edge out of every node and one capacity.
    """
    n = topology.num_nodes
    dims = _proposed_translations(topology)
    if dims is None or int(np.prod(dims)) != n:
        return None
    dims_arr = np.asarray(dims, dtype=np.int64)
    _, tails, heads, cap_arr = topology_arrays(topology)
    coords = np.stack(np.unravel_index(np.arange(n), dims_arr), axis=1)
    step = (coords[heads] - coords[tails]) % dims_arr
    _, first, orbit, counts = np.unique(np.ravel_multi_index(step.T, dims_arr),
                                        return_index=True, return_inverse=True,
                                        return_counts=True)
    # Edges are unique, so n edges with one step start at every node.
    if np.any(counts != n) or np.any(cap_arr != cap_arr[first][orbit]):
        return None
    return orbit, first


def build_objective_lp(topology: Topology) -> LPBuilder:
    """The smallest LP whose F and capacity duals certify the optimal F.

    When the translation group the topology's metadata proposes checks out
    (:func:`_edge_orbits`), averaging any optimum over the group gives one
    in which every source's flow is source 0's, translated.  The LP then
    holds F, source 0's flow on every edge, one capacity row per edge orbit
    (summed over the orbit, source 0's flow is what each of its edges
    carries from all sources) and source 0's conservation rows.  Otherwise
    it is the full master LP.
    """
    orbits = _edge_orbits(topology)
    if orbits is None:
        return build_master_lp(topology)
    orbit, first = orbits
    _, tails, heads, cap_arr = topology_arrays(topology)
    lp = LPBuilder()
    f_col = lp.add_variable_block("F", 1, lb=0.0, objective=1.0)[0]
    g = lp.add_variable_block("g", (1, len(orbit)), lb=0.0)
    lp.add_le_block(rows=orbit, cols=g.ravel(), vals=np.ones(len(orbit)),
                    rhs=cap_arr[first], name="capacity")
    _add_source_conservation(lp, f_col, g, np.zeros(1, dtype=np.int64),
                             np.arange(topology.num_nodes), tails, heads,
                             topology.num_nodes)
    return lp


def solve_mcf_objective(topology: Topology) -> ConcurrentFlowValue:
    """Optimal concurrent flow F of ``topology``, certified on the full graph.

    The ``mcf-objective`` scheme: the same F as
    :func:`~repro.core.path_extraction.solve_mcf_extract_paths`, without
    the N child LPs and the path extraction.  Its LP needs no vertex, and
    on a torus or hypercube whose translations check out it is the
    one-source LP of :func:`build_objective_lp`.  Either way the capacity
    duals, expanded to one length per edge, certify F through
    :func:`certify_master` on the full topology.
    """
    if not topology.is_strongly_connected():
        raise ValueError("MCF requires a strongly connected topology")
    # F and the capacity duals are all this reads: no vertex needed.
    solution = engine_solve(build_objective_lp, topology, maximize=True,
                            vertex=False)
    concurrent_flow = float(solution.block("F")[0])
    lengths = solution.dual("capacity")
    orbits = _edge_orbits(topology)
    if orbits is not None:
        lengths = lengths[orbits[0]]
    info = dict(solution.info)
    info["certificate"] = certify_master(topology, concurrent_flow, lengths)
    return ConcurrentFlowValue(concurrent_flow=concurrent_flow,
                               num_nodes=topology.num_nodes,
                               meta={"method": "mcf-objective", "engine": info})


def build_child_lp(topology: Topology, source: int,
                   grouped_flow: Mapping[Edge, float], concurrent_flow: float,
                   slack: float, destinations: Sequence[int]) -> LPBuilder:
    """Assemble the per-source child LP (eqs. 10-14) with block/COO ops.

    The ``"f"`` block has one row per destination, in the order given;
    ``destinations`` must not contain ``source``.
    """
    num_nodes = topology.num_nodes
    # Only edges that carry grouped flow can carry per-commodity flow.
    edges = [e for e in topology.edges if grouped_flow.get(e, 0.0) > FLOW_TOL]
    D, E = len(destinations), len(edges)
    tails = np.fromiter((e[0] for e in edges), dtype=np.int64, count=E)
    heads = np.fromiter((e[1] for e in edges), dtype=np.int64, count=E)
    group_arr = np.fromiter((grouped_flow[e] for e in edges), dtype=float, count=E)
    dest_arr = np.asarray(destinations, dtype=np.int64)

    lp = LPBuilder()
    f = lp.add_variable_block("f", (D, E), lb=0.0, objective=1.0)

    # (11) per-link cap = grouped flow.
    lp.add_le_block(rows=np.repeat(np.arange(E), D), cols=f.T.ravel(),
                    vals=np.ones(D * E), rhs=group_arr)

    d_ids = np.repeat(np.arange(D), E)
    e_ids = np.tile(np.arange(E), D)
    var = f.ravel()
    tail, head = tails[e_ids], heads[e_ids]
    d_of = dest_arr[d_ids]
    demand = max(concurrent_flow - slack, 0.0)

    # (12) conservation at intermediate nodes (u != source, u != d).
    plus = (tail != source) & (tail != d_of)
    minus = (head != source) & (head != d_of)
    lp.add_compressed_block(
        [d_ids[plus] * num_nodes + tail[plus],
         d_ids[minus] * num_nodes + head[minus]],
        [var[plus], var[minus]],
        [np.ones(int(plus.sum())), -np.ones(int(minus.sum()))])

    # (13) demand at the sink; the sink never re-emits its own commodity
    # (prevents circulation through d from faking delivered demand).
    sink = head == d_of
    lp.add_ge_block(d_ids[sink], var[sink], np.ones(int(sink.sum())),
                    np.full(D, demand))
    reemit = tail == d_of
    k = int(reemit.sum())
    lp.add_le_block(np.arange(k), var[reemit], np.ones(k), np.zeros(k))
    return lp


def solve_child_lp(topology: Topology, source: int, grouped_flow: Dict[Edge, float],
                   concurrent_flow: float, slack: float = 1e-7,
                   destinations: Optional[List[int]] = None
                   ) -> Tuple[Dict[Commodity, Dict[Edge, float]], float]:
    """Solve the child LP for one source (eqs. 10-14).

    The grouped flow of ``source`` acts as per-link capacity; the LP finds
    per-destination flows each delivering ``F`` (minus a tiny numerical slack)
    while minimizing total flow.  ``destinations`` defaults to every other
    node; pass the terminal set when only some nodes sink traffic.

    Returns the per-commodity flows for all (source, d) pairs and the solve time.
    """
    start = time.perf_counter()
    # One sorted list labels the LP's rows and the flows read back from them.
    dest_list = sorted(d for d in (topology.nodes if destinations is None
                                   else destinations) if d != source)
    edges = [e for e in topology.edges if grouped_flow.get(e, 0.0) > FLOW_TOL]
    solution = engine_solve(build_child_lp, topology, source, grouped_flow,
                            concurrent_flow, slack, dest_list)
    elapsed = time.perf_counter() - start

    flows: Dict[Commodity, Dict[Edge, float]] = flows_from_array(
        solution.block("f"), [(source, d) for d in dest_list], edges)
    return flows, elapsed


def _child_worker(args) -> Tuple[int, Dict[Commodity, Dict[Edge, float]], float]:
    topology, source, grouped_flow, concurrent_flow, destinations = args
    flows, elapsed = solve_child_lp(topology, source, grouped_flow, concurrent_flow,
                                    destinations=destinations)
    return source, flows, elapsed


def map_child_lps(worker: Callable, args: Sequence, n_jobs: int) -> list:
    """``worker`` over ``args``: in-process, or on ``n_jobs`` worker processes.

    Each pool task runs as :func:`repro.obs.counted` and its counters are
    added here, so the ``[stats]`` footer counts the child LPs the workers
    solved as it does at ``n_jobs=1``.
    """
    if n_jobs <= 1:
        return [worker(a) for a in args]
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        done = list(pool.map(partial(obs.counted, worker), args))
    for _, delta in done:
        obs.add(delta)
    return [result for result, _ in done]


def solve_decomposed_mcf(topology: Topology, repair: bool = True,
                         n_jobs: int = 1,
                         terminals: Optional[List[int]] = None) -> FlowSolution:
    """Solve the decomposed MCF (master + N child LPs).

    Parameters
    ----------
    n_jobs:
        Number of worker processes for the child LPs.  ``1`` (default) solves
        them serially in-process, which is deterministic and shares the
        engine's in-memory solution cache; larger values use a process pool
        (the paper runs the N child LPs on N cores).
    terminals:
        Optional subset of nodes that exchange data; other nodes only relay
        (host-NIC augmented topologies).

    Returns
    -------
    FlowSolution
        Same optimal ``F`` as :func:`repro.core.mcf_link.solve_link_mcf`; the
        meta dict carries a :class:`DecomposedTimings` breakdown under
        ``"timings"``.
    """
    total_start = time.perf_counter()
    master = solve_master_lp(topology, terminals=terminals)
    timings = DecomposedTimings(master_seconds=master.solve_seconds)

    flows: Dict[Commodity, Dict[Edge, float]] = {}
    sources = list(master.grouped_flows)
    destinations = None if terminals is None else sources
    args = [(topology, s, master.grouped_flows[s], master.concurrent_flow, destinations)
            for s in sources]
    for source, child_flows, elapsed in map_child_lps(_child_worker, args, n_jobs):
        flows.update(child_flows)
        timings.child_seconds_each.append(elapsed)

    timings.total_seconds = time.perf_counter() - total_start
    result = FlowSolution(
        concurrent_flow=master.concurrent_flow,
        flows=flows,
        topology=topology,
        solve_seconds=timings.total_seconds,
        meta={"method": "mcf-decomposed", "timings": timings,
              "master_seconds": timings.master_seconds,
              "parallel_seconds": timings.parallel_seconds,
              "master_engine": master.info},
    )
    if repair:
        result = repair_conservation(result)
        result.solve_seconds = timings.total_seconds
        result.meta["timings"] = timings
    return result
