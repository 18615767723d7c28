"""Path-variable based MCF (pMCF) for fabrics with NIC forwarding (§3.1.4).

Given a candidate path set ``P[(s, d)]`` per commodity, pMCF maximizes the
concurrent flow ``F`` with one variable per (commodity, path) pair
(eqs. 21-24).  Flow conservation is automatic because flow moves along simple
end-to-end paths.  With an unrestricted path set this is the LP dual of the
link formulation and yields the same optimum; in practice the path set is
restricted (link-disjoint paths, shortest paths, or length-bounded paths) to
keep the variable count polynomial, which is exactly the trade-off the paper
evaluates in Fig. 8.

The LP is assembled by :func:`build_path_mcf` and solved through
:func:`repro.engine.solve` (cached, HiGHS).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

from ..constants import FLOW_TOL
from ..engine import solve as engine_solve
from ..topology.base import Topology
from .flow import Commodity, EdgeFlows, WeightedPath, delivered, link_loads
from .mcf_link import topology_arrays

__all__ = ["PathSchedule", "solve_path_mcf", "path_schedule_from_single_paths"]


@dataclass
class PathSchedule:
    """Weighted multi-path routes for every commodity.

    ``paths[(s, d)]`` is a list of :class:`WeightedPath`; the weights are the
    fraction of the (s, d) shard to be sent along each path per unit of
    concurrent demand.  This is the object lowered to source-routed fabrics.
    """

    concurrent_flow: float
    paths: Dict[Commodity, List[WeightedPath]]
    topology: Topology
    solve_seconds: float = 0.0
    meta: Dict[str, object] = field(default_factory=dict)

    def edge_flows(self) -> EdgeFlows:
        """Each path's weight on each of its edges, in commodity, path, edge order."""
        return EdgeFlows.collect(
            self.topology, ((c, e, 0, p.weight) for c, plist in self.paths.items()
                            for p in plist for e in p.edges),
            self.meta.get("terminals"))

    def all_to_all_time(self) -> float:
        """Normalized all-to-all completion time.

        Defined (as in Fig. 8/9) as the time to ship one unit of every
        commodity along its weighted paths, which for fluid cut-through flows
        equals the maximum link utilization after scaling every commodity to
        unit demand.
        """
        flows = self.edge_flows()
        least = float(delivered(flows).min())
        if least <= 0:
            return float("inf")
        caps = topology_arrays(self.topology)[3]
        return float((link_loads(flows)[0] / caps).max()) / least

    def normalized(self) -> "PathSchedule":
        """Rescale all path weights so every commodity delivers exactly 1 unit.

        This is the form used for lowering: each shard is split across its
        paths in proportion to the weights.
        """
        new_paths: Dict[Commodity, List[WeightedPath]] = {}
        for c, plist in self.paths.items():
            total = sum(p.weight for p in plist)
            if total <= 0:
                new_paths[c] = []
                continue
            new_paths[c] = [WeightedPath(p.nodes, p.weight / total) for p in plist]
        return PathSchedule(concurrent_flow=self.concurrent_flow, paths=new_paths,
                            topology=self.topology, solve_seconds=self.solve_seconds,
                            meta={**self.meta, "normalized": True})


def build_path_mcf(topology: Topology,
                   path_sets: Mapping[Commodity, Sequence[Sequence[int]]]):
    """Assemble the pMCF LP (eqs. 21-24) with block/COO numpy ops.

    The ragged per-commodity path sets are flattened into one ``"p"`` block;
    a single pass over the paths collects the (edge, variable) incidence
    pairs, from which both constraint families are built as COO batches.
    """
    import numpy as np

    from .solver import LPBuilder

    commodities = list(topology.commodities())
    edges = topology.edges
    caps = topology.capacities()
    edge_index = {e: i for i, e in enumerate(edges)}
    counts = np.fromiter((len(path_sets[c]) for c in commodities),
                         dtype=np.int64, count=len(commodities))
    total_paths = int(counts.sum())

    lp = LPBuilder()
    f_col = lp.add_variable_block("F", 1, lb=0.0, objective=1.0)[0]
    p_vars = lp.add_variable_block("p", (total_paths,), lb=0.0)

    # One pass over the paths: (edge index, path variable) incidence pairs.
    ei: List[int] = []
    vi: List[int] = []
    v = 0
    for c in commodities:
        for p in path_sets[c]:
            for e in zip(p[:-1], p[1:]):
                ei.append(edge_index[e])
                vi.append(v)
            v += 1

    # (22) link capacity, one row per edge actually used by some path.
    ei_arr = np.asarray(ei, dtype=np.int64)
    vi_arr = np.asarray(vi, dtype=np.int64)
    lp.add_compressed_block(
        [ei_arr], [p_vars[vi_arr]], [np.ones(len(vi_arr))],
        rhs=lambda used: np.fromiter((caps[edges[i]] for i in used),
                                     dtype=float, count=len(used)))

    # (23) concurrent demand: F <= delivered weight, per commodity.
    C = len(commodities)
    lp.add_le_block(
        rows=np.concatenate([np.repeat(np.arange(C), counts), np.arange(C)]),
        cols=np.concatenate([p_vars, np.full(C, f_col)]),
        vals=np.concatenate([-np.ones(total_paths), np.ones(C)]),
        rhs=np.zeros(C))
    return lp


def solve_path_mcf(topology: Topology,
                   path_sets: Mapping[Commodity, Sequence[Sequence[int]]]) -> PathSchedule:
    """Solve pMCF over the given candidate path sets (eqs. 21-24).

    Parameters
    ----------
    path_sets:
        For every commodity ``(s, d)`` a non-empty sequence of candidate paths
        (each a node sequence from ``s`` to ``d``).

    Returns
    -------
    PathSchedule
        Optimal concurrent flow ``F`` restricted to the candidate paths, and
        the per-path weights.
    """
    start = time.perf_counter()
    commodities = list(topology.commodities())
    for c in commodities:
        if c not in path_sets or not path_sets[c]:
            raise ValueError(f"no candidate paths supplied for commodity {c}")
        for p in path_sets[c]:
            _check_path(topology, c, p)

    # Freeze the path sets so the assembler and the extraction below read
    # one immutable snapshot.
    frozen = {c: tuple(tuple(int(n) for n in p) for p in path_sets[c])
              for c in commodities}
    solution = engine_solve(build_path_mcf, topology, frozen, maximize=True)
    elapsed = time.perf_counter() - start

    weights = solution.block("p")
    paths: Dict[Commodity, List[WeightedPath]] = {}
    pos = 0
    for c in commodities:
        plist = []
        for p in frozen[c]:
            w = float(weights[pos])
            pos += 1
            if w > FLOW_TOL:
                plist.append(WeightedPath(nodes=p, weight=w))
        # Keep at least the best candidate even if the LP left the commodity
        # exactly at zero weight (degenerate F=0 cases cannot happen on
        # strongly connected graphs, but guard anyway).
        if not plist:
            plist = [WeightedPath(nodes=frozen[c][0], weight=0.0)]
        paths[c] = plist

    return PathSchedule(
        concurrent_flow=float(solution.block("F")[0]),
        paths=paths,
        topology=topology,
        solve_seconds=elapsed,
        meta={"method": "pmcf",
              "num_variables": solution.info.get("num_variables"),
              "num_constraints": solution.info.get("num_constraints"),
              "engine": dict(solution.info)},
    )


def path_schedule_from_single_paths(topology: Topology,
                                    single_paths: Mapping[Commodity, Sequence[int]],
                                    method: str = "single-path") -> PathSchedule:
    """Wrap one path per commodity (SSSP/DOR/ILP/native baselines) as a PathSchedule.

    The concurrent flow value is derived from the induced maximum link load:
    with unit demand per commodity and max load L, all commodities can flow
    concurrently at rate ``1/L``.  Raises ValueError for a missing path, a
    path with the wrong endpoints or a hop over a non-existent edge.
    """
    paths: Dict[Commodity, List[WeightedPath]] = {}
    for c in topology.commodities():
        p = single_paths.get(c)
        if p is None:
            raise ValueError(f"missing path for commodity {c}")
        _check_path(topology, c, p)
        paths[c] = [WeightedPath(nodes=tuple(p), weight=1.0)]
    schedule = PathSchedule(concurrent_flow=0.0, paths=paths, topology=topology,
                            meta={"method": method})
    # Every commodity delivers exactly 1, so the time is the max load L.
    schedule.concurrent_flow = 1.0 / schedule.all_to_all_time()
    return schedule


def _check_path(topology: Topology, commodity: Commodity, path: Sequence[int]) -> None:
    """Raise ValueError unless ``path`` joins the commodity's endpoints over
    existing edges."""
    if path[0] != commodity[0] or path[-1] != commodity[1]:
        raise ValueError(f"path {path} does not connect commodity {commodity}")
    for e in zip(path[:-1], path[1:]):
        if not topology.has_edge(*e):
            raise ValueError(f"path {path} uses non-existent edge {e}")
