"""ILP single-path baselines: ILP-disjoint and ILP-shortest (§5.2).

These baselines pick exactly one path per commodity from a candidate set
(link-disjoint paths or shortest paths) so as to minimize the maximum link
load -- low maximum load means high all-to-all throughput.  The selection is a
mixed-integer program:

    minimize L
    s.t.  sum_p x[(s,d),p] = 1                        for every commodity
          sum over paths p through link e of x <= L    for every link
          x binary

Being single-path, ILP is *not* bandwidth optimal in general (e.g. on the
complete bipartite topology, Fig. 4 left) and being NP-hard it stops scaling
beyond a few dozen nodes (Fig. 7), which is the paper's motivation for MCF.
A relative MIP gap ("tolerance") can be supplied, as the paper does for the
N = 81 experiments (Fig. 9, 10% tolerance).
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.optimize import LinearConstraint, Bounds, milp

from ..core.flow import Commodity
from ..core.mcf_path import PathSchedule, path_schedule_from_single_paths
from ..paths.disjoint import edge_disjoint_path_sets
from ..paths.shortest import all_shortest_path_sets
from ..topology.base import Edge, Topology

__all__ = ["ILP_BOUNDED_PARAMS", "solve_ilp_path_selection", "ilp_disjoint_schedule",
           "ilp_shortest_schedule"]

#: Bounded MIP settings (5% relative gap, 120 s limit) under which the ILP
#: baselines run in scheme comparisons (``repro compare``, Fig. 4's torus
#: panel), as ``scheme_params``.
ILP_BOUNDED_PARAMS: Dict[str, float] = {"mip_rel_gap": 0.05, "time_limit": 120}


def solve_ilp_path_selection(topology: Topology,
                             path_sets: Mapping[Commodity, Sequence[Sequence[int]]],
                             mip_rel_gap: float = 0.0,
                             time_limit: Optional[float] = None) -> PathSchedule:
    """Select one path per commodity minimizing the maximum link load (MILP).

    Parameters
    ----------
    mip_rel_gap:
        Relative optimality tolerance passed to the MILP solver (0 = exact).
    time_limit:
        Wall-clock limit in seconds for the solver (None = unlimited).
    """
    start = time.perf_counter()
    commodities = list(topology.commodities())
    edges = topology.edges
    caps = topology.capacities()

    # Variable layout: [x vars ...., L]
    var_offset: Dict[Commodity, int] = {}
    num_x = 0
    for c in commodities:
        if c not in path_sets or not path_sets[c]:
            raise ValueError(f"no candidate paths for commodity {c}")
        var_offset[c] = num_x
        num_x += len(path_sets[c])
    num_vars = num_x + 1
    l_index = num_x

    c_obj = np.zeros(num_vars)
    c_obj[l_index] = 1.0

    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    lb: List[float] = []
    ub: List[float] = []
    row = 0

    # One path per commodity (equality).
    for c in commodities:
        for i in range(len(path_sets[c])):
            rows.append(row)
            cols.append(var_offset[c] + i)
            vals.append(1.0)
        lb.append(1.0)
        ub.append(1.0)
        row += 1

    # Link load <= L (normalized by capacity).
    link_rows: Dict[Edge, int] = {}
    for e in edges:
        link_rows[e] = row
        rows.append(row)
        cols.append(l_index)
        vals.append(-1.0)
        lb.append(-np.inf)
        ub.append(0.0)
        row += 1
    for c in commodities:
        for i, p in enumerate(path_sets[c]):
            for e in zip(p[:-1], p[1:]):
                rows.append(link_rows[e])
                cols.append(var_offset[c] + i)
                vals.append(1.0 / caps[e])

    constraints = LinearConstraint(
        sp.coo_matrix((vals, (rows, cols)), shape=(row, num_vars)).tocsr(),
        lb=np.asarray(lb), ub=np.asarray(ub))
    integrality = np.zeros(num_vars)
    integrality[:num_x] = 1  # x binary, L continuous
    bounds = Bounds(lb=np.zeros(num_vars),
                    ub=np.concatenate([np.ones(num_x), [np.inf]]))
    options = {"mip_rel_gap": mip_rel_gap}
    if time_limit is not None:
        options["time_limit"] = time_limit
    result = milp(c=c_obj, constraints=constraints, integrality=integrality,
                  bounds=bounds, options=options)
    if result.x is None:
        raise RuntimeError(f"ILP path selection failed: {result.message}")
    elapsed = time.perf_counter() - start

    chosen: Dict[Commodity, Sequence[int]] = {}
    for c in commodities:
        values = result.x[var_offset[c]: var_offset[c] + len(path_sets[c])]
        chosen[c] = list(path_sets[c][int(np.argmax(values))])
    schedule = path_schedule_from_single_paths(topology, chosen, method="ilp")
    schedule.solve_seconds = elapsed
    schedule.meta.update({"max_load": float(result.x[l_index]),
                          "mip_rel_gap": mip_rel_gap,
                          "milp_status": result.message})
    return schedule


def ilp_disjoint_schedule(topology: Topology, mip_rel_gap: float = 0.0,
                          time_limit: Optional[float] = None,
                          max_paths: Optional[int] = None) -> PathSchedule:
    """ILP-disjoint: candidate set = maximal link-disjoint paths per commodity."""
    path_sets = edge_disjoint_path_sets(topology, max_paths=max_paths)
    schedule = solve_ilp_path_selection(topology, path_sets, mip_rel_gap=mip_rel_gap,
                                        time_limit=time_limit)
    schedule.meta["method"] = "ilp-disjoint"
    return schedule


def ilp_shortest_schedule(topology: Topology, mip_rel_gap: float = 0.0,
                          time_limit: Optional[float] = None,
                          limit_per_pair: Optional[int] = 16) -> PathSchedule:
    """ILP-shortest: candidate set = (capped) shortest paths per commodity."""
    path_sets = all_shortest_path_sets(topology, limit_per_pair=limit_per_pair)
    schedule = solve_ilp_path_selection(topology, path_sets, mip_rel_gap=mip_rel_gap,
                                        time_limit=time_limit)
    schedule.meta["method"] = "ilp-shortest"
    return schedule
