"""High-level schedule generation pipeline (the Fig. 1 flowchart).

Given a topology and a fabric description, pick the appropriate MCF variant:

* no NIC forwarding (ML-style, host/GPU forwarding, store-and-forward)
  -> link-based **tsMCF**, optionally on the host-NIC-bottleneck augmented
  graph, producing a time-stepped link schedule;
* NIC forwarding available (HPC-style, cut-through source routing):
  - if the average number of shortest paths per commodity is at most
    :data:`PATH_DIVERSITY_THRESHOLD` (expanders) -> **pMCF** on
    link-disjoint candidate paths;
  - otherwise (tori and other path-rich topologies) -> decomposed link MCF +
    widest-path extraction (**MCF-extP**).

:func:`generate_schedule` takes the fabric's choices as keyword arguments:
the forwarding model, the host injection bandwidth (in link-capacity units)
and how to solve the tsMCF (``decompose_ts``, ``n_jobs``).

The returned object is either a :class:`~repro.core.mcf_timestepped.TimeSteppedFlow`
(link-based) or a :class:`~repro.core.mcf_path.PathSchedule` (path-based); both
can be lowered by :mod:`repro.schedule` and executed by :mod:`repro.simulator`.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Union

from ..topology.base import Topology
from .bottleneck import augment_host_nic_bottleneck
from .mcf_path import PathSchedule, solve_path_mcf
from .mcf_timestepped import TimeSteppedFlow, solve_timestepped_mcf
from .mcf_ts_decomposed import solve_timestepped_mcf_decomposed
from .path_extraction import solve_mcf_extract_paths

__all__ = ["ForwardingModel", "PATH_DIVERSITY_THRESHOLD", "generate_schedule",
           "estimate_path_diversity"]


class ForwardingModel(str, Enum):
    """Who forwards traffic for other nodes (Table 1)."""

    HOST = "host"   # ML accelerator style: store-and-forward at the host/GPU.
    NIC = "nic"     # HPC style: NIC/hardware routing with cut-through.


#: Average shortest paths per commodity above which a topology counts as
#: path rich and the NIC branch uses MCF-extP instead of direct pMCF.
PATH_DIVERSITY_THRESHOLD = 4.0


def estimate_path_diversity(topology: Topology, sample: int = 64, seed: int = 0) -> float:
    """Average number of shortest paths per commodity (sampled for large N).

    Used to decide between direct pMCF (low diversity, e.g. expanders) and
    MCF-extP (high diversity, e.g. tori) in the Fig. 1 flow.
    """
    import random

    import networkx as nx

    commodities = list(topology.commodities())
    rng = random.Random(seed)
    if len(commodities) > sample:
        commodities = rng.sample(commodities, sample)
    total = 0
    for s, d in commodities:
        count = 0
        for _ in nx.all_shortest_paths(topology.graph, s, d):
            count += 1
            if count >= 64:
                break
        total += count
    return total / len(commodities)


def generate_schedule(topology: Topology,
                      forwarding: ForwardingModel = ForwardingModel.NIC,
                      host_bandwidth: Optional[float] = None,
                      n_jobs: int = 1,
                      decompose_ts: bool = False,
                      ) -> Union[TimeSteppedFlow, PathSchedule]:
    """Generate an all-to-all schedule following the paper's Fig. 1 flowchart.

    Parameters
    ----------
    forwarding:
        HOST (link-based schedules) or NIC (path-based schedules).
    host_bandwidth:
        Host injection bandwidth in link-capacity units.  Below a node's
        aggregate link capacity, HOST forwarding solves on the host-NIC
        bottleneck augmented graph of §3.2.2.
    n_jobs:
        Worker processes for the decomposed MCF (and decomposed tsMCF)
        child LPs; 1 solves them serially in-process.
    decompose_ts:
        If True, HOST forwarding uses the decomposed time-stepped MCF
        (master + per-source child LPs, parallelizable with ``n_jobs``)
        instead of the monolithic tsMCF.  Same optimum; scales to larger N.
    """
    if forwarding == ForwardingModel.HOST:
        if decompose_ts:
            def ts_solve(topo, **kw):
                return solve_timestepped_mcf_decomposed(topo, n_jobs=n_jobs, **kw)
        else:
            ts_solve = solve_timestepped_mcf
        aggregate = max(
            sum(topology.capacity(*e) for e in topology.out_edges(u)) for u in topology.nodes)
        if host_bandwidth is not None and host_bandwidth < aggregate:
            aug = augment_host_nic_bottleneck(topology, host_bandwidth)
            flow = ts_solve(aug.topology, terminals=list(aug.host_nodes()))
            flow.meta["augmented"] = True
            flow.meta["num_hosts"] = aug.num_hosts
            return flow
        return ts_solve(topology)

    # NIC forwarding: path-based schedules.
    diversity = estimate_path_diversity(topology)
    if diversity <= PATH_DIVERSITY_THRESHOLD:
        from ..paths.disjoint import edge_disjoint_path_sets

        schedule = solve_path_mcf(topology, edge_disjoint_path_sets(topology))
        schedule.meta["pipeline"] = "pmcf-disjoint"
        schedule.meta["path_diversity"] = diversity
        return schedule
    schedule = solve_mcf_extract_paths(topology, n_jobs=n_jobs)
    schedule.meta["pipeline"] = "mcf-extp"
    schedule.meta["path_diversity"] = diversity
    return schedule
