"""High-level schedule generation pipeline (the Fig. 1 flowchart).

Given a topology and a fabric description, pick the appropriate MCF variant:

* no NIC forwarding (ML-style, host/GPU forwarding, store-and-forward)
  -> link-based **tsMCF**, optionally on the host-NIC-bottleneck augmented
  graph, producing a time-stepped link schedule;
* NIC forwarding available (HPC-style, cut-through source routing):
  - if the per-pair path diversity is small (expanders) -> **pMCF** on
    link-disjoint (or bounded) candidate paths;
  - otherwise (tori and other path-rich topologies) -> decomposed link MCF +
    widest-path extraction (**MCF-extP**).

The returned object is either a :class:`~repro.core.mcf_timestepped.TimeSteppedFlow`
(link-based) or a :class:`~repro.core.mcf_path.PathSchedule` (path-based); both
can be lowered by :mod:`repro.schedule` and executed by :mod:`repro.simulator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from ..topology.base import Topology
from .bottleneck import augment_host_nic_bottleneck
from .mcf_path import PathSchedule, solve_path_mcf
from .mcf_timestepped import TimeSteppedFlow, solve_timestepped_mcf
from .mcf_ts_decomposed import solve_timestepped_mcf_decomposed
from .path_extraction import solve_mcf_extract_paths

__all__ = ["ForwardingModel", "SchedulingRequest", "generate_schedule",
           "estimate_path_diversity"]


class ForwardingModel(str, Enum):
    """Who forwards traffic for other nodes (Table 1)."""

    HOST = "host"   # ML accelerator style: store-and-forward at the host/GPU.
    NIC = "nic"     # HPC style: NIC/hardware routing with cut-through.


@dataclass
class SchedulingRequest:
    """Parameters steering the Fig. 1 decision flow.

    Attributes
    ----------
    forwarding:
        HOST (link-based schedules) or NIC (path-based schedules).
    host_bandwidth:
        Host injection bandwidth in the same units as link capacity.  If it is
        smaller than a node's aggregate link capacity and forwarding is HOST,
        the host-NIC bottleneck augmentation of §3.2.2 is applied.
    link_bandwidth:
        NIC-NIC link bandwidth (scales capacities in the augmented graph).
    num_steps:
        Override for the tsMCF step count (defaults to diameter + 1).
    path_diversity_threshold:
        Average number of shortest paths per commodity above which the
        topology is considered "path rich" and MCF-extP is used instead of
        direct pMCF.
    max_disjoint_paths:
        Cap on the number of link-disjoint candidate paths per commodity.
    n_jobs:
        Worker processes for the decomposed MCF (and decomposed tsMCF)
        child LPs; 1 solves them serially in-process.
    decompose_ts:
        If True, HOST-forwarding schedules use the decomposed time-stepped
        MCF (master + per-source child LPs, parallelizable with ``n_jobs``)
        instead of the monolithic tsMCF.  Same optimum; scales to larger N.
    """

    forwarding: ForwardingModel = ForwardingModel.NIC
    host_bandwidth: Optional[float] = None
    link_bandwidth: float = 1.0
    num_steps: Optional[int] = None
    path_diversity_threshold: float = 4.0
    max_disjoint_paths: Optional[int] = None
    n_jobs: int = 1
    decompose_ts: bool = False


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
                      request: Optional[SchedulingRequest] = None
                      ) -> Union[TimeSteppedFlow, PathSchedule]:
    """Generate an all-to-all schedule following the paper's Fig. 1 flowchart."""
    request = request or SchedulingRequest()

    if request.forwarding == ForwardingModel.HOST:
        if request.decompose_ts:
            def ts_solve(topo, **kw):
                return solve_timestepped_mcf_decomposed(
                    topo, n_jobs=request.n_jobs, **kw)
        else:
            ts_solve = solve_timestepped_mcf
        work_topology = topology
        aggregate = max(
            sum(topology.capacity(*e) for e in topology.out_edges(u)) for u in topology.nodes
        ) * request.link_bandwidth
        if request.host_bandwidth is not None and request.host_bandwidth < aggregate:
            aug = augment_host_nic_bottleneck(topology, request.host_bandwidth,
                                              request.link_bandwidth)
            work_topology = aug.topology
            flow = ts_solve(work_topology, num_steps=request.num_steps,
                            terminals=list(aug.host_nodes()))
            flow.meta["augmented"] = True
            flow.meta["num_hosts"] = aug.num_hosts
            return flow
        return ts_solve(work_topology, num_steps=request.num_steps)

    # NIC forwarding: path-based schedules.
    diversity = estimate_path_diversity(topology)
    if diversity <= request.path_diversity_threshold:
        from ..paths.disjoint import edge_disjoint_path_sets

        path_sets = edge_disjoint_path_sets(topology, max_paths=request.max_disjoint_paths)
        schedule = solve_path_mcf(topology, path_sets)
        schedule.meta["pipeline"] = "pmcf-disjoint"
        schedule.meta["path_diversity"] = diversity
        return schedule
    schedule = solve_mcf_extract_paths(topology, n_jobs=request.n_jobs)
    schedule.meta["pipeline"] = "mcf-extp"
    schedule.meta["path_diversity"] = diversity
    return schedule
