"""Scalar reference implementation of the max-min fluid simulator.

This is the original, interpreter-bound progressive-filling simulator the
vectorized engine (:mod:`repro.simulator.engine`) replaced.  It is retained
verbatim (plus degraded-fabric awareness) as the trusted oracle:

* the differential test suite checks the vectorized engine against it on
  randomized topologies and flow sets (completion times within 1e-9);
* ``tests/test_kernels.py`` checks the numpy fill's rates against
  :func:`max_min_rates_reference` within 1e-9 on randomized programs.

Do not optimize this module — its value is being obviously correct and
independent of the engine's numpy formulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..constants import SIM_BYTES_EPS, SIM_EPS
from ..topology.base import Edge, Topology
from .engine import FluidFlow
from .fabric import FabricModel

__all__ = ["ReferenceResult", "simulate_flows_reference", "max_min_rates_reference"]


@dataclass
class ReferenceResult:
    """Outcome of the scalar oracle (the fields it shares with
    :class:`~repro.simulator.engine.EngineResult`)."""

    completion_time: float
    flow_completion_times: List[float]
    max_link_bytes: float
    total_bytes: float


def max_min_rates_reference(flows: Sequence[FluidFlow], active: List[int],
                            topology: Topology,
                            fabric: FabricModel) -> Dict[int, float]:
    """Progressive-filling max-min fair rate allocation for the active flows.

    Resources: directed links (capacity = cap * effective link bandwidth),
    per-node injection (at the flow's source) and per-node forwarding (bytes
    relayed through intermediate nodes), when the fabric defines those caps.
    """
    down = set(fabric.down_links)
    link_bw = fabric.link_bandwidths(topology.edges)
    link_cap: Dict[Edge, float] = {e: topology.capacity(*e) * link_bw[e]
                                   for e in topology.edges}
    max_deg = topology.max_degree()
    inj_cap = fabric.effective_injection(max_deg)
    fwd_cap = fabric.forwarding_bandwidth

    # resource id -> capacity, and flow -> resources used.
    resources: Dict[object, float] = {}
    users: Dict[object, List[int]] = {}
    flow_resources: Dict[int, List[object]] = {}

    def add_use(res: object, cap: float, fid: int) -> None:
        if res not in resources:
            resources[res] = cap
            users[res] = []
        users[res].append(fid)
        flow_resources[fid].append(res)

    for fid in active:
        flow = flows[fid]
        flow_resources[fid] = []
        for e in flow.edges:
            if e in down:
                raise ValueError(f"flow {fid} (path {flow.path}) crosses down link {e}")
            add_use(("link", e), link_cap[e], fid)
        if fabric.injection_limited(max_deg):
            add_use(("inject", flow.path[0]), inj_cap, fid)
        if fwd_cap is not None:
            for node in flow.path[1:-1]:
                add_use(("forward", node), fwd_cap, fid)

    rates: Dict[int, float] = {fid: 0.0 for fid in active}
    frozen: Dict[int, bool] = {fid: False for fid in active}
    residual = dict(resources)
    unfrozen = set(active)

    while unfrozen:
        # Bottleneck resource: smallest fair share among resources with unfrozen users.
        best_share = None
        best_res = None
        for res, cap in residual.items():
            count = sum(1 for fid in users[res] if not frozen[fid])
            if count == 0:
                continue
            share = cap / count
            if best_share is None or share < best_share - SIM_EPS:
                best_share = share
                best_res = res
        if best_res is None:
            # No constraining resource (e.g. zero-size flows); give the rest
            # an effectively unbounded rate.
            for fid in unfrozen:
                rates[fid] = float("inf")
            break
        for fid in list(users[best_res]):
            if frozen[fid]:
                continue
            rates[fid] += best_share
            frozen[fid] = True
            unfrozen.discard(fid)
            for res in flow_resources[fid]:
                residual[res] = max(residual[res] - best_share, 0.0)
    return rates


def simulate_flows_reference(topology: Topology, flows: Sequence[FluidFlow],
                             fabric: Optional[FabricModel] = None,
                             max_rounds: int = 1_000_000) -> ReferenceResult:
    """Simulate concurrent fluid flows to completion (scalar oracle).

    Returns per-flow completion times and the overall completion time
    (including start-up latencies), exactly like
    :func:`repro.simulator.engine.simulate_program`.
    """
    fabric = fabric or FabricModel()
    n = len(flows)
    if n == 0:
        return ReferenceResult(0.0, [], 0.0, 0.0)

    start_delay = [fabric.per_message_overhead + f.hops * fabric.per_hop_latency
                   for f in flows]
    remaining = [float(f.size_bytes) for f in flows]
    completion = [0.0] * n
    active = [i for i in range(n) if remaining[i] > SIM_EPS]
    # Zero-byte flows complete after their latency alone.
    for i in range(n):
        if remaining[i] <= SIM_EPS:
            completion[i] = start_delay[i]

    now = 0.0
    rounds = 0
    while active:
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError("fluid simulation did not converge")
        rates = max_min_rates_reference(flows, active, topology, fabric)
        # Time until the next flow finishes at current rates.
        dt = min(remaining[i] / rates[i] for i in active if rates[i] > SIM_EPS)
        now += dt
        still_active = []
        for i in active:
            remaining[i] -= rates[i] * dt
            if remaining[i] <= SIM_BYTES_EPS:
                remaining[i] = 0.0
                completion[i] = now + start_delay[i]
            else:
                still_active.append(i)
        active = still_active

    link_bytes: Dict[Edge, float] = {}
    for f in flows:
        for e in f.edges:
            link_bytes[e] = link_bytes.get(e, 0.0) + f.size_bytes
    return ReferenceResult(
        completion_time=max(completion),
        flow_completion_times=completion,
        max_link_bytes=max(link_bytes.values(), default=0.0),
        total_bytes=sum(f.size_bytes for f in flows),
    )
