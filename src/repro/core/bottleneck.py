"""Host-to-NIC bottleneck modelling by topology augmentation (§3.2.2, Fig. 2).

When the host-to-NIC (injection) bandwidth ``B_host`` is smaller than the NIC's
aggregate link bandwidth ``d * b``, the host becomes the bottleneck and, on
fabrics without NIC forwarding, every byte a node relays must cross the
host-NIC boundary twice.  The paper models this by augmenting the topology:

* each physical node ``i`` is split into three vertices -- ``NIC_in(i)``,
  ``NIC_out(i)`` and ``Host(i)``;
* every original link ``(i, j)`` becomes ``NIC_out(i) -> NIC_in(j)`` with the
  NIC-NIC capacity ``b``;
* ``NIC_in(i) -> Host(i)`` and ``Host(i) -> NIC_out(i)`` edges carry the
  host bandwidth ``B_host``, forcing all traffic through the host.

The MCF computed between the host vertices of the augmented graph yields the
optimal throughput under the bottleneck.  On the 3x3x3 torus of §5.2 (degree 6,
b such that d*b = 150 Gbps but B_host = 100 Gbps), the augmented MCF value is
2/27 versus 1/9 without the bottleneck -- the 57% gap discussed with Fig. 3/4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import networkx as nx

from ..topology.base import Topology

__all__ = ["AugmentedTopology", "augment_host_nic_bottleneck"]


@dataclass
class AugmentedTopology:
    """An augmented graph plus the mapping back to physical nodes.

    Attributes
    ----------
    topology:
        The augmented :class:`Topology`; hosts occupy ids ``[0, N)`` so that
        commodities between hosts keep their original ids.
    host_of:
        Maps augmented vertex id -> physical node id.
    nic_in / nic_out:
        Maps physical node id -> augmented NIC vertex ids.
    """

    topology: Topology
    num_hosts: int
    nic_in: Dict[int, int]
    nic_out: Dict[int, int]

    def host_nodes(self) -> range:
        """Vertex ids of the host vertices (the MCF endpoints)."""
        return range(self.num_hosts)


def augment_host_nic_bottleneck(topology: Topology, host_bandwidth: float,
                                link_bandwidth: float = 1.0) -> AugmentedTopology:
    """Build the Fig. 2 augmented graph for a host-injection bottleneck.

    Parameters
    ----------
    topology:
        The physical NIC-level topology (edges carry relative capacities; they
        are rescaled to ``link_bandwidth``).
    host_bandwidth:
        Host-to-NIC (and NIC-to-host) bandwidth ``B_host`` in the same units
        as ``link_bandwidth``.
    link_bandwidth:
        NIC-NIC link bandwidth ``b``; original edge capacities are multiplied
        by this value.

    Returns
    -------
    AugmentedTopology
        Hosts keep ids ``0..N-1``; NIC-in vertices are ``N..2N-1`` and NIC-out
        vertices ``2N..3N-1``.
    """
    if host_bandwidth <= 0 or link_bandwidth <= 0:
        raise ValueError("bandwidths must be positive")
    n = topology.num_nodes
    g = nx.DiGraph()
    g.add_nodes_from(range(3 * n))
    nic_in = {i: n + i for i in range(n)}
    nic_out = {i: 2 * n + i for i in range(n)}

    # Host <-> NIC edges with the bottleneck bandwidth.
    for i in range(n):
        g.add_edge(nic_in[i], i, cap=host_bandwidth)       # NIC(in)  -> Host
        g.add_edge(i, nic_out[i], cap=host_bandwidth)      # Host     -> NIC(out)

    # NIC-NIC edges follow the physical topology.
    for (u, v) in topology.edges:
        g.add_edge(nic_out[u], nic_in[v], cap=topology.capacity(u, v) * link_bandwidth)

    aug = Topology(g, name=topology.name + "-hostnic", default_cap=link_bandwidth,
                   metadata={**topology.metadata, "augmented": "host_nic_bottleneck",
                             "host_bandwidth": host_bandwidth,
                             "link_bandwidth": link_bandwidth,
                             "num_hosts": n})
    return AugmentedTopology(topology=aug, num_hosts=n, nic_in=nic_in, nic_out=nic_out)
