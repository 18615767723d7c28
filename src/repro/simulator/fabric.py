"""Fabric models: bandwidth and latency parameters of the simulated interconnect.

Table 1 of the paper contrasts HPC fabrics (NIC/hardware routing, cut-through
flow control, forwarding bandwidth >= injection bandwidth) with ML accelerator
fabrics (host/GPU forwarding, store-and-forward, synchronized schedules).  The
testbed parameters from §5.1 are provided as ready-made constructors:

* Cerio NC1225-like NIC: 12 x 25 Gbps links (b = 3.125 GB/s per link, up to
  300 Gbps forwarding), 100 Gbps (12.5 GB/s) host injection over PCIe gen3 x16;
* A100 GPU testbed: degree-3/4 topologies over the same 25 Gbps links.

All bandwidths are stored in bytes/second and latencies in seconds.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from ..grammar import number, parse_link_scales, parse_link_set, split_spec

__all__ = ["FabricModel", "GBPS", "GIBI", "cerio_hpc_fabric", "a100_ml_fabric",
           "ideal_fabric", "fabric_from_spec", "parse_link_set", "parse_link_scales"]

GBPS = 1e9 / 8.0          # 1 Gbps in bytes/second
GIBI = 2.0 ** 30


@dataclass(frozen=True)
class FabricModel:
    """Bandwidth/latency description of a direct-connect fabric.

    Attributes
    ----------
    link_bandwidth:
        Per-link bandwidth ``b`` in bytes/second.
    injection_bandwidth:
        Host/accelerator injection bandwidth ``B_host`` in bytes/second
        (None means not a bottleneck, i.e. >= degree * link_bandwidth).
    forwarding_bandwidth:
        NIC forwarding bandwidth in bytes/second (None = unlimited / equal to
        the sum of link bandwidths); only meaningful for NIC-routed fabrics.
    nic_forwarding:
        True for HPC-style fabrics where the NIC forwards traffic without
        host involvement (cut-through), False for ML-style store-and-forward.
    per_step_latency:
        Synchronization overhead per communication step (store-and-forward
        schedules pay it once per step).
    per_hop_latency:
        Per-hop propagation/switching latency for cut-through routing.
    per_message_overhead:
        Fixed software/NIC overhead per message or chunk transfer.
    link_scale:
        Degraded-fabric axis: per-directed-link bandwidth multipliers as a
        sorted tuple of ``((u, v), factor)`` pairs (hashable, so scenario
        cache keys cover degradation for free).  Links not listed run at
        full ``link_bandwidth``.
    down_links:
        Degraded-fabric axis: directed links that are hard-down.  A schedule
        whose flows cross a down link fails to simulate (the error is
        recorded per scenario by the sweep layer), which is exactly the
        Fig. 9 "disabled links" experiment run *without* re-synthesis.
    """

    link_bandwidth: float = 25.0 * GBPS
    injection_bandwidth: Optional[float] = None
    forwarding_bandwidth: Optional[float] = None
    nic_forwarding: bool = True
    per_step_latency: float = 20e-6
    per_hop_latency: float = 1e-6
    per_message_overhead: float = 2e-6
    name: str = "fabric"
    link_scale: Tuple[Tuple[Tuple[int, int], float], ...] = ()
    down_links: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        # Canonicalize the degraded-link fields so two fabrics describing the
        # same degradation hash identically in scenario keys.
        object.__setattr__(self, "link_scale",
                           tuple(sorted(((int(u), int(v)), float(s))
                                        for (u, v), s in self.link_scale)))
        object.__setattr__(self, "down_links",
                           tuple(sorted((int(u), int(v)) for u, v in self.down_links)))
        for (u, v), factor in self.link_scale:
            if not 0.0 < factor < math.inf:
                raise ValueError(f"link_scale factor for ({u},{v}) must be finite and "
                                 f"positive, got {factor}")

    @property
    def degraded(self) -> bool:
        """True when any link is scaled down or hard-down."""
        return bool(self.link_scale or self.down_links)

    def link_scale_map(self) -> Dict[Tuple[int, int], float]:
        """Per-directed-link bandwidth multipliers as a dict."""
        return {edge: factor for edge, factor in self.link_scale}

    def link_bandwidths(self, edges) -> Dict[Tuple[int, int], float]:
        """Effective bandwidth of each given directed link (0.0 if down).

        Builds the scale map once, so per-edge lookups stay O(1) — the
        engine's compile path calls this with every topology edge.
        """
        scales = self.link_scale_map()
        down = set(self.down_links)
        return {e: (0.0 if e in down else self.link_bandwidth * scales.get(e, 1.0))
                for e in edges}

    def effective_link_bandwidth(self, u: int, v: int) -> float:
        """Bandwidth of directed link ``(u, v)`` after degradation (0 if down)."""
        return self.link_bandwidths(((u, v),))[(u, v)]

    def degrade(self, link_scale: Optional[Dict[Tuple[int, int], float]] = None,
                down_links: Optional[Tuple[Tuple[int, int], ...]] = None,
                symmetric: bool = False) -> "FabricModel":
        """A copy of this fabric with additional degradation applied.

        ``symmetric=True`` mirrors every ``(u, v)`` entry onto ``(v, u)``,
        matching the bidirectional physical links of the topologies here.
        """
        scales = dict(self.link_scale_map())
        for (u, v), factor in (link_scale or {}).items():
            scales[(u, v)] = factor
            if symmetric:
                scales[(v, u)] = factor
        down = set(self.down_links)
        for (u, v) in down_links or ():
            down.add((u, v))
            if symmetric:
                down.add((v, u))
        return replace(self, link_scale=tuple(scales.items()),
                       down_links=tuple(down))

    def effective_injection(self, degree: int) -> float:
        """Injection bandwidth cap, defaulting to degree * link bandwidth."""
        full = degree * self.link_bandwidth
        if self.injection_bandwidth is None:
            return full
        return min(self.injection_bandwidth, full)

    def injection_limited(self, degree: int) -> bool:
        """True when the host injection bandwidth is below the NIC aggregate."""
        return (self.injection_bandwidth is not None
                and self.injection_bandwidth < degree * self.link_bandwidth)


def cerio_hpc_fabric(link_gbps: float = 25.0, injection_gbps: float = 100.0,
                     forwarding_gbps: float = 300.0) -> FabricModel:
    """Cerio NC1225-like HPC fabric (§5.1): NIC source routing + cut-through."""
    return FabricModel(
        link_bandwidth=link_gbps * GBPS,
        injection_bandwidth=injection_gbps * GBPS,
        forwarding_bandwidth=forwarding_gbps * GBPS,
        nic_forwarding=True,
        per_step_latency=20e-6,
        per_hop_latency=1e-6,
        per_message_overhead=2e-6,
        name="cerio-hpc",
    )


def a100_ml_fabric(link_gbps: float = 25.0, injection_gbps: Optional[float] = None) -> FabricModel:
    """A100 GPU testbed-like ML fabric: host/GPU forwarding, store-and-forward."""
    return FabricModel(
        link_bandwidth=link_gbps * GBPS,
        injection_bandwidth=None if injection_gbps is None else injection_gbps * GBPS,
        forwarding_bandwidth=None,
        nic_forwarding=False,
        per_step_latency=30e-6,
        per_hop_latency=2e-6,
        per_message_overhead=5e-6,
        name="a100-ml",
    )


def ideal_fabric(link_bandwidth: float = 1.0) -> FabricModel:
    """Zero-latency fabric with unit link bandwidth (for analytic comparisons)."""
    return FabricModel(
        link_bandwidth=link_bandwidth,
        injection_bandwidth=None,
        forwarding_bandwidth=None,
        nic_forwarding=True,
        per_step_latency=0.0,
        per_hop_latency=0.0,
        per_message_overhead=0.0,
        name="ideal",
    )


#: Fabric name -> constructor; a fabric spec's parameters are its keyword
#: arguments plus the degraded-fabric keys ``down`` and ``scale``.
_MAKERS = {"hpc": cerio_hpc_fabric, "ml": a100_ml_fabric, "ideal": ideal_fabric}
_KEYS = {name: (*inspect.signature(maker).parameters, "down", "scale")
         for name, maker in _MAKERS.items()}


def fabric_from_spec(spec) -> FabricModel:
    """Resolve a fabric spec to a :class:`FabricModel`.

    Accepts an existing :class:`FabricModel` (returned unchanged) or a compact
    string ``name[:key=value,...]`` where ``name`` is one of ``hpc``, ``ml``
    or ``ideal`` and the parameters are the keyword arguments of the matching
    constructor, e.g. ``"hpc:forwarding_gbps=100"`` or
    ``"ml:link_gbps=50"``.  This is the fabric analogue of
    :func:`repro.topology.from_spec` and is what the declarative
    :class:`~repro.experiments.Scenario` layer and the CLI parse.  Unknown
    and repeated keys raise ``ValueError`` (see :func:`repro.grammar.split_spec`).

    Two parameters open the degraded-fabric axis (values use ``|`` between
    links because ``,`` separates spec parameters):

    * ``down=u-v|...`` — directed links out of service (``u~v`` downs both
      directions of the physical link), e.g. ``"hpc:down=0~1"``;
    * ``scale=u-v:f|...`` — per-link bandwidth multipliers,
      e.g. ``"hpc:scale=0~1:0.25,forwarding_gbps=100"``.
    """
    if isinstance(spec, FabricModel):
        return spec
    if not isinstance(spec, str):
        raise TypeError(f"fabric spec must be a FabricModel or string, got {type(spec)!r}")
    name, fields = split_spec(spec, "fabric", ",", _KEYS)
    raw = {field.key: field.value for field in fields}
    down = parse_link_set(raw.pop("down", ""))
    scale = parse_link_scales(raw.pop("scale", ""))
    fabric = _MAKERS[name](**{key: number(value, key) for key, value in raw.items()})
    if down or scale:
        fabric = replace(fabric, down_links=down, link_scale=scale,
                         name=f"{fabric.name}-degraded")
    return fabric
