"""Declarative experiment scenarios with canonical, per-stage hashing.

A :class:`Scenario` is a pure-data description of one experiment: which
topology (a ``family:key=value`` spec string or a concrete
:class:`~repro.topology.base.Topology`), which fabric, which
schedule-generation scheme, and the chunking/simulation knobs.  It answers
two questions:

* *what to run* — :meth:`Scenario.resolved_topology`,
  :meth:`Scenario.resolved_fabric` and :func:`resolve_scheme` turn the data
  into the concrete objects the :class:`~repro.experiments.plan.Plan`
  pipeline executes;
* *what it is* — :meth:`Scenario.key` is a content-addressed digest.
  Per-stage keys (:meth:`Scenario.stage_key`) only cover the fields that
  stage depends on, so scenarios differing only in buffer sizes share their
  synthesized schedule artifacts.

The key format lives here alone: :func:`topology_key`, :func:`fabric_key`
and the version salt :func:`salted` build every stage key and the
adversarial search key.

The scheme registry here, :data:`SCHEMES`, is the only one: it holds the
path-based schemes the paper's figures compare, the link-based schemes
(``tsmcf``, ``taccl``, ``sccl``), the ``auto`` scheme that follows the
paper's Fig. 1 decision flow, and ``mcf-objective``, which yields the
optimal concurrent flow F alone and so stops at the synthesize stage.  Every
entry accepts keyword parameters (``scheme_params``) instead of baking them
in, and ``repro compare``, ``repro synthesize`` and ``repro sweep`` all run
schemes through it.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from ..baselines import (
    ilp_disjoint_schedule,
    ilp_shortest_schedule,
    native_alltoall_schedule,
    sccl_like_schedule,
    taccl_like_schedule,
)
from ..core import (
    ForwardingModel,
    generate_schedule,
    solve_mcf_extract_paths,
    solve_mcf_objective,
    solve_path_mcf,
)
from ..paths import (
    all_shortest_path_sets,
    dor_schedule,
    edge_disjoint_path_sets,
    ewsp_schedule,
    sssp_schedule,
)
from ..simulator import FabricModel, fabric_from_spec
from ..topology import Topology, from_spec

__all__ = ["Scenario", "STAGES", "SCHEMES", "SYNTHESIZE_ONLY",
           "available_scenario_schemes", "buffer_key", "fabric_key",
           "resolve_scheme", "salted", "scenario_schema_version", "topology_key"]

#: Pipeline stages, in execution order.
STAGES: Tuple[str, ...] = ("synthesize", "lower", "validate", "simulate")

#: Bump when the Scenario hashing payload or artifact schema changes, so a
#: persistent ``REPRO_CACHE_DIR`` stage tier from an older layout reads as a
#: miss instead of serving incompatible artifacts.
#: 2: simulate stage gained ``overlap``; fabric hashed by content minus the
#:    cosmetic name, including the degraded-link fields.
#: 3: simulate stage gained ``cluster`` (multi-job trace specs, hashed by
#:    their parsed canonical form so equivalent spellings share keys).
#: 4: simulate stage gained ``faults`` (timed fabric-event specs, hashed by
#:    their parsed canonical form — key-order invariant like cluster).
#: 5: topology keyed by everything it holds (name, metadata, successor and
#:    predecessor order), not by its sorted edge set alone.
#: 6: synthesize stage lost workload, link_bandwidth, num_steps,
#:    path_diversity_threshold and max_disjoint_paths; forwarding is
#:    derived from the fabric only.
_SCENARIO_SCHEMA = 6


def scenario_schema_version() -> int:
    """Schema version stamped into scenario keys and sweep JSONL records."""
    return _SCENARIO_SCHEMA


# --------------------------------------------------------------------------- #
# Scheme registry
# --------------------------------------------------------------------------- #
def _auto_scheme(topology: Topology, *, scenario: "Scenario", n_jobs: int = 1):
    """The paper's Fig. 1 decision flow, forwarding picked by the fabric."""
    return generate_schedule(topology, forwarding=scenario.resolved_forwarding(),
                             host_bandwidth=scenario.host_bandwidth, n_jobs=n_jobs,
                             decompose_ts=scenario.decompose_ts)


def _tsmcf_scheme(topology: Topology, *, scenario: "Scenario", n_jobs: int = 1):
    """Link-based tsMCF, honoring host-bottleneck augmentation."""
    return generate_schedule(topology, forwarding=ForwardingModel.HOST,
                             host_bandwidth=scenario.host_bandwidth, n_jobs=n_jobs,
                             decompose_ts=scenario.decompose_ts)


def _pmcf_shortest(topology: Topology, limit_per_pair: int = 16):
    return solve_path_mcf(topology, all_shortest_path_sets(
        topology, limit_per_pair=limit_per_pair))


def _pmcf_disjoint(topology: Topology, max_paths: Optional[int] = None):
    return solve_path_mcf(topology, edge_disjoint_path_sets(topology, max_paths=max_paths))


#: Scheme name -> callable.  Entries marked scenario-aware receive the full
#: scenario (and the plan's ``n_jobs``); plain entries receive the topology
#: plus ``scheme_params`` as keyword arguments, and ``n_jobs`` too when they
#: solve the decomposed MCF's child LPs.
SCHEMES: Dict[str, Callable] = {
    "auto": _auto_scheme,
    "tsmcf": _tsmcf_scheme,
    "mcf-extp": solve_mcf_extract_paths,
    "mcf-objective": solve_mcf_objective,
    "pmcf-disjoint": _pmcf_disjoint,
    "pmcf-shortest": _pmcf_shortest,
    "ewsp": ewsp_schedule,
    "sssp": sssp_schedule,
    "dor": dor_schedule,
    "native": native_alltoall_schedule,
    "ilp-disjoint": ilp_disjoint_schedule,
    "ilp-shortest": ilp_shortest_schedule,
    "taccl": taccl_like_schedule,
    "sccl": sccl_like_schedule,
}

#: Schemes that take the whole scenario (not just topology + params).
_SCENARIO_AWARE = ("auto", "tsmcf")

#: Plain schemes that take the plan's ``n_jobs`` child-LP processes.
_CHILD_LP_POOL = ("mcf-extp",)

#: Schemes whose artifact holds no schedule: they run through ``synthesize``
#: and no further.
SYNTHESIZE_ONLY = ("mcf-objective",)


def buffer_key(buffer_bytes: float) -> str:
    """The key of one buffer size in a record's per-buffer metrics."""
    return str(int(buffer_bytes))


def available_scenario_schemes() -> List[str]:
    """Names of all schemes a :class:`Scenario` can declare."""
    return sorted(SCHEMES)


def resolve_scheme(scenario: "Scenario", topology: Topology, n_jobs: int = 1):
    """Run the scenario's scheme, returning a schedule object."""
    scheme = SCHEMES[scenario.scheme]
    params = dict(scenario.scheme_params)
    if scenario.scheme in _SCENARIO_AWARE:
        return scheme(topology, scenario=scenario, n_jobs=n_jobs, **params)
    if scenario.scheme in _CHILD_LP_POOL:
        params["n_jobs"] = n_jobs
    return scheme(topology, **params)


# --------------------------------------------------------------------------- #
# Scenario
# --------------------------------------------------------------------------- #
#: Content fields each stage's artifact depends on.  ``lower``/``validate``
#: extend ``synthesize``; ``simulate`` extends ``lower``.  ``forwarding`` is
#: no field: it is the model the ``auto`` scheme derives from the fabric.
#: Execution knobs (worker counts) are deliberately absent: they change how
#: fast an artifact is produced, never what it is.
_STAGE_FIELDS: Dict[str, Tuple[str, ...]] = {
    "synthesize": ("topology", "forwarding", "scheme", "scheme_params",
                   "host_bandwidth", "decompose_ts"),
}
_STAGE_FIELDS["lower"] = _STAGE_FIELDS["synthesize"] + ("max_denominator",)
_STAGE_FIELDS["validate"] = _STAGE_FIELDS["lower"]
_STAGE_FIELDS["simulate"] = _STAGE_FIELDS["lower"] + ("fabric", "buffers", "overlap",
                                                     "cluster", "faults")


def _stage_digest(stage: str, canonical: Mapping[str, object]) -> str:
    """sha256 over the schema version, the stage and its canonical fields."""
    payload = repr((_SCENARIO_SCHEMA, stage,
                    tuple(canonical[f] for f in _STAGE_FIELDS[stage])))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def canonical_value(obj: object) -> object:
    """Reduce ``obj`` to a deterministic, order-independent hashable form.

    Mappings become sorted key/value tuples, sets become sorted tuples, and
    sequences become tuples; numpy scalars and arrays are lowered to Python
    scalars / nested tuples so equal fields hash equally regardless of
    array vs list values.  Anything else must round-trip through ``repr``
    deterministically (true for ints, floats, strings, bools and None).
    """
    import numpy as np

    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return tuple(canonical_value(v) for v in obj.tolist())
    if isinstance(obj, Mapping):
        items = [(canonical_value(k), canonical_value(v)) for k, v in obj.items()]
        return ("mapping", tuple(sorted(items, key=repr)))
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted((canonical_value(v) for v in obj), key=repr)))
    if isinstance(obj, (list, tuple)):
        return tuple(canonical_value(v) for v in obj)
    return obj


def topology_key(topology: Topology) -> str:
    """sha256 over everything ``topology`` holds.

    Its name, default capacity and metadata (through :func:`canonical_value`)
    and, in the graph's insertion order, each node's successors with their
    capacities and its predecessors.  The path schemes follow networkx's
    adjacency order and DOR reads the metadata, so two topologies that share
    a key build the same schedules.
    """
    graph = topology.graph
    payload = repr((topology.name, topology.default_cap,
                    canonical_value(topology.metadata),
                    [(u, list(succ), [d["cap"] for d in succ.values()])
                     for u, succ in graph.adjacency()],
                    [list(pred) for pred in graph.pred.values()]))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def fabric_key(fabric: FabricModel) -> Tuple[Tuple[str, object], ...]:
    """The fabric's content minus its cosmetic name, as sorted field items."""
    return tuple(sorted((f.name, getattr(fabric, f.name))
                        for f in dataclass_fields(fabric) if f.name != "name"))


def salted(key: str) -> str:
    """``key`` salted with the package version: a ``REPRO_CACHE_DIR``
    written by another release reads as a miss."""
    from .. import __version__  # lazy: the package imports this module

    return f"{key}-{__version__}"


@dataclass
class Scenario:
    """One declarative all-to-all experiment: topology x fabric x scheme.

    Attributes
    ----------
    topology:
        A spec string (see :func:`repro.topology.from_spec`) or a concrete
        :class:`Topology`.  Both hash by :func:`topology_key`.
    fabric:
        Fabric spec string (see :func:`repro.simulator.fabric_from_spec`) or
        a concrete :class:`FabricModel`; drives the simulate stage and, via
        its ``nic_forwarding``, the forwarding model of the ``auto`` scheme.
    scheme:
        Scheme name from :data:`SCHEMES`; any other name is rejected at
        construction.
    scheme_params:
        Keyword arguments for the scheme callable (e.g. ILP gap/time limits).
    host_bandwidth:
        Host injection bandwidth in link-capacity units, stored as a float.
        ``auto`` on a host-forwarding fabric and ``tsmcf`` solve on the
        host-NIC bottleneck augmented graph when it is below a node's
        aggregate link capacity.
    decompose_ts:
        Solve host-forwarding schedules with the decomposed tsMCF.
    max_denominator:
        Chunking granularity for path schedules (lower stage); an
        integer >= 1.
    buffers:
        Per-node buffer sizes (bytes) swept by the simulate stage.
    overlap:
        Concurrent copies of the collective sharing the fabric during the
        simulate stage (the overlapping-collectives axis); results carry
        per-collective completion times; an integer >= 1.  Part of the
        simulate stage key only, so overlap variants share their
        synthesized schedule.
    cluster:
        Optional multi-job trace spec (``"cluster:jobs=8:arrival=poisson~200:
        placement=packed"``, see :mod:`repro.cluster.trace`).  When set, the
        simulate stage runs the cluster co-simulation instead of the
        throughput sweep.  Part of the simulate stage key only — hashed by
        the parsed canonical form, so traces share synthesized schedules
        and equivalent spellings share keys.  Mutually exclusive with
        ``overlap > 1`` (a cluster trace already multiplexes the fabric).
    faults:
        Optional timed fabric-event spec
        (``"faults:down=0~1@0.5ms:up@1.2ms:seed=7"``, see
        :mod:`repro.faults.spec`).  When set, the simulate stage runs the
        fault-injection runner: links drop/recover/flap mid-collective and
        in-flight flows are rerouted online.  Part of the simulate stage
        key only — hashed by the parsed canonical form, so fault variants
        share synthesized schedules and equivalent spellings share keys.
        Mutually exclusive with ``cluster`` and with ``overlap > 1``.
    name:
        Cosmetic label for reports; excluded from hashing.

    The *static* degraded-fabric axis has no field of its own: it lives on
    the fabric spec (``"hpc:down=0~1"``, ``"hpc:scale=0~1:0.5"``), and since
    the fabric is hashed by *content*, degradation flows into the
    simulate-stage cache key automatically.  The ``faults`` field is its
    dynamic counterpart: the same degradation arriving *mid-run*.
    """

    topology: Union[str, Topology]
    fabric: Union[str, FabricModel] = "hpc"
    scheme: str = "auto"
    scheme_params: Mapping[str, object] = field(default_factory=dict)
    host_bandwidth: Optional[float] = None
    decompose_ts: bool = False
    max_denominator: int = 64
    buffers: Tuple[float, ...] = ()
    overlap: int = 1
    cluster: Optional[str] = None
    faults: Optional[str] = None
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; "
                             f"available: {available_scenario_schemes()}")
        # Numbers are normalized here, so equal values of different types
        # (2 and 2.0, numpy and Python ints) share every key.
        for name in ("max_denominator", "overlap"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or value < 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
            setattr(self, name, int(value))
        if self.host_bandwidth is not None:
            value = self.host_bandwidth
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not (math.isfinite(value) and value > 0)):
                raise ValueError(f"host_bandwidth must be finite and > 0, got {value!r}")
            self.host_bandwidth = float(value)
        if isinstance(self.fabric, str):
            fabric_from_spec(self.fabric)  # eager validation
        if self.cluster is not None:
            from ..cluster.trace import parse_cluster_spec  # lazy: avoid cycle

            if self.overlap > 1:
                raise ValueError(
                    "cluster traces and overlap > 1 are mutually exclusive: "
                    "a cluster trace already multiplexes the fabric")
            parse_cluster_spec(self.cluster)  # eager validation
        if self.faults is not None:
            from ..faults.spec import parse_fault_spec  # lazy: avoid cycle

            if self.cluster is not None:
                raise ValueError(
                    "faults and cluster traces are mutually exclusive: the "
                    "fault runner executes one collective per buffer point")
            if self.overlap > 1:
                raise ValueError(
                    "faults and overlap > 1 are mutually exclusive: the "
                    "fault runner reroutes a single collective's flows")
            parse_fault_spec(self.faults)  # eager validation
        self.buffers = tuple(float(b) for b in self.buffers)
        bad = [b for b in self.buffers if not (math.isfinite(b) and b > 0)]
        if bad:
            raise ValueError(f"buffers must be finite and > 0 bytes, got {bad}")
        by_key: Dict[str, List[float]] = {}
        for b in self.buffers:
            by_key.setdefault(buffer_key(b), []).append(b)
        for key, group in by_key.items():
            if len(group) > 1:
                raise ValueError(f"buffers {group} share the record key {key!r}; "
                                 "records key buffer sizes by whole bytes")
        self.scheme_params = dict(self.scheme_params)
        self._topology_obj: Optional[Topology] = (
            self.topology if isinstance(self.topology, Topology) else None)

    # ------------------------------------------------------------------ #
    # Resolution
    # ------------------------------------------------------------------ #
    def resolved_topology(self) -> Topology:
        """The concrete topology (spec strings are parsed once and memoized)."""
        if self._topology_obj is None:
            self._topology_obj = from_spec(self.topology)
        return self._topology_obj

    def resolved_fabric(self) -> FabricModel:
        """The concrete fabric model."""
        return fabric_from_spec(self.fabric)

    def resolved_forwarding(self) -> ForwardingModel:
        """The forwarding model the fabric implies (Table 1)."""
        return (ForwardingModel.NIC if self.resolved_fabric().nic_forwarding
                else ForwardingModel.HOST)

    def label(self) -> str:
        """Display label: the explicit name, or ``topology/scheme``."""
        if self.name:
            return self.name
        topo = self.topology if isinstance(self.topology, str) else self.topology.name
        return f"{topo}/{self.scheme}"

    # ------------------------------------------------------------------ #
    # Hashing
    # ------------------------------------------------------------------ #
    def _canonical_field(self, fname: str) -> object:
        if fname == "topology":
            return ("topology", topology_key(self.resolved_topology()))
        if fname == "fabric":
            # By content, so "hpc:scale=0~1:0.5" and an equivalently
            # degrade()d FabricModel share keys.
            return ("fabric", fabric_key(self.resolved_fabric()))
        if fname == "forwarding":
            # Only the "auto" scheme branches on the forwarding model, which
            # the fabric picks — hash the resolved model so scenarios
            # differing only in fabric never share a synthesize artifact when
            # the fabric picked the branch.  Every other scheme ignores
            # forwarding ("tsmcf" forces HOST), so a constant keeps their
            # artifacts shared across fabrics.
            if self.scheme == "auto":
                return ("forwarding", self.resolved_forwarding().value)
            return ("forwarding", "ignored")
        value = getattr(self, fname)
        if fname == "cluster":
            # Hash the parsed canonical form so key order / whitespace /
            # default spelling differences in the trace spec share keys.
            if value is None:
                return ("cluster", None)
            from ..cluster.trace import parse_cluster_spec  # lazy: avoid cycle

            return ("cluster", parse_cluster_spec(value).canonical())
        if fname == "faults":
            # Same treatment as cluster: hash the parsed canonical form so
            # event order / spelling differences share keys.
            if value is None:
                return ("faults", None)
            from ..faults.spec import parse_fault_spec  # lazy: avoid cycle

            return ("faults", parse_fault_spec(value).canonical())
        return (fname, canonical_value(value))

    def stage_key(self, stage: str) -> str:
        """Content digest of the fields the given stage depends on.

        Stable across processes: the topology enters via
        :func:`topology_key`, mappings are order-canonicalized, and the
        scenario schema version guards against layout changes.
        """
        if stage not in _STAGE_FIELDS:
            raise KeyError(f"unknown stage {stage!r}; stages: {STAGES}")
        return _stage_digest(stage, {f: self._canonical_field(f)
                                     for f in _STAGE_FIELDS[stage]})

    def stage_keys(self) -> Dict[str, str]:
        """Every stage's :meth:`stage_key`, canonicalizing each field once.

        A run that needs several stages' keys computes them here, so the
        topology is hashed once per scenario and run.
        """
        canonical = {f: self._canonical_field(f) for f in _STAGE_FIELDS["simulate"]}
        return {stage: _stage_digest(stage, canonical) for stage in STAGES}

    def key(self) -> str:
        """Full content digest over every stage-relevant field.

        This is the scenario's identity in sweep JSONL records: resume
        matches completed records on it, so it must not include cosmetic or
        execution-only fields.
        """
        return self.stage_key("simulate")

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form for sweep records.

        Topology/fabric objects (as opposed to spec strings) are recorded as
        ``name#content-hash`` descriptors: enough to identify them, not to
        rebuild them — resume matches on :meth:`key`, never by re-parsing.
        """
        out: Dict[str, object] = {}
        for f in dataclass_fields(self):
            value = getattr(self, f.name)
            if f.name == "topology" and isinstance(value, Topology):
                value = f"{value.name}#{topology_key(value)[:16]}"
            elif f.name == "fabric" and isinstance(value, FabricModel):
                value = f"{value.name}#object"
            elif f.name == "scheme_params":
                value = dict(value)
            elif f.name == "buffers":
                value = list(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Scenario":
        """Build a scenario from a (possibly all-string, CLI-supplied) mapping."""
        known = {f.name for f in dataclass_fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown scenario field(s) {unknown}; known: {sorted(known)}")
        kwargs: Dict[str, object] = {}
        for key, value in data.items():
            kwargs[key] = _coerce_field(key, value)
        return cls(**kwargs)


_NUMBER_FIELDS = {"host_bandwidth": float, "max_denominator": int, "overlap": int}
_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _coerce_field(name: str, value: object) -> object:
    """Coerce string values (from CLI flags / JSON grids) to field types."""
    if name == "scheme_params":
        if not isinstance(value, Mapping):
            raise ValueError(f"scheme_params must be a mapping, got {value!r}")
        return value
    if not isinstance(value, str):
        return value
    if name in _NUMBER_FIELDS:
        if value.lower() in ("", "none"):
            return None
        try:
            return _NUMBER_FIELDS[name](value)
        except ValueError:
            raise ValueError(f"cannot read {name} from {value!r}") from None
    if name == "decompose_ts":
        if value.lower() not in _TRUE + _FALSE:
            raise ValueError(f"decompose_ts must be one of {_TRUE + _FALSE} "
                             f"(any case), got {value!r}")
        return value.lower() in _TRUE
    if name == "buffers":
        # ';'-separated because ',' separates axis values in the CLI.
        return tuple(float(x) for x in value.replace(";", " ").split() if x)
    if name in ("cluster", "faults"):
        return None if value.lower() in ("", "none") else value
    return value
