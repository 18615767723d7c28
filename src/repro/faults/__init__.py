"""Dynamic fabric failures with online rerouting.

The static degraded-fabric axis (PR 5) snapshots a broken fabric before the
run; this package makes the fabric *move*: a strict fault-spec grammar
(:mod:`.spec`) describes timed link outages, recoveries, bandwidth flaps
and straggler hosts; :mod:`.runner` injects them as events into the fluid
engine's queue, rerouting in-flight flows deterministically around down
links (:mod:`.reroute`, certified deadlock-free through LASH / DF-SSSP)
and re-filling incrementally over the survivors; :mod:`.adversarial`
searches worst-case k-link failure sets against a schedule.  :mod:`.context`
hoists per-flow arrays, the compiled arena template (:mod:`repro.perf.delta`)
and the shared reroute/certification caches so sweeps and searches pay the
setup once.

Correctness is pinned by ``tests/test_faults.py``: every faulted run must
agree to 1e-9 with a hand-stitched sequence of piecewise-static engine
runs, and zero-fault specs are byte-identical to the plain engine.
"""

from .adversarial import (
    AdversarialResult,
    ranked_physical_links,
    worst_case_failures,
)
from .context import PreparedFaultContext, RerouteCache
from .reroute import (
    certify_routes,
    effective_path,
    repair_path,
    surviving_adjacency,
)
from .runner import (StrandedScheduleError, capture_fault_prefix, run_faulted,
                     run_faulted_sweep)
from .spec import (
    VC_POLICIES,
    FaultEvent,
    FaultSpec,
    FaultTimeline,
    parse_fault_spec,
)

__all__ = [
    "AdversarialResult",
    "ranked_physical_links",
    "worst_case_failures",
    "certify_routes",
    "effective_path",
    "repair_path",
    "surviving_adjacency",
    "PreparedFaultContext",
    "RerouteCache",
    "StrandedScheduleError",
    "capture_fault_prefix",
    "run_faulted",
    "run_faulted_sweep",
    "VC_POLICIES",
    "FaultEvent",
    "FaultSpec",
    "FaultTimeline",
    "parse_fault_spec",
]
