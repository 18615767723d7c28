"""Fault spec grammar: timed fabric events with canonical hashing.

A *fault spec* is a compact string describing how the fabric changes while a
schedule is running::

    faults:down=0~1@0.5ms:up@1.2ms:scale=2~3*0.5@0.8ms:seed=7

Fields are ``:``-separated after the ``faults`` prefix.  Event keys may
repeat (a real outage log has many events); ``seed=`` and ``vc=`` are
unique-once knobs:

- ``down=<links>@<time>`` — the listed directed links go hard-down at
  ``time``.  Links use the fabric grammar: ``u-v`` is one direction,
  ``u~v`` both, ``|`` separates several links (``down=0~1|2-3@1ms``);
- ``up@<time>`` / ``up=<links>@<time>`` — fault-downed links recover.  The
  bare form recovers *every* link the fault timeline has taken down so far;
  the explicit form recovers only the listed links.  Links down on the
  *base* fabric never recover (they model permanent damage, not faults);
- ``scale=<links>*<factor>@<time>`` — bandwidth flap: the listed links run
  at ``factor`` times their current bandwidth from ``time`` on (factors
  multiply onto the base fabric's ``link_scale``);
- ``straggler=<node>*<factor>@<time>`` — host slowdown: every directed
  link incident to ``node`` (either direction) is scaled by ``factor``;
- ``seed=S`` — RNG seed recorded for randomized tooling (adversarial
  search tie-breaking); does not change deterministic replay;
- ``vc=lash|dfsssp|off`` — which deadlock-free layer assignment certifies
  the repaired route set at each fabric epoch (default ``lash``).

Times are finite seconds, with optional ``s``/``ms``/``us`` suffixes
(``0.5ms``, ``300us``, ``0.002``); an event takes exactly one ``@<time>``.
``*`` attaches factors (not ``:`` as in the static fabric grammar, because
``:`` separates spec fields here); factors are > 0.

Parsing is strict — unknown keys, malformed tokens and duplicate
``seed=``/``vc=`` raise ``ValueError`` (the shared grammar,
:func:`repro.grammar.split_spec`) — and :meth:`FaultSpec.canonical` is
field-order invariant (events sort by time, then kind, then payload), so
equivalent spellings hash identically in the scenario layer, exactly like
:meth:`~repro.cluster.trace.ClusterSpec.canonical`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

from ..grammar import Field, at_time, number, parse_link_set, split_spec, times_factor
from ..simulator.fabric import FabricModel

__all__ = ["FaultEvent", "FaultSpec", "FaultTimeline", "parse_fault_spec",
           "VC_POLICIES"]

VC_POLICIES = ("lash", "dfsssp", "off")

#: Event kinds in canonical sort order at equal timestamps: recoveries
#: apply before outages, outages before bandwidth changes, so a link both
#: recovered and re-downed at the same instant ends down (documented
#: tie-break, mirrored by the runner's per-epoch state build).
_KINDS = ("up", "down", "scale", "straggler")

#: Event keys repeat (an outage log has many events); ``seed``/``vc`` do not.
_KEYS = {"faults": (*_KINDS, "seed", "vc")}

Link = Tuple[int, int]


@dataclass(frozen=True)
class FaultEvent:
    """One timed fabric mutation.

    ``links`` is empty for a bare ``up@t`` (recover everything);
    ``factor`` is None for ``down``/``up`` events.  ``node`` is set only
    for straggler events (kept alongside the expanded incident ``links``
    so the canonical form stays payload-explicit).
    """

    time: float
    kind: str                        # "down" | "up" | "scale" | "straggler"
    links: Tuple[Link, ...] = ()
    factor: Optional[float] = None
    node: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault event kind {self.kind!r}")
        if self.time < 0:
            raise ValueError(f"fault event time must be >= 0, got {self.time}")
        object.__setattr__(self, "links",
                           tuple(sorted((int(u), int(v)) for u, v in self.links)))

    def canonical(self) -> Tuple[object, ...]:
        return (float(self.time), self.kind, self.links,
                None if self.factor is None else float(self.factor),
                self.node)


@dataclass(frozen=True)
class FaultSpec:
    """A parsed fault schedule: timed events plus the rerouting knobs."""

    events: Tuple[FaultEvent, ...]
    seed: int = 0
    vc: str = "lash"

    def __post_init__(self) -> None:
        if self.vc not in VC_POLICIES:
            raise ValueError(f"vc must be one of {VC_POLICIES}, got {self.vc!r}")
        # Canonical event order: time, then kind rank, then payload — so two
        # specs listing the same events in a different textual order compare
        # and hash identically.
        ordered = tuple(sorted(
            self.events,
            key=lambda e: (e.time, _KINDS.index(e.kind), e.links,
                           -1.0 if e.factor is None else e.factor,
                           -1 if e.node is None else e.node)))
        object.__setattr__(self, "events", ordered)

    def canonical(self) -> Tuple[object, ...]:
        """Field-order-invariant tuple used for scenario content hashing."""
        return ("faults", tuple(e.canonical() for e in self.events),
                int(self.seed), self.vc)

    @property
    def trivial(self) -> bool:
        """True when the spec cannot change any run.

        No epoch boundaries after t=0 and nothing degrading the initial
        state: ``up`` events over a pristine fault layer are no-ops, so a
        spec made only of those (e.g. ``faults:up@0``) is trivial and a
        faulted run under it reproduces the plain engine byte-for-byte.
        """
        if FaultTimeline(self).epochs:
            return False
        return all(e.kind == "up" for e in self.events)


def parse_fault_spec(spec: str) -> FaultSpec:
    """Parse a ``faults:...`` spec string into a :class:`FaultSpec`."""
    _, fields = split_spec(spec, "fault", ":", _KEYS, repeatable=_KINDS,
                           bare=("up",))
    events: List[FaultEvent] = []
    seed, vc = 0, "lash"
    for field in fields:
        if field.key == "seed":
            seed = number(field.value, "fault seed", cast=int)
        elif field.key == "vc":
            vc = field.value.lower()
        else:
            events.append(_event(field))
    return FaultSpec(events=tuple(events), seed=seed, vc=vc)


def _event(field: Field) -> FaultEvent:
    """One event field (``down=``, ``up=``/``up@``, ``scale=`` or ``straggler=``)."""
    kind = field.key
    payload, when = at_time(field.value, f"{kind} event")
    if kind == "straggler":
        node, factor = times_factor(payload, "straggler")
        return FaultEvent(time=when, kind=kind, factor=factor,
                          node=number(node, "straggler node", cast=int))
    if field.bare:           # up@t: recover every link the faults took down
        return FaultEvent(time=when, kind=kind)
    factor = None
    if kind == "scale":
        payload, factor = times_factor(payload, "fault scale")
    links = parse_link_set(payload)
    if not links:
        raise ValueError(f"{kind} event {field.value!r} has no links"
                         + (" (use bare up@<time> to recover all)" if kind == "up" else ""))
    return FaultEvent(time=when, kind=kind, links=links, factor=factor)


class FaultTimeline:
    """The fault schedule resolved against time: epochs and fabric states.

    An *epoch* starts at each distinct event timestamp.  Events at t=0 fold
    into the initial fabric state (so ``up@0`` over a pristine fabric is a
    literal no-op and ``down=...@0`` equals a statically degraded fabric).
    At equal timestamps events apply in the canonical kind order
    (up, down, scale, straggler — see :data:`_KINDS`), so simultaneous
    recover+fail of the same link deterministically leaves it down.

    ``fabric_at(base, t)`` materializes the effective
    :class:`~repro.simulator.fabric.FabricModel` at time ``t``: the base
    fabric's ``down_links`` stay down forever; fault ``down`` links stack on
    top until recovered; ``scale``/``straggler`` factors multiply onto the
    base ``link_scale`` cumulatively.  Straggler events expand to concrete
    incident links lazily (they need the topology's edge list).
    """

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        #: Distinct event times > 0, ascending — the epoch boundaries.
        self.epochs: Tuple[float, ...] = tuple(sorted(
            {e.time for e in spec.events if e.time > 0.0}))

    def _events_through(self, t: float) -> List[FaultEvent]:
        return [e for e in self.spec.events if e.time <= t]

    def state_at(self, t: float, edges: Tuple[Link, ...]
                 ) -> Tuple[Set[Link], Dict[Link, float]]:
        """Fault-layer state at time ``t``: (down set, scale-factor map).

        ``edges`` is the topology's directed edge list (needed to expand
        straggler events); the returned down set excludes base-fabric down
        links (the caller unions them in).
        """
        down: Set[Link] = set()
        factors: Dict[Link, float] = {}
        edge_set = set(edges)
        for event in self._events_through(t):   # canonical order by spec
            if event.kind == "down":
                down.update(event.links)
            elif event.kind == "up":
                if event.links:
                    down.difference_update(event.links)
                else:
                    down.clear()
            elif event.kind == "scale":
                for link in event.links:
                    factors[link] = factors.get(link, 1.0) * float(event.factor)
            else:  # straggler: every directed link touching the node
                node = event.node
                for link in edge_set:
                    if node in link:
                        factors[link] = factors.get(link, 1.0) * float(event.factor)
        return down, factors

    def fabric_at(self, base: FabricModel, t: float,
                  edges: Tuple[Link, ...]) -> FabricModel:
        """The effective fabric at time ``t`` (base degradation included)."""
        down, factors = self.state_at(t, edges)
        if not down and not factors:
            return base
        scales = dict(base.link_scale_map())
        for link, factor in factors.items():
            scales[link] = scales.get(link, 1.0) * factor
        all_down = set(base.down_links) | down
        return replace(base, down_links=tuple(sorted(all_down)),
                       link_scale=tuple(sorted(scales.items())),
                       name=f"{base.name}@t={t:g}")
