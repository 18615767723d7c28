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

Times are seconds, with optional ``s``/``ms``/``us`` suffixes (``0.5ms``,
``300us``, ``0.002``).  ``*`` attaches factors (not ``:`` as in the static
fabric grammar, because ``:`` separates spec fields here).

Parsing is strict — unknown keys, malformed tokens and duplicate
``seed=``/``vc=`` raise ``ValueError`` — and :meth:`FaultSpec.canonical` is
field-order invariant (events sort by time, then kind, then payload), so
equivalent spellings hash identically in the scenario layer, exactly like
:meth:`~repro.cluster.trace.ClusterSpec.canonical`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

from ..simulator.fabric import FabricModel, parse_link_set

__all__ = ["FaultEvent", "FaultSpec", "FaultTimeline", "parse_fault_spec",
           "VC_POLICIES"]

VC_POLICIES = ("lash", "dfsssp", "off")

#: Event kinds in canonical sort order at equal timestamps: recoveries
#: apply before outages, outages before bandwidth changes, so a link both
#: recovered and re-downed at the same instant ends down (documented
#: tie-break, mirrored by the runner's per-epoch state build).
_KINDS = ("up", "down", "scale", "straggler")

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


def _parse_time(text: str, spec: str) -> float:
    text = text.strip().lower()
    scale = 1.0
    for suffix, mult in (("us", 1e-6), ("ms", 1e-3), ("s", 1.0)):
        if text.endswith(suffix):
            text = text[: -len(suffix)]
            scale = mult
            break
    try:
        value = float(text) * scale
    except ValueError:
        raise ValueError(f"malformed fault time {text!r} in {spec!r}") from None
    if value < 0:
        raise ValueError(f"fault time must be >= 0, got {value} in {spec!r}")
    return value


def _split_at(token: str, spec: str) -> Tuple[str, float]:
    """Split ``payload@time`` and parse the time."""
    if "@" not in token:
        raise ValueError(
            f"fault event {token!r} needs @<time> (in {spec!r})")
    payload, _, when = token.rpartition("@")
    return payload, _parse_time(when, spec)


def _split_factor(payload: str, spec: str) -> Tuple[str, float]:
    """Split ``target*factor`` and parse the factor."""
    if "*" not in payload:
        raise ValueError(
            f"fault event payload {payload!r} needs *<factor> (in {spec!r})")
    target, _, factor_text = payload.rpartition("*")
    try:
        factor = float(factor_text)
    except ValueError:
        raise ValueError(
            f"malformed fault factor {factor_text!r} in {spec!r}") from None
    if factor <= 0:
        raise ValueError(
            f"fault scale factor must be > 0, got {factor} in {spec!r} "
            "(use down= to take a link out of service)")
    return target.strip(), factor


def parse_fault_spec(spec: str) -> FaultSpec:
    """Parse a ``faults:...`` spec string into a :class:`FaultSpec`."""
    text = str(spec).strip()
    parts = text.split(":")
    if parts[0].strip().lower() != "faults":
        raise ValueError(f"fault spec must start with 'faults:', got {spec!r}")
    events: List[FaultEvent] = []
    seed: Optional[int] = None
    vc: Optional[str] = None
    for part in parts[1:]:
        part = part.strip()
        if not part:
            continue
        key, eq, value = part.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key == "seed":
            if seed is not None:
                raise ValueError(f"duplicate fault spec key 'seed' in {spec!r}")
            seed = int(value)
        elif key == "vc":
            if vc is not None:
                raise ValueError(f"duplicate fault spec key 'vc' in {spec!r}")
            vc = value.lower()
        elif key == "down":
            if not eq:
                raise ValueError(f"down events need links: down=<links>@<time> "
                                 f"(in {spec!r})")
            links_text, when = _split_at(value, spec)
            links = parse_link_set(links_text)
            if not links:
                raise ValueError(f"down event has no links in {spec!r}")
            events.append(FaultEvent(time=when, kind="down", links=links))
        elif key == "up" or (not eq and key.partition("@")[0] == "up"):
            # "up@t" has no '='; partition("=") left the whole token in `key`.
            token = part if not eq else value
            payload, when = _split_at(token, spec)
            if not eq:
                links: Tuple[Link, ...] = ()
            else:
                links = parse_link_set(payload)
                if not links:
                    raise ValueError(f"up event has no links in {spec!r} "
                                     "(use bare up@<time> to recover all)")
            events.append(FaultEvent(time=when, kind="up", links=links))
        elif key == "scale":
            if not eq:
                raise ValueError(f"scale events need links: "
                                 f"scale=<links>*<factor>@<time> (in {spec!r})")
            payload, when = _split_at(value, spec)
            links_text, factor = _split_factor(payload, spec)
            links = parse_link_set(links_text)
            if not links:
                raise ValueError(f"scale event has no links in {spec!r}")
            events.append(FaultEvent(time=when, kind="scale", links=links,
                                     factor=factor))
        elif key == "straggler":
            if not eq:
                raise ValueError(f"straggler events need a node: "
                                 f"straggler=<node>*<factor>@<time> (in {spec!r})")
            payload, when = _split_at(value, spec)
            node_text, factor = _split_factor(payload, spec)
            try:
                node = int(node_text)
            except ValueError:
                raise ValueError(
                    f"malformed straggler node {node_text!r} in {spec!r}") from None
            events.append(FaultEvent(time=when, kind="straggler", links=(),
                                     factor=factor, node=node))
        else:
            raise ValueError(
                f"unknown fault spec key {key!r} in {spec!r}; known keys: "
                "['down', 'scale', 'seed', 'straggler', 'up', 'vc']")
    return FaultSpec(events=tuple(events), seed=0 if seed is None else seed,
                     vc="lash" if vc is None else vc)


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
