"""Unified vectorized fluid simulation engine: one core for all regimes.

Every simulation regime in :mod:`repro.simulator` — bare cut-through flow
sets (:func:`simulate_program`), stepped link schedules (:mod:`.stepsim`) and
whole collectives (:mod:`.collective`) — lowers to the same flow IR and runs
on this engine:

1. **compile** — :func:`compile_flows` turns a flow set into a
   :class:`FlowProgram`: flows, links, injection caps and forwarding caps
   become sparse resource-incidence arrays (COO triplets plus per-resource
   capacities, built with numpy once per schedule).  A buffer sweep
   compiles once and runs each buffer as ``execute(program, sizes=...)``:
   sizes enter only the run, never the incidence or the fill;
2. **fill** — progressive filling (max-min fairness) runs the vectorized
   numpy saturation rounds of :mod:`repro.perf.fillkernel` (per round, the
   minimum fair share picks the bottleneck(s), all their flows freeze at
   that rate, and their incidence entries drop out of later rounds);
   scratch arrays live in a
   :class:`~repro.perf.fillkernel.FillWorkspace` reused across fills,
   which also keeps the last fill's rounds, so a fill over the same flows
   minus finished ones resumes from the first round a finished flow froze
   in.  A static program also memoizes its fills by active mask
   (:attr:`FlowProgram.fills`), so the buffers of one sweep fill each
   distinct mask once; a :class:`~repro.perf.delta.DeltaProgram` arena,
   whose capacities change in place, never uses the memo;
3. **run** — :class:`FluidRun` is the one fluid event loop: it advances
   from event to event on the :class:`~repro.simulator.events.EventQueue`,
   integrating rates, retiring finished flows and re-filling over the
   survivors.  :func:`execute` runs a compiled program on it; the cluster
   runner (arrivals, compute timers, phase barriers that inject flow sets)
   and the fault runner (fabric epochs that reroute and patch the
   :class:`~repro.perf.delta.DeltaProgram` arena) are event sources on the
   same loop.

The loop owns the events and its driver owns the fills.
:meth:`FluidRun.advance` fires events until the active flows need new
rates and returns the fill request ``(program, active, workspace)``, or
None once the queue drains; :meth:`FluidRun.accept` takes the filled
``(rates, rounds)``, raises the stall error and schedules the next
completion edge.  :meth:`FluidRun.run` is the one-run driver, which fills
each request with :func:`fill_rates` (through the static-program memo);
the adversarial search drives many runs in lockstep and fills a group of
their requests with one :func:`fill_stacked` call.

Max-min fair allocations are unique, so freezing *all* minimum-share
resources per round is exactly equivalent to the classic one-bottleneck-
per-iteration formulation (kept, interpreter-bound, in
:mod:`.reference` for differential testing); the two implementations agree
to float round-off.

Flows carry a *flow-set id* so multiple collectives can share the fabric in
one simulation (the overlap axis): :class:`EngineResult` reports a
completion time per flow set alongside the overall one.  Degraded fabrics
(per-link bandwidth scaling, link-down sets on
:class:`~repro.simulator.fabric.FabricModel`) enter through the per-link
capacities at compile time; a flow crossing a down link is a compile error.

Every fill adds its rounds and seconds (a stacked fill the rounds of all
its blocks), and every :meth:`FluidRun.advance` its events, to the
``sim.*`` counters of :mod:`repro.obs`; a memo hit adds its rounds and one
``sim.fill_hits``.
"""

from __future__ import annotations

import copy
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from .. import constants
from ..constants import SIM_BYTES_EPS, SIM_EPS
from ..perf.fillkernel import (FillWorkspace, StackedWorkspace,
                               fill_stacked_numpy, run_fill)
from ..topology.base import Edge, Topology
from .events import EventQueue
from .fabric import FabricModel

__all__ = ["FluidFlow", "FlowProgram", "EngineResult", "FillWorkspace",
           "FluidRun", "compile_flows", "execute", "fill_rates",
           "fill_stacked", "run_lockstep", "simulate_program"]


@dataclass
class FluidFlow:
    """One fluid flow: ``size_bytes`` to move along ``path`` (node sequence)."""

    path: Tuple[int, ...]
    size_bytes: float

    def __post_init__(self) -> None:
        if len(self.path) < 2:
            raise ValueError("flow path needs at least two nodes")
        if self.size_bytes < 0:
            raise ValueError("flow size must be non-negative")

    @property
    def edges(self) -> Tuple[Edge, ...]:
        return tuple(zip(self.path[:-1], self.path[1:]))

    @property
    def hops(self) -> int:
        return len(self.path) - 1


# --------------------------------------------------------------------------- #
# Flow IR
# --------------------------------------------------------------------------- #
@dataclass
class FlowProgram:
    """A compiled flow set: sizes, latencies and resource incidence.

    ``inc_res``/``inc_flow`` are parallel COO arrays — entry ``k`` says flow
    ``inc_flow[k]`` consumes resource ``inc_res[k]`` — and ``res_cap`` holds
    every resource's capacity in bytes/second (links first, then optional
    per-node injection and forwarding resources).  Built once per schedule;
    :func:`execute` only masks completed flows between fills, and may run
    the same program at other per-flow ``sizes`` (one buffer sweep).

    ``fills`` memoizes the max-min fills of the static program, by active
    mask bytes, as ``(rates, rounds)``: the fill never reads sizes, so every
    run of the program shares them.  Only a :class:`FluidRun` over a static
    program reads or writes it; the views of a
    :class:`~repro.perf.delta.DeltaProgram` arena leave it empty, because
    the arena posts capacities in place.
    """

    num_flows: int
    sizes: np.ndarray                     # (F,) bytes
    start_delays: np.ndarray              # (F,) seconds of start-up latency
    set_ids: np.ndarray                   # (F,) flow-set (collective) index
    set_names: Tuple[str, ...]            # flow-set index -> display name
    res_cap: np.ndarray                   # (R,) bytes/second
    inc_res: np.ndarray                   # (NNZ,) resource index
    inc_flow: np.ndarray                  # (NNZ,) flow index
    max_link_bytes: float = 0.0           # busiest link's total byte load
    total_bytes: float = 0.0
    num_links: int = 0                    # resources [0, num_links) are links
    meta: Dict[str, object] = field(default_factory=dict)
    fills: Dict[bytes, Tuple[np.ndarray, int]] = field(default_factory=dict)

    def loads(self, sizes: np.ndarray) -> Tuple[float, float]:
        """``(max_link_bytes, total_bytes)`` of the flows at ``sizes``.

        Link loads accumulate in entry order and the total left to right,
        so both are the same floats for the same sizes.
        """
        link = self.inc_res < self.num_links
        load = np.bincount(self.inc_res[link], weights=sizes[self.inc_flow[link]],
                           minlength=self.num_links)
        busiest = float(load.max()) if self.num_links and self.num_flows else 0.0
        return busiest, float(sum(sizes.tolist()))


def compile_flows(topology: Topology, flows: Sequence[FluidFlow],
                  fabric: Optional[FabricModel] = None,
                  set_ids: Optional[Sequence[int]] = None,
                  set_names: Optional[Sequence[str]] = None,
                  include_latency: bool = True,
                  include_ejection: bool = False) -> FlowProgram:
    """Lower a flow set to a :class:`FlowProgram`.

    Resources mirror the scalar reference exactly: one per directed link
    (capacity = ``cap * effective_link_bandwidth``), one per source node when
    the fabric is injection-limited, one per intermediate node when it
    defines a forwarding cap.  ``include_latency=False`` zeroes the per-flow
    start delays (the step simulator accounts latency per step instead).
    ``include_ejection=True`` additionally caps each flow's *destination*
    node at the injection bandwidth — the store-and-forward regime, where
    received bytes cross the host-NIC boundary too.

    The incidence is built with numpy over the concatenated paths.  Each
    flow's entries are contiguous and in a fixed order: its links, then its
    injection, forwarding and ejection resources.
    """
    fabric = fabric or FabricModel()
    n = len(flows)
    down = set(fabric.down_links)
    edges = topology.edges
    num_links = len(edges)
    num_nodes = topology.num_nodes

    link_bw = fabric.link_bandwidths(edges)
    link_cap = np.array(
        [topology.capacity(u, v) * link_bw[(u, v)] for u, v in edges], dtype=float)
    max_deg = topology.max_degree()
    injection_capped = fabric.injection_limited(max_deg)
    fwd_cap = fabric.forwarding_bandwidth

    caps = [link_cap]
    inj_base = num_links
    if injection_capped:
        caps.append(np.full(num_nodes, fabric.effective_injection(max_deg)))
    fwd_base = num_links + (num_nodes if injection_capped else 0)
    if fwd_cap is not None:
        caps.append(np.full(num_nodes, float(fwd_cap)))
    ej_base = fwd_base + (num_nodes if fwd_cap is not None else 0)
    ejection_capped = include_ejection and injection_capped
    if ejection_capped:
        caps.append(np.full(num_nodes, fabric.effective_injection(max_deg)))
    res_cap = np.concatenate(caps) if len(caps) > 1 else link_cap

    hops = np.fromiter((len(f.path) - 1 for f in flows), dtype=np.int64,
                       count=n)
    inc_res, inc_flow = _incidence(
        flows, hops, edges, down, inj_base if injection_capped else None,
        fwd_base if fwd_cap is not None else None,
        ej_base if ejection_capped else None)

    if include_latency:
        delays = fabric.per_message_overhead + hops * fabric.per_hop_latency
    else:
        delays = np.zeros(n)
    ids = (np.zeros(n, dtype=np.int64) if set_ids is None
           else np.asarray(list(set_ids), dtype=np.int64))
    if len(ids) != n:
        raise ValueError(f"set_ids length {len(ids)} != number of flows {n}")
    names = tuple(set_names) if set_names is not None else (
        tuple(f"set{i}" for i in range(int(ids.max()) + 1)) if n else ())

    program = FlowProgram(
        num_flows=n,
        sizes=np.array([float(f.size_bytes) for f in flows]),
        start_delays=np.asarray(delays, dtype=float),
        set_ids=ids,
        set_names=names,
        res_cap=res_cap,
        inc_res=inc_res,
        inc_flow=inc_flow,
        num_links=num_links,
    )
    program.max_link_bytes, program.total_bytes = program.loads(program.sizes)
    return program


def _incidence(flows: Sequence[FluidFlow], hops: np.ndarray, edges: List[Edge],
               down: set, inj_base: Optional[int], fwd_base: Optional[int],
               ej_base: Optional[int]) -> Tuple[np.ndarray, np.ndarray]:
    """``(inc_res, inc_flow)`` of ``flows``: per flow, its links in path
    order, then its injection, forwarding and ejection resources (a base of
    None leaves that kind out).  A hop over a down or missing link raises
    the error naming the first such flow."""
    n = len(flows)
    if not n:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    # Node k of the concatenated paths belongs to flow flow_of[k]; it starts
    # a hop unless it ends its path.
    lens = hops + 1
    ends = np.cumsum(lens)
    starts = ends - lens
    nodes = np.fromiter(itertools.chain.from_iterable(f.path for f in flows),
                        dtype=np.int64, count=int(ends[-1]))
    flow_of = np.repeat(np.arange(n, dtype=np.int64), lens)
    has_hop = np.ones(len(nodes), dtype=bool)
    has_hop[ends - 1] = False
    hop_at = np.flatnonzero(has_hop)
    u, v = nodes[hop_at], nodes[hop_at + 1]

    # Look the hops up among the usable links by key u * width + v: sorted,
    # as topology.edges is, behind a sentinel that matches no hop.
    usable = np.array([(-1, -1, -1)] + [(a, b, i) for i, (a, b) in enumerate(edges)
                                          if (a, b) not in down],
                      dtype=np.int64)
    width = 1 + max(int(nodes.max()), int(usable[:, :2].max()))
    keys = usable[:, 0] * width + usable[:, 1]
    hop_keys = u * width + v
    at = np.minimum(np.searchsorted(keys, hop_keys), len(keys) - 1)
    bad = (u < 0) | (v < 0) | (keys[at] != hop_keys)
    if bad.any():
        first = int(hop_at[np.argmax(bad)])
        fid = int(flow_of[first])
        flow = flows[fid]
        e = flow.edges[first - int(starts[fid])]
        if e in down:
            raise ValueError(
                f"flow {fid} (path {flow.path}) crosses down link {e}; "
                "re-synthesize the schedule for the degraded fabric or "
                "drop the affected flows")
        raise ValueError(f"flow {fid} uses non-existent link {e}")

    # Scatter each entry to its flow's first entry plus its slot there.
    before_fwd = hops + (inj_base is not None)
    counts = before_fwd + (hops - 1) * (fwd_base is not None) + (ej_base is not None)
    offsets = np.cumsum(counts) - counts
    shift = offsets - starts
    inc_res = np.empty(int(offsets[-1] + counts[-1]), dtype=np.int64)
    inc_res[hop_at + shift[flow_of[hop_at]]] = usable[at, 2]
    if inj_base is not None:
        inc_res[offsets + hops] = inj_base + nodes[starts]
    if fwd_base is not None:
        has_hop[starts] = False
        inner = np.flatnonzero(has_hop)
        owner = flow_of[inner]
        inc_res[inner + shift[owner] + before_fwd[owner] - 1] = fwd_base + nodes[inner]
    if ej_base is not None:
        inc_res[offsets + counts - 1] = ej_base + nodes[ends - 1]
    return inc_res, np.repeat(np.arange(n, dtype=np.int64), counts)


# --------------------------------------------------------------------------- #
# Progressive filling (the repro.perf fill kernel)
# --------------------------------------------------------------------------- #
def fill_rates(program: FlowProgram, active: np.ndarray,
               workspace: Optional[FillWorkspace] = None
               ) -> Tuple[np.ndarray, int]:
    """Max-min fair rates for the active flows.

    Runs :func:`repro.perf.fillkernel.run_fill`, the vectorized numpy
    saturation rounds.  With a ``workspace`` (built once per program)
    scratch arrays *and the returned rate vector* are reused across calls,
    and a fill over a subset of the last fill's flows resumes from its
    saved rounds; callers that keep rates past the next fill must copy
    them.  Returns the rate vector and the number of saturation rounds;
    the rounds and the wall time are added to the ``sim.fill_rounds`` and
    ``sim.fill_seconds`` counters of :mod:`repro.obs`.
    """
    t0 = time.perf_counter()
    rates, rounds = run_fill(program, active, workspace)
    obs.add({"sim.fill_rounds": rounds,
             "sim.fill_seconds": time.perf_counter() - t0})
    return rates, rounds


def fill_stacked(requests: Sequence[Optional[Tuple[FlowProgram, np.ndarray]]],
                 workspace: StackedWorkspace
                 ) -> List[Optional[Tuple[np.ndarray, int]]]:
    """:func:`fill_rates` of many runs' ``(program, active)`` requests at once.

    Runs :func:`repro.perf.fillkernel.fill_stacked_numpy`: one stacked
    fill whose per-request ``(rates, rounds)`` equal the separate fills bit
    for bit.  A None request is a finished run's slot and gets None.  The
    rounds of every request and the call's wall time are added to the
    ``sim.fill_rounds`` and ``sim.fill_seconds`` counters.
    """
    t0 = time.perf_counter()
    results = fill_stacked_numpy(requests, workspace)
    obs.add({"sim.fill_rounds": sum(r[1] for r in results if r is not None),
             "sim.fill_seconds": time.perf_counter() - t0})
    return results


# --------------------------------------------------------------------------- #
# The fluid event loop
# --------------------------------------------------------------------------- #
#: Relative slack of the completion-edge rule (see :class:`FluidRun`).
_EDGE_SLACK = 1e-12


class FluidRun:
    """The fluid event loop: one :class:`EventQueue` over one flow program.

    ``program`` is a static :class:`FlowProgram` (what :func:`execute` runs)
    or a mutable :class:`~repro.perf.delta.DeltaProgram` arena, into which
    flow sets are injected (:meth:`inject`) and whose capacities and routes
    event sources patch between events.  The run owns the per-flow state —
    ``remaining`` bytes, the ``active`` fill mask, ``completion`` instants
    and start-up ``delays`` (``sizes``/``delays`` default to the program's)
    — the workspace-aliased ``rates`` and the pending completion edge, and
    implements the one stepping rule every simulation shares:

    * **integrate** — every event first drains ``rates * dt`` bytes from the
      active flows since the previous event;
    * **retire** — flows left with at most ``SIM_BYTES_EPS`` bytes finish
      now, at ``now + delay``.  At a completion edge every flow whose
      analytic finish falls on that edge (``remaining <= rates * dt *
      (1 + 1e-12) + SIM_BYTES_EPS`` when the edge was scheduled) finishes
      too, whatever residue float round-off left: late in a run ``now + dt``
      can equal ``now``, and the residue would otherwise respawn the same
      edge until the event budget runs out;
    * **refill** — once every event at the current instant has fired, the
      active flows are re-filled if anything changed (a retirement, an
      injection, or a source calling :meth:`changed`): :meth:`advance`
      returns the request, and :meth:`accept` takes the rates and
      schedules the next completion edge.

    Flows of at most ``SIM_EPS`` bytes complete on entry after their start
    delay, without entering the fill.  Event sources — job arrivals,
    compute timers, phase barriers, fabric epochs — schedule callbacks with
    :meth:`schedule_at`.  A source scheduled before a completion edge at the
    same instant fires first (the queue breaks time ties by insertion
    order).  Active flows with zero rate raise the stall error; more than
    :data:`~repro.constants.SIM_MAX_EVENTS` events raise the event-cap error.
    """

    def __init__(self, program, sizes: Optional[np.ndarray] = None,
                 delays: Optional[np.ndarray] = None) -> None:
        """Start a run at t=0 over ``program`` (nothing fills until :meth:`advance`)."""
        if isinstance(program, FlowProgram):
            self.arena = None
            self._static = (program, FillWorkspace(program))
        else:
            self.arena = program
        program = self.program
        self.queue = EventQueue()
        self.remaining = np.array(program.sizes if sizes is None else sizes,
                                  dtype=float)
        self.delays = np.asarray(program.start_delays if delays is None
                                 else delays, dtype=float)
        self.active = np.ones(len(self.remaining), dtype=bool)
        self.completion = np.zeros(len(self.remaining))
        self.rates = np.zeros(len(self.remaining))
        self.fill_rounds = 0
        self.last = 0.0
        self._edge: Optional[np.ndarray] = None
        self._pending = None
        self._dirty = True
        self._sets: Dict[int, list] = {}
        self._enter(0)

    @property
    def program(self) -> FlowProgram:
        """The flow program the next fill runs over."""
        return self._static[0] if self.arena is None else self.arena.program

    @property
    def workspace(self) -> FillWorkspace:
        """The fill workspace matching :attr:`program`."""
        return self._static[1] if self.arena is None else self.arena.workspace

    @property
    def now(self) -> float:
        """The current simulated time."""
        return self.queue.now

    # ------------------------------------------------------------------ #
    # Event sources
    # ------------------------------------------------------------------ #
    def schedule_at(self, time: float, callback: Callable[[], None]):
        """Schedule an event source's ``callback`` at absolute ``time``.

        The fluid state is integrated to ``time`` (finished flows retired)
        before the callback runs.
        """
        def fire() -> None:
            self._integrate()
            callback()
        return self.queue.schedule_at(time, fire)

    def changed(self) -> None:
        """Note that capacities, routes or the active mask changed.

        Cancels the pending completion edge; the active flows re-fill once
        the events at the current instant have fired.
        """
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        self._dirty = True

    def inject(self, flows: Sequence[FluidFlow], name: str,
               on_done: Callable[[float], None]) -> int:
        """Append a flow set to the arena; returns its set id.

        ``on_done(t)`` is called once every flow of the set has finished,
        with ``t`` the set's last completion instant (start delays
        included).
        """
        start = len(self.remaining)
        set_id = self.arena.inject(flows, name)
        program = self.arena.program
        self.remaining = np.concatenate([self.remaining, program.sizes[start:]])
        self.delays = np.concatenate([self.delays,
                                      program.start_delays[start:]])
        self.active = np.concatenate([self.active,
                                      np.ones(len(flows), dtype=bool)])
        self.completion = np.concatenate([self.completion,
                                          np.zeros(len(flows))])
        self._sets[set_id] = [len(flows), self.queue.now, on_done]
        self.changed()
        self._enter(start)
        return set_id

    # ------------------------------------------------------------------ #
    # Stepping
    # ------------------------------------------------------------------ #
    def _enter(self, start: int) -> None:
        """Complete the flows from row ``start`` on that carry no bytes."""
        empty = self.remaining <= SIM_EPS
        empty[:start] = False
        if empty.any():
            self._retire(empty)

    def _integrate(self, edge: Optional[np.ndarray] = None) -> None:
        """Drain the rates up to now and retire finished flows."""
        now = self.queue.now
        dt = now - self.last
        self.last = now
        active = self.active
        remaining = self.remaining
        if dt > 0 and active.any():
            remaining[active] -= self.rates[active] * dt
        done = active & (remaining <= SIM_BYTES_EPS)
        if edge is not None:
            done |= edge
        if done.any():
            self._retire(done)

    def _retire(self, done: np.ndarray) -> None:
        """Finish the ``done`` flows now and report drained flow sets."""
        self.remaining[done] = 0.0
        self.completion[done] = self.queue.now + self.delays[done]
        self.active[done] = False
        self.changed()
        if self.arena is None:
            return
        drained = []
        if self._sets:
            set_ids = self.arena.program.set_ids[done].tolist()
            for set_id, t in zip(set_ids, self.completion[done].tolist()):
                entry = self._sets[set_id]
                entry[0] -= 1
                entry[1] = max(entry[1], t)
                if entry[0] == 0:
                    drained.append(self._sets.pop(set_id))
        keep = self.arena.compact(self.active)
        if keep is not None:
            self.remaining = self.remaining[keep]
            self.delays = self.delays[keep]
            self.active = self.active[keep]
            self.completion = self.completion[keep]
        for _, finish, on_done in drained:
            on_done(finish)

    def _on_edge(self) -> None:
        self._pending = None
        self._dirty = True
        self._integrate(self._edge)

    def advance(self, until: Optional[float] = None):
        """Fire events until a fill is due and return its request.

        The request is ``(program, active, workspace)``: the caller fills
        the active flows and hands the result to :meth:`accept` before
        advancing again.  Returns None once the queue drains, or with
        ``until`` once every event strictly before it has fired; the fluid
        state is then integrated to ``until``, and an event at exactly
        ``until`` stays queued, so a source scheduled there later still
        fires before any completion edge colliding with it.  The events
        this call fired are added to the ``sim.events`` counter.
        """
        queue = self.queue
        processed = queue.processed
        max_events = constants.SIM_MAX_EVENTS
        stop = float("inf") if until is None else float(until)
        if stop < queue.now:
            raise ValueError("cannot run a fluid simulation backwards")
        request = None
        while True:
            nxt = queue.peek()
            if self._dirty and nxt > queue.now:
                self._dirty = False
                if self.active.any():
                    request = (self.program, self.active, self.workspace)
                    break
            if nxt >= stop:
                break
            if queue.processed >= max_events:
                raise RuntimeError(
                    f"fluid simulation did not converge: event budget "
                    f"(max_events={max_events}) exhausted")
            queue.step()
        if request is None and until is not None:
            queue.now = stop
            self._integrate()
        obs.add({"sim.events": queue.processed - processed})
        return request

    def accept(self, rates: np.ndarray, rounds: int) -> None:
        """Take the rates of the requested fill; schedule the next completion edge.

        ``rates`` may alias a workspace: the run reads them only until its
        next fill.  Active flows left without rate raise the stall error.
        """
        self.rates = rates
        self.fill_rounds += rounds
        active = self.active
        eligible = active & (rates > SIM_EPS)
        if not eligible.any():
            raise RuntimeError(
                "fluid simulation stalled: active flows have zero rate "
                "(a saturated or downed resource leaves them no bandwidth)")
        remaining = self.remaining
        dt = float(np.min(remaining[eligible] / rates[eligible]))
        self._edge = eligible & (
            remaining <= rates * (dt * (1.0 + _EDGE_SLACK)) + SIM_BYTES_EPS)
        self._pending = self.queue.schedule(dt, self._on_edge)

    def _fill(self, program: FlowProgram, active: np.ndarray,
              workspace: FillWorkspace) -> Tuple[np.ndarray, int]:
        """The one-run driver's fill, memoized by mask on a static program."""
        if self.arena is not None:
            return fill_rates(program, active, workspace)
        # A static program's fills depend on the mask alone: reuse any
        # earlier run's.  A hit leaves the workspace's saved rounds as they
        # were; the resume rule checks its own subset condition.
        key = active.tobytes()
        hit = program.fills.get(key)
        if hit is None:
            rates, rounds = fill_rates(program, active, workspace)
            program.fills[key] = (rates.copy(), rounds)
            return rates, rounds
        obs.add({"sim.fill_rounds": hit[1], "sim.fill_hits": 1})
        return hit

    def run(self, until: Optional[float] = None) -> None:
        """Fire events until the queue drains, or up to ``until``.

        The one-run driver: every request :meth:`advance` returns is filled
        here (see :meth:`advance` for ``until``).
        """
        while (request := self.advance(until)) is not None:
            self.accept(*self._fill(*request))

    def clone(self) -> "FluidRun":
        """An independent copy of the run at its current instant.

        Per-flow state and the arena are copied; the clone's queue starts
        empty at ``now`` with the event count carried over, and it re-fills
        before time advances.  Event sources and flow-set callbacks are not
        copied: the caller schedules its own on the clone.
        """
        new = copy.copy(self)
        if self.arena is None:
            new._static = (self._static[0], FillWorkspace(self._static[0]))
        else:
            new.arena = self.arena.clone()
        new.remaining = self.remaining.copy()
        new.active = self.active.copy()
        new.completion = self.completion.copy()
        new.queue = EventQueue()
        new.queue.now = self.queue.now
        new.queue.processed = self.queue.processed
        new._edge = None
        new._pending = None
        new._dirty = True
        new._sets = {}
        return new


def run_lockstep(runs: Sequence["FluidRun"]) -> None:
    """Run independent fluid runs to the end, filling them in lockstep.

    Every live run advances to its next fill request, one stacked fill
    (:func:`fill_stacked`) serves all the requests, and every run accepts
    its block's rates; a run whose queue drains drops out.  Each run
    fires the same events and gets the same rates as under
    :meth:`FluidRun.run`, without its static-program memo.
    """
    workspace = StackedWorkspace()
    requests = [run.advance() for run in runs]
    # A run with nothing to fill from the start takes no block: a None
    # block keeps the slot of an earlier fill's block.
    runs = [run for run, request in zip(runs, requests) if request is not None]
    requests = [request for request in requests if request is not None]
    while any(request is not None for request in requests):
        filled = fill_stacked([None if request is None else request[:2]
                               for request in requests], workspace)
        for run, result in zip(runs, filled):
            if result is not None:
                run.accept(*result)
        requests = [None if request is None else run.advance()
                    for run, request in zip(runs, requests)]


@dataclass
class EngineResult:
    """Outcome of executing one :class:`FlowProgram`."""

    completion_time: float
    flow_completion_times: List[float]
    set_completion_times: Dict[str, float]
    fill_rounds: int
    events_processed: int
    max_link_bytes: float
    total_bytes: float


def execute(program: FlowProgram,
            sizes: Optional[np.ndarray] = None) -> EngineResult:
    """Run a compiled program to completion on a :class:`FluidRun`.

    ``sizes`` replaces the program's per-flow byte counts for this run (one
    point of a buffer sweep); the result's link load and total bytes are
    then those of ``sizes``.
    """
    run = FluidRun(program, sizes=sizes)
    run.run()
    completion = run.completion
    set_times: Dict[str, float] = {}
    for idx, name in enumerate(program.set_names):
        members = program.set_ids == idx
        if members.any():
            set_times[name] = float(completion[members].max())
    max_link_bytes, total_bytes = (
        (program.max_link_bytes, program.total_bytes) if sizes is None
        else program.loads(np.asarray(sizes, dtype=float)))
    return EngineResult(
        completion_time=float(completion.max()) if len(completion) else 0.0,
        flow_completion_times=completion.tolist(),
        set_completion_times=set_times,
        fill_rounds=run.fill_rounds,
        events_processed=run.queue.processed,
        max_link_bytes=max_link_bytes,
        total_bytes=total_bytes,
    )


def simulate_program(topology: Topology, flows: Sequence[FluidFlow],
                     fabric: Optional[FabricModel] = None,
                     set_ids: Optional[Sequence[int]] = None,
                     set_names: Optional[Sequence[str]] = None,
                     include_latency: bool = True,
                     include_ejection: bool = False) -> EngineResult:
    """Compile and execute in one call (the common front-end path)."""
    program = compile_flows(topology, flows, fabric, set_ids=set_ids,
                            set_names=set_names, include_latency=include_latency,
                            include_ejection=include_ejection)
    return execute(program)
