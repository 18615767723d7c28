"""The one mutable flow arena behind every :class:`~repro.simulator.engine.FluidRun`.

A run whose flow program changes between events keeps it in a
:class:`DeltaProgram`.  Cluster co-simulation appends a flow set when a
job's comm phase starts and drops it once drained; the fault runner keeps
one flow set for the whole run and, at every fabric epoch, re-posts link
capacities and moves rerouted flows onto their repair paths.  Both work on
one slotted incidence arena:

* every flow owns a span of incidence slots, flow-major, and the
  program's incidence arrays alias the arena, so slot writes show through
  to the next fill with no re-sorting.  Unused slots point at an appended
  **slack resource** whose
  capacity (:data:`SLACK_CAP`) can never be a bottleneck, so they are
  invisible to the max-min fill;
* :meth:`DeltaProgram.inject` compiles a flow set with the engine's
  ``compile_flows`` (degraded fabrics, injection and forwarding caps behave
  identically) and appends it with no spare slots;
* finished rows stay in place — the run's fill mask pins their rate to
  zero — until :meth:`DeltaProgram.compact` sees dead rows outnumber live
  ones and drops them all at once, turning the per-completion O(nnz)
  rebuild into an amortized one (``compactions`` counts the sweeps);
* :meth:`DeltaProgram.apply` re-posts capacities for an epoch fabric and
  swaps the slots of rerouted flows in place.  The flow set
  given to the constructor (the fault runner's full schedule) gets
  :data:`_PAD_SLOTS` spare slots per flow so common BFS repairs fit; a
  longer route regrows the arena once with doubled spans.  That arena
  never compacts: the fault runner addresses its flows by index;
* :meth:`DeltaProgram.clone` copies the mutable state for concurrent
  adversarial evaluations.

Rates over the arena are bit-identical to a fresh ``compile_flows`` of the
live flows — the fill reads only the incidence, capacities and the
active mask, never sizes — which the per-epoch fuzz in
``tests/test_faults.py`` checks slot by slot.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .fillkernel import FillWorkspace

__all__ = ["DeltaProgram", "SLACK_CAP"]

Path = Tuple[int, ...]

#: Capacity of the slack resource backing unused incidence slots.  Large
#: enough that its fair share can never be the round minimum, finite so the
#: fill never does ``inf`` arithmetic.
SLACK_CAP = 1e30

#: Free incidence slots per flow of the constructor's flow set, so the
#: common BFS repair (same length or slightly longer than the planned path)
#: fits without a regrow.
_PAD_SLOTS = 2


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Span start offsets: exclusive prefix sums with the total appended."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


class DeltaProgram:
    """A mutable compiled flow program: slotted incidence + warm workspace.

    ``paths``/``sizes`` are the fixed flow set, compiled against ``fabric``
    with its down set stripped (a planned path may cross a base down link
    only if the caller reroutes it before the first fill); more sets are
    appended with :meth:`inject`.  ``program``/``workspace`` are live views
    over the arena: in-place edits show through them, and a mutation that
    reallocates the arena replaces them.
    """

    def __init__(self, topology, fabric=None, paths: Sequence[Path] = (),
                 sizes: Sequence[float] = ()) -> None:
        from ..simulator.fabric import FabricModel

        self.topology = topology
        self.fabric = fabric or FabricModel()
        # Routes are lowered against the fabric without its down set; the
        # capacities, down links included, are posted by set_capacities.
        self._layout_fabric = replace(self.fabric, down_links=())
        template = self._compile(paths, sizes)
        self.slack = len(template.res_cap)
        self.res_cap = np.full(self.slack + 1, SLACK_CAP)
        self._cap_key: Optional[Tuple[object, object]] = None
        self.workspace: Optional[FillWorkspace] = None
        self.set_capacities(self.fabric)

        self._fixed = bool(len(paths))
        self.ent_res = np.zeros(0, dtype=np.int64)
        self.ent_flow = np.zeros(0, dtype=np.int64)
        self._caps = np.zeros(0, dtype=np.int64)
        self._lens = np.zeros(0, dtype=np.int64)
        self._encoded: List[Path] = []
        self._sizes = np.zeros(0)
        self._delays = np.zeros(0)
        self._set_ids = np.zeros(0, dtype=np.int64)
        self._set_names: List[str] = ["schedule"] if self._fixed else []
        self.compactions = 0
        self._append(template, paths, 0, lambda lens: lens + _PAD_SLOTS)
        self._init_views()

    @property
    def num_flows(self) -> int:
        """Rows in the arena, dead rows awaiting compaction included."""
        return len(self._sizes)

    # ------------------------------------------------------------------ #
    # Layout
    # ------------------------------------------------------------------ #
    def _compile(self, paths: Sequence[Path], sizes: Sequence[float] = ()):
        """``compile_flows`` of ``paths`` against the layout fabric."""
        from ..simulator.engine import FluidFlow, compile_flows

        sizes = list(sizes) or [0.0] * len(paths)
        return compile_flows(
            self.topology,
            [FluidFlow(path=tuple(p), size_bytes=max(float(b), 0.0))
             for p, b in zip(paths, sizes)],
            self._layout_fabric, include_latency=False)

    def _slots(self, flow: np.ndarray, res: np.ndarray, num_flows: int,
               spans) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Lay flow-major entries out in spans of ``spans(lens)`` slots.

        ``flow``/``res`` list each flow's entries contiguously, in flow
        order (as ``compile_flows`` emits them).  Returns ``(ent_res, lens,
        caps)``; slots past a flow's entries point at the slack resource.
        """
        lens = np.bincount(flow, minlength=num_flows).astype(np.int64)
        caps = spans(lens)
        starts, src = _offsets(caps), _offsets(lens)
        ent_res = np.full(int(starts[-1]), self.slack, dtype=np.int64)
        ent_res[starts[flow] + np.arange(len(flow)) - src[flow]] = res
        return ent_res, lens, caps

    def _append(self, compiled, paths: Sequence[Path], set_id: int,
                spans) -> None:
        """Append a compiled flow set as set ``set_id``."""
        ent_res, lens, caps = self._slots(compiled.inc_flow, compiled.inc_res,
                                          compiled.num_flows, spans)
        first, n = self.num_flows, len(lens)
        self.ent_res = np.concatenate([self.ent_res, ent_res])
        self.ent_flow = np.concatenate([
            self.ent_flow,
            np.repeat(np.arange(first, first + n, dtype=np.int64), caps)])
        self._caps = np.concatenate([self._caps, caps])
        self._lens = np.concatenate([self._lens, lens])
        self._starts = _offsets(self._caps)
        self._encoded.extend(tuple(p) for p in paths)
        self._sizes = np.concatenate([self._sizes, compiled.sizes])
        self._delays = np.concatenate([self._delays, compiled.start_delays])
        self._set_ids = np.concatenate([self._set_ids,
                                        np.full(n, set_id, dtype=np.int64)])

    def _init_views(self) -> None:
        """(Re)build the FlowProgram/FillWorkspace views over the arena."""
        from ..simulator.engine import FlowProgram

        self.program = FlowProgram(
            num_flows=self.num_flows,
            sizes=self._sizes,
            start_delays=self._delays,
            set_ids=self._set_ids,
            set_names=tuple(self._set_names),
            res_cap=self.res_cap,
            inc_res=self.ent_res,
            inc_flow=self.ent_flow,
        )
        self.workspace = FillWorkspace(self.program)

    # ------------------------------------------------------------------ #
    # Flow sets: inject and compact
    # ------------------------------------------------------------------ #
    def inject(self, flows, name: str) -> int:
        """Append a flow set compiled against the arena's fabric; returns its set id."""
        from ..simulator.engine import compile_flows

        compiled = compile_flows(self.topology, flows, self.fabric)
        set_id = len(self._set_names)
        self._set_names.append(name)
        self._append(compiled, [f.path for f in flows], set_id,
                     lambda lens: lens)
        self._init_views()
        return set_id

    def compact(self, live: np.ndarray) -> Optional[np.ndarray]:
        """Drop the rows outside ``live`` once they outnumber the live ones.

        Until then dead rows stay in place, masked out of the fill.  The
        survivors are renumbered in order; returns the kept-row mask when
        the arena compacted, else None.  An arena built over a fixed flow
        set never compacts.
        """
        n_live = int(np.count_nonzero(live))
        if (self._fixed or self.num_flows < 16
                or self.num_flows - n_live <= n_live):
            return None
        keep = live
        new_index = np.cumsum(keep) - 1
        entry_keep = keep[self.ent_flow]
        self.ent_res = self.ent_res[entry_keep]
        self.ent_flow = new_index[self.ent_flow[entry_keep]]
        self._caps = self._caps[keep]
        self._lens = self._lens[keep]
        self._starts = _offsets(self._caps)
        self._encoded = [p for p, k in zip(self._encoded, keep) if k]
        self._sizes = self._sizes[keep]
        self._delays = self._delays[keep]
        self._set_ids = self._set_ids[keep]
        self.compactions += 1
        self._init_views()
        return keep

    # ------------------------------------------------------------------ #
    # Fabric epochs: capacities and routes in place
    # ------------------------------------------------------------------ #
    def set_capacities(self, epoch_fabric) -> None:
        """Post the resource capacities of one epoch fabric, in place.

        Down links get capacity zero (their flows must have been rerouted
        or masked; a zero-rate stall is the canary for a missed reroute).
        Idempotent per ``(down_links, link_scale)`` state, so flapping
        timelines that revisit a state skip the recompute; a new state
        makes the workspace forget its saved fill rounds.
        """
        from ..simulator.engine import compile_flows

        key = (epoch_fabric.down_links, epoch_fabric.link_scale)
        if key != self._cap_key:
            self.res_cap[:self.slack] = compile_flows(
                self.topology, [], epoch_fabric).res_cap
            self._cap_key = key
            if self.workspace is not None:
                self.workspace.forget()

    def apply(self, epoch_fabric, paths: Sequence[Optional[Path]]) -> int:
        """One epoch's delta: capacities, then the slots of rerouted flows.

        Only flows whose route differs from the encoded one are touched;
        ``None`` (stranded) keeps the previous slots — the caller masks the
        flow out of the fill.  Returns the number of arena regrows (0 for a
        pure in-place epoch, 1 when a route overflowed its span and the
        whole arena was re-laid with doubled spans for the overflowing
        flows).  Moved routes make the workspace forget its saved fill
        rounds.
        """
        self.set_capacities(epoch_fabric)
        moved = [i for i, path in enumerate(paths)
                 if path is not None and path != self._encoded[i]]
        if not moved:
            return 0
        self.workspace.forget()
        for i in moved:
            self._encoded[i] = tuple(paths[i])
        compiled = self._compile([paths[i] for i in moved])
        lens = np.bincount(compiled.inc_flow, minlength=len(moved))
        if (lens > self._caps[moved]).any():
            self._regrow(np.asarray(moved)[compiled.inc_flow], compiled.inc_res)
            return 1
        src = _offsets(lens)
        for j, i in enumerate(moved):
            s = int(self._starts[i])
            self.ent_res[s:s + int(self._caps[i])] = self.slack
            self.ent_res[s:s + int(lens[j])] = compiled.inc_res[src[j]:src[j + 1]]
        self._lens[moved] = lens
        return 0

    def _regrow(self, flow: np.ndarray, res: np.ndarray) -> None:
        """Re-lay the arena with new entries ``res`` for the flows in ``flow``.

        Every other flow keeps its entries; every overflowing span doubles.
        """
        slot = np.arange(len(self.ent_res)) - self._starts[self.ent_flow]
        kept = ((slot < self._lens[self.ent_flow])
                & ~np.isin(self.ent_flow, flow))
        flow = np.concatenate([self.ent_flow[kept], flow])
        order = np.argsort(flow, kind="stable")
        self.ent_res, self._lens, self._caps = self._slots(
            flow[order], np.concatenate([self.ent_res[kept], res])[order],
            self.num_flows,
            lambda lens: np.where(lens > self._caps, 2 * lens, self._caps))
        self._starts = _offsets(self._caps)
        self.ent_flow = np.repeat(
            np.arange(self.num_flows, dtype=np.int64), self._caps)
        self._init_views()

    # ------------------------------------------------------------------ #
    # Cloning (one copy per faulted run of a shared context)
    # ------------------------------------------------------------------ #
    def clone(self) -> "DeltaProgram":
        """An independent mutable copy sharing the immutable layout.

        Arrays that mutations only ever *replace* (``ent_flow``, spans,
        sizes) are shared; the ones edited in place (``ent_res``,
        ``res_cap``, slot lengths, routes) and the workspace are copied, so
        clones evolve independently of the template and of each other.
        """
        new = copy.copy(self)
        new.ent_res = self.ent_res.copy()
        new.res_cap = self.res_cap.copy()
        new._lens = self._lens.copy()
        new._encoded = list(self._encoded)
        new._set_names = list(self._set_names)
        new._init_views()
        return new
