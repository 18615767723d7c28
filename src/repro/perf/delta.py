"""The one mutable flow arena behind every :class:`~repro.simulator.engine.FluidRun`.

A run whose flow program changes between events keeps it in a
:class:`DeltaProgram`.  Cluster co-simulation appends a flow set when a
job's comm phase starts and drops it once drained; the fault runner keeps
one flow set for the whole run and, at every fabric epoch, re-posts link
capacities and moves rerouted flows onto their repair paths.  Both edit one
flat list of ``(ent_res, ent_flow)`` incidence entries in no particular
order, and every edit either filters that list or appends to it:

* :meth:`DeltaProgram.inject` compiles a flow set with the engine's
  ``compile_flows`` (degraded fabrics, injection and forwarding caps behave
  identically) and appends its entries;
* finished rows stay in place — the run's fill mask pins their rate to
  zero — until :meth:`DeltaProgram.compact` sees dead rows outnumber live
  ones and filters them all out at once, turning the per-completion
  O(nnz) rebuild into an amortized one.  An arena built over a fixed flow
  set (the fault runner's full schedule) never compacts: the runner
  addresses its flows by index;
* :meth:`DeltaProgram.apply` re-posts capacities for an epoch fabric,
  drops the entries of rerouted flows and appends their new routes'
  entries;
* :meth:`DeltaProgram.clone` copies the state edited in place for
  concurrent adversarial evaluations.

Rates over the arena are bit-identical to a fresh ``compile_flows`` of the
live flows: the fill reads only the incidence, capacities and the active
mask, never sizes, and sums integer counts over entries, so their order
never changes a float.  The per-epoch fuzz in ``tests/test_faults.py``
checks the entries flow by flow.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .fillkernel import FillWorkspace

__all__ = ["DeltaProgram"]

Path = Tuple[int, ...]


class DeltaProgram:
    """A mutable compiled flow program: flat incidence + warm workspace.

    ``paths``/``sizes`` are the fixed flow set, compiled against ``fabric``
    with its down set stripped (a planned path may cross a base down link
    only if the caller reroutes it before the first fill); more sets are
    appended with :meth:`inject`.  ``program``/``workspace`` are views over
    the arena: capacity posts show through them, and every incidence edit
    replaces them.
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
        self.res_cap = np.empty(len(template.res_cap))
        self._cap_key: Optional[Tuple[object, object]] = None
        self.workspace: Optional[FillWorkspace] = None
        self.set_capacities(self.fabric)

        self._fixed = bool(len(paths))
        self.ent_res = template.inc_res
        self.ent_flow = template.inc_flow
        self._sizes = template.sizes
        self._delays = template.start_delays
        self._set_ids = template.set_ids
        self._set_names: List[str] = ["schedule"] if self._fixed else []
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
        self.ent_res = np.concatenate([self.ent_res, compiled.inc_res])
        self.ent_flow = np.concatenate([self.ent_flow,
                                        compiled.inc_flow + self.num_flows])
        self._sizes = np.concatenate([self._sizes, compiled.sizes])
        self._delays = np.concatenate([self._delays, compiled.start_delays])
        self._set_ids = np.concatenate([
            self._set_ids,
            np.full(compiled.num_flows, set_id, dtype=np.int64)])
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
        self._sizes = self._sizes[keep]
        self._delays = self._delays[keep]
        self._set_ids = self._set_ids[keep]
        self._init_views()
        return keep

    # ------------------------------------------------------------------ #
    # Fabric epochs: capacities and routes
    # ------------------------------------------------------------------ #
    def set_capacities(self, epoch_fabric) -> None:
        """Post the resource capacities of one epoch fabric, in place.

        Down links get capacity zero (their flows must have been rerouted
        or masked; a zero-rate stall is the canary for a missed reroute).
        A post whose ``(down_links, link_scale)`` state equals the last one
        posted is skipped; any other state is recomputed, even one posted
        earlier, and makes the workspace forget its saved fill rounds.
        """
        from ..simulator.engine import compile_flows

        key = (epoch_fabric.down_links, epoch_fabric.link_scale)
        if key != self._cap_key:
            self.res_cap[:] = compile_flows(self.topology, [],
                                            epoch_fabric).res_cap
            self._cap_key = key
            if self.workspace is not None:
                self.workspace.forget()

    def apply(self, epoch_fabric, moved: Dict[int, Path]) -> None:
        """One epoch's delta: capacities, then the routes of ``moved`` flows.

        ``moved`` maps each flow whose route changed to its new route; their
        old entries are dropped and the new routes' entries appended.
        """
        self.set_capacities(epoch_fabric)
        if not moved:
            return
        flows = np.fromiter(moved, dtype=np.int64, count=len(moved))
        compiled = self._compile(list(moved.values()))
        dropped = np.zeros(self.num_flows, dtype=bool)
        dropped[flows] = True
        keep = ~dropped[self.ent_flow]
        self.ent_res = np.concatenate([self.ent_res[keep], compiled.inc_res])
        self.ent_flow = np.concatenate([self.ent_flow[keep],
                                        flows[compiled.inc_flow]])
        self._init_views()

    # ------------------------------------------------------------------ #
    # Cloning (one copy per faulted run of a shared context)
    # ------------------------------------------------------------------ #
    def clone(self) -> "DeltaProgram":
        """An independent mutable copy sharing the incidence arrays.

        Incidence edits replace ``ent_res``/``ent_flow`` rather than write
        into them, so those and the per-flow arrays are shared; ``res_cap``
        (posted in place), the set names and the workspace are copied, so
        clones evolve independently of the template and of each other.
        """
        new = copy.copy(self)
        new.res_cap = self.res_cap.copy()
        new._set_names = list(self._set_names)
        new._init_views()
        return new
