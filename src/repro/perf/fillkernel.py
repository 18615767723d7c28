"""The progressive-filling kernel of the fluid simulator.

The max-min saturation fill is the simulator's hottest loop: it re-runs on
every completion event and every cluster injection, and the sweeps multiply
each microsecond by the grid size.  :func:`fill_rates_numpy` is the one
kernel behind :func:`repro.simulator.engine.fill_rates`: numpy saturation
rounds that retire capacity with one weighted ``bincount`` and then drop the
frozen flows' incidence entries, so each round touches only live entries.
Its scratch and the start state of each round of the last fill live in a
reusable :class:`FillWorkspace`: a fill over the last fill's flows minus
some departed ones resumes from the first round a departed flow froze in.
The simulator engine calls it through the :data:`run_fill` binding.
``tests/test_kernels.py`` checks its fills against the scalar
:mod:`repro.simulator.reference` oracle to 1e-9 and against a max-min
certificate.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..constants import SIM_EPS

__all__ = ["FillWorkspace", "fill_rates_numpy", "run_fill"]

#: ``round_of`` of a flow that froze in no round (inactive or entry-less).
_NEVER = np.iinfo(np.int64).max


class FillWorkspace:
    """The rate vector, scratch and saved rounds of one flow program's fills.

    Built once per :class:`~repro.simulator.engine.FlowProgram` (each
    :class:`~repro.simulator.engine.FluidRun` owns one; the
    :class:`~repro.perf.delta.DeltaProgram` arena rebuilds it whenever its
    incidence changes) and reused across every fill.  The rate vector ``rates``
    is part of the workspace and is *reused across fills* — callers that
    keep rates beyond the next fill must copy them.  ``freeze`` is
    all-False between fills.

    The workspace also remembers the last fill, so the next one can resume
    instead of restarting: ``saved`` holds the state at the start of each
    of its rounds, ``(residual, counts, ent_res, ent_flow)``, ``round_of``
    the round each flow froze in (:data:`_NEVER` for flows that froze in
    none) and ``prev`` a copy of its active mask (None: the next fill
    starts fresh).  Whoever edits the program's
    capacities or incidence in place must call :meth:`forget`.
    """

    def __init__(self, program) -> None:
        """Allocate the per-flow and per-resource scratch for ``program``."""
        num_flows = int(program.num_flows)
        self.rates = np.zeros(num_flows)
        self.freeze = np.zeros(num_flows, dtype=np.bool_)
        self.share = np.empty(len(program.res_cap))
        self.round_of = np.full(num_flows, _NEVER, dtype=np.int64)
        self.saved: List[tuple] = []
        self.prev: Optional[np.ndarray] = None

    def forget(self) -> None:
        """Drop the saved rounds: the next fill starts fresh."""
        self.saved = []
        self.prev = None


def fill_rates_numpy(program, active: np.ndarray,
                     workspace: Optional[FillWorkspace] = None
                     ) -> Tuple[np.ndarray, int]:
    """Max-min fair rates as one compacting numpy saturation loop.

    Each round takes the smallest fair share, freezes every flow touching a
    resource tied for it, retires their capacity with a weighted
    ``bincount`` and drops their entries; the loop runs while live entries
    remain.  An active flow with no entries gets rate ``inf``.  Returns the
    rates and the round count.

    When ``active`` is a subset of the workspace's last mask, the fill
    resumes from the first round in which a departed flow froze: the rounds
    before it are the same floats without the departed flows (none of them
    sat on a resource in those rounds' tie windows, and dropping them only
    raises the shares of their resources), so only their entries and
    counts are taken out of the saved state.  Any other mask starts fresh.
    Without a ``workspace`` the call uses a throwaway one; with one, the
    returned rate vector is the workspace's and is reused across calls.
    """
    ws = FillWorkspace(program) if workspace is None else workspace
    num_res = len(program.res_cap)
    rates, share, freeze, round_of = ws.rates, ws.share, ws.freeze, ws.round_of
    prev, saved = ws.prev, ws.saved
    if (prev is not None and len(prev) == len(active)
            and not (active & ~prev).any()):
        gone = prev & ~active
        rates[gone] = 0.0
        first = int(round_of[gone].min(initial=_NEVER))
        np.copyto(prev, active)
        if first >= len(saved):
            return rates, len(saved)
        residual, counts, ent_res, ent_flow = saved[first]
        del saved[first:]
        # Every inactive flow, not only this call's departures: a saved
        # state older than the last resume still holds earlier ones.
        keep = active[ent_flow]
        counts = counts - np.bincount(ent_res, weights=~keep,
                                      minlength=num_res)
        ent_res = ent_res[keep]
        ent_flow = ent_flow[keep]
    else:
        rates.fill(0.0)
        round_of.fill(_NEVER)
        saved = ws.saved = []
        ws.prev = active.copy()
        residual = program.res_cap.astype(float, copy=True)
        sel = active[program.inc_flow]
        ent_res = program.inc_res[sel]
        ent_flow = program.inc_flow[sel]
        bare = active.copy()
        bare[ent_flow] = False
        rates[bare] = np.inf
        # float64 (exact for integers) so the weighted bincounts subtract
        # exactly.
        counts = np.bincount(ent_res, minlength=num_res).astype(float)
    while ent_res.size:
        # Each round builds fresh residual/counts arrays, so the saved
        # states are references, not copies.
        saved.append((residual, counts, ent_res, ent_flow))
        used = counts > 0
        share.fill(np.inf)
        np.divide(residual, counts, out=share, where=used)
        best = float(share.min())
        # Freeze every resource tied for the minimum share.  Max-min fair
        # allocations are unique, so an exactly-tied resource would yield the
        # same share next round anyway; grouping within SIM_EPS only saves
        # the round.
        bottleneck = used & (share <= best + SIM_EPS + 1e-12 * abs(best))
        hit = ent_flow[bottleneck[ent_res]]
        freeze[hit] = True
        rates[hit] = best
        round_of[hit] = len(saved) - 1
        ent_frozen = freeze[ent_flow]
        retired = np.bincount(ent_res, weights=ent_frozen, minlength=num_res)
        # The clamp is not dead code: rounding drives the residual negative
        # in 6,937 of 239,151 rounds of one seed-0 pass of the `cluster`
        # benchmark workload, and in 5,498 of 380,831 of `robustness`.
        residual = np.maximum(residual - best * retired, 0.0)
        counts = counts - retired
        freeze[hit] = False
        keep = ~ent_frozen
        ent_res = ent_res[keep]
        ent_flow = ent_flow[keep]
    return rates, len(saved)


#: The binding the simulator engine calls once per fill, returning
#: ``(rates, rounds)``; per-fill timing and round counts attach to it.
run_fill = fill_rates_numpy
