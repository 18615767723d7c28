"""The progressive-filling kernel of the fluid simulator.

The max-min saturation fill is the simulator's hottest loop: it re-runs on
every completion event and every cluster injection, and the sweeps multiply
each microsecond by the grid size.  :func:`fill_rates_numpy` is the one
kernel behind :func:`repro.simulator.engine.fill_rates`: vectorized numpy
saturation rounds, with the residual update done by a single ``bincount``
and the per-fill ``share``/``freeze`` scratch hoisted into a reusable
:class:`FillWorkspace`.  The simulator engine calls it through the
:data:`run_fill` binding.  ``tests/test_kernels.py`` checks its fills
against the scalar :mod:`repro.simulator.reference` oracle to 1e-9 and
against a max-min certificate.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..constants import SIM_EPS

__all__ = ["FillWorkspace", "fill_rates_numpy", "run_fill"]


class FillWorkspace:
    """Preallocated scratch arrays for filling one flow program.

    Built once per :class:`~repro.simulator.engine.FlowProgram` (each
    :class:`~repro.simulator.engine.FluidRun` owns one; the
    :class:`~repro.perf.delta.DeltaProgram` arena rebuilds it when it
    reallocates) and reused across every fill, so the per-event cost is the
    saturation rounds themselves.  The rate vector ``rates`` is part of the
    workspace and is *reused across fills* — callers that keep rates beyond
    the next fill must copy them.
    """

    def __init__(self, program) -> None:
        """Allocate the per-flow and per-resource scratch for ``program``."""
        num_res = len(program.res_cap)
        num_flows = int(program.num_flows)
        self.rates = np.zeros(num_flows)
        self.freeze = np.empty(num_flows, dtype=np.bool_)
        self.residual = np.empty(num_res)
        self.share = np.empty(num_res)


def fill_rates_numpy(program, active: np.ndarray,
                     workspace: Optional[FillWorkspace] = None
                     ) -> Tuple[np.ndarray, int]:
    """Max-min fair rates as vectorized numpy saturation rounds.

    Each round: count unfrozen users per resource (one ``bincount``), take
    the smallest fair share, freeze every flow touching a bottleneck
    resource at that share, and retire their capacity with a second
    ``bincount`` (one vectorized multiply-subtract instead of the scattered
    ``np.subtract.at``).  With a ``workspace`` the ``share``/``freeze``
    scratch and the returned rate vector are reused across calls.
    """
    num_res = len(program.res_cap)
    num_flows = program.num_flows
    if workspace is None:
        rates = np.zeros(num_flows)
        share = np.empty(num_res)
        freeze = np.empty(num_flows, dtype=np.bool_)
        residual = program.res_cap.astype(float, copy=True)
    else:
        rates = workspace.rates
        rates.fill(0.0)
        share = workspace.share
        freeze = workspace.freeze
        residual = workspace.residual
        np.copyto(residual, program.res_cap)
    unfrozen = active.copy()
    # Compress the incidence to the surviving flows once per fill; rounds
    # then touch only these entries.
    sel = unfrozen[program.inc_flow]
    ent_res = program.inc_res[sel]
    ent_flow = program.inc_flow[sel]
    ent_alive = np.ones(ent_res.shape, dtype=bool)
    counts = np.bincount(ent_res, minlength=num_res)
    rounds = 0
    n_unfrozen = int(unfrozen.sum())
    while n_unfrozen:
        rounds += 1
        used = counts > 0
        if not used.any():
            # No constraining resource (cannot happen for well-formed paths,
            # every flow crosses at least one link): unbounded rate.
            rates[unfrozen] = np.inf
            break
        share.fill(np.inf)
        np.divide(residual, counts, out=share, where=used)
        best = float(share.min())
        # Freeze every resource tied for the minimum share.  Max-min fair
        # allocations are unique, so an exactly-tied resource would yield the
        # same share next round anyway; grouping within SIM_EPS only saves
        # the round.
        bottleneck = used & (share <= best + SIM_EPS + 1e-12 * abs(best))
        freeze.fill(False)
        freeze[ent_flow[ent_alive & bottleneck[ent_res]]] = True
        rates[freeze] = best
        ent_frozen = ent_alive & freeze[ent_flow]
        retired = np.bincount(ent_res[ent_frozen], minlength=num_res)
        residual -= best * retired
        np.maximum(residual, 0.0, out=residual)
        counts -= retired
        ent_alive &= ~ent_frozen
        unfrozen &= ~freeze
        n_unfrozen -= int(np.count_nonzero(freeze))
    return rates, rounds


#: The binding the simulator engine calls once per fill, returning
#: ``(rates, rounds)``; per-fill timing and round counts attach to it.
run_fill = fill_rates_numpy
