"""The progressive-filling kernel of the fluid simulator.

The max-min saturation fill is the simulator's hottest loop: it re-runs on
every completion event and every cluster injection, and the sweeps multiply
each microsecond by the grid size.  :func:`fill_rates_numpy` is the one
kernel behind :func:`repro.simulator.engine.fill_rates`: numpy saturation
rounds that retire capacity with one weighted ``bincount`` and then drop the
frozen flows' incidence entries, so each round touches only live entries.
Its scratch and the start state of each round of the last fill live in a
reusable :class:`FillWorkspace`: a fill over the last fill's program and
flows minus some departed ones resumes from the first round a departed
flow froze in.
The simulator engine calls it through the :data:`run_fill` binding.
``tests/test_kernels.py`` checks its fills against the scalar
:mod:`repro.simulator.reference` oracle to 1e-9 and against a max-min
certificate.

:func:`fill_stacked_numpy` runs the same rounds over many independent
programs at once, as one block-diagonal program with a minimum per block,
so that a driver stepping many runs in lockstep pays the per-call cost of
the numpy rounds once per step instead of once per run.  Its fills equal
the separate ones bit for bit, resumed blocks included.

Both kernels decide alone when saved rounds are stale, by one rule: a
fill starts fresh when it runs over another program object than the last
fill, or when its mask gains a flow.  Flow programs never change after
they are built (the :class:`~repro.perf.delta.DeltaProgram` arena builds
a new one on every edit), so a program object's saved rounds stay valid
for as long as it lives.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..constants import SIM_EPS

__all__ = ["FillWorkspace", "StackedWorkspace", "fill_rates_numpy",
           "fill_stacked_numpy", "run_fill"]

#: ``round_of`` of a flow that froze in no round (inactive or entry-less).
_NEVER = np.iinfo(np.int64).max


class FillWorkspace:
    """The rate vector, scratch and saved rounds of one run's fills.

    Each :class:`~repro.simulator.engine.FluidRun` owns one and reuses it
    across every fill, over whichever program the fill runs: a fill over
    another program object than the last one re-sizes the scratch to it
    and starts fresh.  The rate vector ``rates`` is part of the workspace
    and is *reused across fills* — callers that keep rates beyond the next
    fill must copy them.  ``freeze`` is all-False between fills.

    The workspace also remembers the last fill, so the next one can resume
    instead of restarting: ``program`` is the program it ran over,
    ``saved`` holds the state at the start of each of its rounds,
    ``(residual, counts, ent_res, ent_flow)``, ``round_of`` the round each
    flow froze in (:data:`_NEVER` for flows that froze in none) and
    ``prev`` a copy of its active mask (None: the next fill starts fresh).
    """

    def __init__(self, program) -> None:
        """Allocate the per-flow and per-resource scratch for ``program``."""
        self._fit(program)

    def _fit(self, program) -> None:
        """Size the scratch for ``program``, with no saved fill."""
        num_flows = int(program.num_flows)
        self.program = program
        self.rates = np.zeros(num_flows)
        self.freeze = np.zeros(num_flows, dtype=np.bool_)
        self.share = np.empty(len(program.res_cap))
        self.round_of = np.full(num_flows, _NEVER, dtype=np.int64)
        self.saved: List[tuple] = []
        self.prev: Optional[np.ndarray] = None


def fill_rates_numpy(program, active: np.ndarray,
                     workspace: Optional[FillWorkspace] = None
                     ) -> Tuple[np.ndarray, int]:
    """Max-min fair rates as one compacting numpy saturation loop.

    Each round takes the smallest fair share, freezes every flow touching a
    resource tied for it, retires their capacity with a weighted
    ``bincount`` and drops their entries; the loop runs while live entries
    remain.  An active flow with no entries gets rate ``inf``.  Returns the
    rates and the round count.

    When ``program`` is the workspace's last program and ``active`` a
    subset of its last mask, the fill resumes from the first round in which
    a departed flow froze: the rounds before it are the same floats without
    the departed flows (none of them sat on a resource in those rounds' tie
    windows, and dropping them only raises the shares of their resources),
    so only their entries and counts are taken out of the saved state.  Any
    other program or mask starts fresh.  Without a ``workspace`` the call
    uses a throwaway one; with one, the returned rate vector is the
    workspace's and is reused across calls.
    """
    ws = FillWorkspace(program) if workspace is None else workspace
    if ws.program is not program:
        ws._fit(program)
    num_res = len(program.res_cap)
    rates, share, freeze, round_of = ws.rates, ws.share, ws.freeze, ws.round_of
    prev, saved = ws.prev, ws.saved
    if prev is not None and not (active & ~prev).any():
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


class StackedWorkspace:
    """The layout, scratch and saved rounds of one group's stacked fills.

    :func:`fill_stacked_numpy` fills K independent programs, the *blocks*,
    as one block-diagonal program: block ``b``'s resources and flows sit
    at offsets ``res_starts[b]`` and ``flow_starts[b]`` of the stacked
    arrays.  The workspace keeps the stacked incidence, one rate vector
    (each block's rates are a view into it, reused across fills) and, to
    resume, per block the program it last filled and its round count
    (``programs``, ``rounds``), per flow its last active mask and the round
    it froze in (``prev``, ``round_of``), and ``history``: row ``r`` holds
    every block's residual capacities at the start of its round ``r``.
    Entries and counts are not saved: a resumed block rebuilds them from
    ``round_of``.
    """

    def __init__(self) -> None:
        """An empty workspace: the first fill lays the blocks out."""
        self.programs: List[object] = []

    def _lay_out(self, programs: Sequence) -> None:
        """Size the stack for ``programs``; no block matches a program yet."""
        flow_sizes = np.array([p.num_flows for p in programs], dtype=np.int64)
        res_sizes = np.array([len(p.res_cap) for p in programs], dtype=np.int64)
        self.flow_sizes, self.res_sizes = flow_sizes, res_sizes
        self.flow_starts = np.cumsum(flow_sizes) - flow_sizes
        self.res_starts = np.cumsum(res_sizes) - res_sizes
        # reduceat reads one element of an empty block; its minimum is inf.
        self.no_res = np.flatnonzero(res_sizes == 0)
        blocks = np.arange(len(programs))
        self.block_of_flow = np.repeat(blocks, flow_sizes)
        self.block_of_res = np.repeat(blocks, res_sizes)
        num_flows, num_res = int(flow_sizes.sum()), int(res_sizes.sum())
        self.rates = np.zeros(num_flows)
        self.freeze = np.zeros(num_flows, dtype=np.bool_)
        self.round_of = np.full(num_flows, _NEVER, dtype=np.int64)
        self.prev = np.zeros(num_flows, dtype=np.bool_)
        # One inf past the resources, so that an empty last block has
        # something to reduce.
        self.share = np.full(num_res + 1, np.inf)
        self.residual = np.zeros(num_res)
        self.rounds = np.zeros(len(programs), dtype=np.int64)
        self.history = np.empty((0, num_res))
        self.programs = [None] * len(programs)

    def _stack(self, programs: Sequence) -> None:
        """Concatenate the blocks' capacities and incidence at their offsets."""
        self.programs = list(programs)
        self.res_cap = np.concatenate([p.res_cap for p in programs])
        self.inc_res = np.concatenate(
            [p.inc_res + off for p, off in zip(programs, self.res_starts.tolist())])
        self.inc_flow = np.concatenate(
            [p.inc_flow + off for p, off in zip(programs, self.flow_starts.tolist())])
        self.has_entry = np.zeros(len(self.rates), dtype=np.bool_)
        self.has_entry[self.inc_flow] = True


def fill_stacked_numpy(blocks: Sequence[Optional[Tuple[object, np.ndarray]]],
                       workspace: StackedWorkspace
                       ) -> List[Optional[Tuple[np.ndarray, int]]]:
    """One fill over many independent ``(program, active)`` blocks.

    Returns each block's ``(rates, rounds)``, equal bit for bit to the
    block's own :func:`fill_rates_numpy`: the rounds run over the stacked
    arrays, but each takes every block's own minimum share
    (``np.fmin.reduceat`` over the block resource starts) and broadcasts
    it per resource, so the tie window and the retired capacity are the
    floats a separate fill computes.  An unused resource's share is
    ``inf`` or NaN (``0 / 0``), which no minimum or tie window takes.  A
    block with no used resource left takes minimum 0, since ``inf * 0`` is
    NaN; its round count stops there.  The rates are views into the
    workspace and are reused across calls.

    Like a separate fill, a block whose mask is a subset of its last one
    resumes from the first round a departed flow froze in: its residual
    comes from ``history`` and its entries are the active flows that had
    not frozen before that round.  A block starts fresh when its program
    is another object than the last call's at its position, or when its
    mask gains a flow.  Blocks of other sizes than the last call's stack
    lay out afresh.  A None block (a run that has finished) keeps the
    slot of the last call's block at its position with no active flow,
    and gets None.
    """
    ws = workspace
    programs = [ws.programs[b] if block is None else block[0]
                for b, block in enumerate(blocks)]
    if (len(programs) != len(ws.programs)
            or any(p.num_flows != q.num_flows or len(p.res_cap) != len(q.res_cap)
                   for p, q in zip(programs, ws.programs))):
        ws._lay_out(programs)
    same = np.fromiter((p is q for p, q in zip(programs, ws.programs)),
                       dtype=np.bool_, count=len(programs))
    if not same.all():
        ws._stack(programs)
    num_res = len(ws.res_cap)
    rates, freeze, round_of, prev = ws.rates, ws.freeze, ws.round_of, ws.prev

    active = np.concatenate([
        np.zeros(program.num_flows, dtype=np.bool_) if block is None else block[1]
        for program, block in zip(programs, blocks)])
    gained = ws.block_of_flow[active & ~prev]
    fresh = ~same | (np.bincount(gained, minlength=len(programs)) > 0)
    gone = np.flatnonzero(prev & ~active)
    first = np.full(len(programs), _NEVER, dtype=np.int64)
    np.minimum.at(first, ws.block_of_flow[gone], round_of[gone])
    first[fresh] = 0
    redo = fresh | (first < ws.rounds)
    first = np.where(redo, first, ws.rounds)
    rates[gone] = 0.0
    if fresh.any():
        fresh_flow = fresh[ws.block_of_flow]
        rates[fresh_flow] = 0.0
        rates[fresh_flow & active & ~ws.has_entry] = np.inf
        round_of[fresh_flow] = _NEVER
    np.copyto(prev, active)
    rounds = first.copy()

    if redo.any():
        # The residual at the start of each block's first redone round:
        # the capacities for fresh blocks, the history for resumed ones,
        # the last fill's final state for blocks with nothing to redo.
        first_res = first[ws.block_of_res]
        columns = np.arange(num_res)
        residual = ws.residual.copy()
        resumed = (redo & ~fresh)[ws.block_of_res]
        residual[resumed] = ws.history[first_res[resumed], columns[resumed]]
        fresh_res = fresh[ws.block_of_res]
        residual[fresh_res] = ws.res_cap[fresh_res]
        first_flow = first[ws.block_of_flow]
        sel = (active & (round_of >= first_flow))[ws.inc_flow]
        ent_res = ws.inc_res[sel]
        ent_flow = ws.inc_flow[sel]
        counts = np.bincount(ent_res, minlength=num_res).astype(float)
        block_of_res, res_starts, share = ws.block_of_res, ws.res_starts, ws.share
        shares = share[:num_res]
        # Block b's round first[b] + step writes history row first[b] + step.
        slot = first_res * num_res + columns
        top = int(first.max())
        history = ws.history.reshape(-1)
        step = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            while ent_res.size:
                if top + step >= len(ws.history):
                    grown = np.empty((top + step + 16, num_res))
                    grown[:len(ws.history)] = ws.history
                    ws.history = grown
                    history = grown.reshape(-1)
                history[slot] = residual
                slot += num_res
                np.divide(residual, counts, out=shares)
                best = np.fmin.reduceat(share, res_starts)
                best[ws.no_res] = np.inf
                live = best < np.inf
                rounds += live
                best[~live] = 0.0
                tie = best + SIM_EPS + 1e-12 * np.abs(best)
                bottleneck = shares <= tie[block_of_res]
                best_res = best[block_of_res]
                on = bottleneck[ent_res]
                hit = ent_flow[on]
                freeze[hit] = True
                rates[hit] = best_res[ent_res[on]]
                round_of[hit] = first_flow[hit] + step
                ent_frozen = freeze[ent_flow]
                retired = np.bincount(ent_res, weights=ent_frozen,
                                      minlength=num_res)
                residual -= best_res * retired
                np.maximum(residual, 0.0, out=residual)
                counts -= retired
                freeze[hit] = False
                keep = ~ent_frozen
                ent_res = ent_res[keep]
                ent_flow = ent_flow[keep]
                step += 1
        ws.residual = residual
    ws.rounds = rounds
    return [None if block is None else (rates[start:start + size], n)
            for block, start, size, n in zip(
                blocks, ws.flow_starts.tolist(), ws.flow_sizes.tolist(),
                rounds.tolist())]
