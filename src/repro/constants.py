"""Shared numerical tolerances.

Every tolerance used to interpret LP output or drive the fluid simulator
lives here so that the semantics are documented once and the values cannot
drift apart between modules.

FLOW_TOL
    Threshold below which an LP flow variable is treated as zero when a
    solution is read back from the solver.  HiGHS reports primal values with
    ~1e-10 noise around zero; 1e-9 cleanly separates genuine (rational) flow
    values from that noise for the unit-capacity problems solved here.  Used
    by every MCF formulation and by the path decomposition in
    :mod:`repro.core.flow`.

SIM_EPS
    Epsilon for the fluid (progressive-filling) simulator's *rate*
    comparisons: a rate below ``SIM_EPS`` bytes/second is treated as zero
    (the flow is stalled), and two resource fair-shares closer than
    ``SIM_EPS`` are considered tied.  It is much tighter than ``FLOW_TOL``
    because the simulator accumulates byte counts over many events and a
    loose epsilon would terminate transfers early.

SIM_BYTES_EPS
    Threshold below which a flow's *remaining bytes* count as delivered.
    Progressive filling advances time by ``remaining / rate`` divisions
    whose float round-off leaves residues far above ``SIM_EPS``; without
    this coarser cutoff a flow could survive its own completion event and
    spin the event loop.  Shared by the vectorized engine and the scalar
    reference simulator so their completion times stay comparable.

SCHEDULE_TOL
    Coverage tolerance for schedule validation: a commodity counts as fully
    covered when its chunk assignments sum to at least ``1 - SCHEDULE_TOL``.
    Chunking quantizes path weights to small rational fractions, so the
    round-off is far larger than LP noise.

SIM_MAX_EVENTS
    Event budget of one fluid simulation: a run that has processed this
    many events raises the event-cap error instead of stepping on, so a
    simulation that stops converging fails rather than spins.  The largest
    runs here (cluster traces, flapping-link timelines) stay orders of
    magnitude below it.  Read once per :meth:`FluidRun.advance
    <repro.simulator.engine.FluidRun.advance>` call, so tests can lower it.
"""

from __future__ import annotations

__all__ = ["FLOW_TOL", "SIM_EPS", "SIM_BYTES_EPS", "SCHEDULE_TOL", "SIM_MAX_EVENTS"]

FLOW_TOL = 1e-9

SIM_EPS = 1e-12

SIM_BYTES_EPS = 1e-6

SCHEDULE_TOL = 1e-6

SIM_MAX_EVENTS = 1_000_000
