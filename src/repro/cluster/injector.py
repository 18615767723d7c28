"""The flow-injection adapter cluster jobs use: the engine's flow arena.

Cluster co-simulation needs a live flow program: flow *sets* appear when a
job's comm phase starts and retire when it drains, while the survivors keep
max-min fair sharing the same fabric.  That program is the simulator's one
mutable arena, :class:`~repro.perf.delta.DeltaProgram`, bound here under the
name the cluster layer uses; a
:class:`~repro.simulator.engine.FluidRun` drives it
(:meth:`~repro.simulator.engine.FluidRun.inject`).
"""

from __future__ import annotations

from ..perf.delta import DeltaProgram as FlowInjector

__all__ = ["FlowInjector"]
