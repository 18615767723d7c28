"""Hot paths: the max-min fill kernel and the flow arena.

The performance layer behind the simulator:

* :mod:`repro.perf.fillkernel` — the vectorized numpy progressive-filling
  kernel and its reusable :class:`FillWorkspace`, run by :func:`run_fill`,
  and :func:`fill_stacked_numpy`, one fill over many independent programs
  with a :class:`StackedWorkspace`;
* :mod:`repro.perf.delta` — :class:`DeltaProgram`, the one mutable flow
  arena: cluster runs append and retire flow sets in it, fault epochs
  post its capacities and swap rerouted flows' incidence entries instead
  of recompiling.

Everything here runs on numpy alone; see ``docs/performance.md`` for the
design.
"""

from .delta import DeltaProgram
from .fillkernel import (FillWorkspace, StackedWorkspace, fill_rates_numpy,
                         fill_stacked_numpy, run_fill)

__all__ = [
    "FillWorkspace",
    "StackedWorkspace",
    "fill_rates_numpy",
    "fill_stacked_numpy",
    "run_fill",
    "DeltaProgram",
]
