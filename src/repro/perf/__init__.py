"""Hot paths: the max-min fill kernel, batched LP families and the flow arena.

The performance layer behind the simulator and the solve engine:

* :mod:`repro.perf.fillkernel` — the vectorized numpy progressive-filling
  kernel and its reusable :class:`FillWorkspace`, run by :func:`run_fill`;
* :mod:`repro.perf.warmstart` — constraint-structure hashing and
  uniform-RHS-scaling detection for LP families;
* :mod:`repro.perf.batch` — :func:`solve_family`, the batched multi-RHS
  solver that degraded-fabric sweeps route through;
* :mod:`repro.perf.delta` — :class:`DeltaProgram`, the one mutable flow
  arena: cluster runs append and retire flow sets in it, fault epochs
  patch its capacities and rerouted incidence slots in place instead of
  recompiling.

Everything here runs on numpy and scipy alone; see ``docs/performance.md``
for the design and the knobs.
"""

from .batch import solve_family
from .delta import DeltaProgram
from .fillkernel import FillWorkspace, fill_rates_numpy, run_fill
from .warmstart import (rhs_vector, scaling_safe_bounds, structure_hash,
                        uniform_rhs_scale)

__all__ = [
    "FillWorkspace",
    "fill_rates_numpy",
    "run_fill",
    "rhs_vector",
    "scaling_safe_bounds",
    "structure_hash",
    "uniform_rhs_scale",
    "solve_family",
    "DeltaProgram",
]
