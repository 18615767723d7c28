"""Native-speed hot paths: JIT fill kernels and warm-started LP solving.

The performance layer behind the simulator and the solve engine:

* :mod:`repro.perf.fillkernel` — interchangeable progressive-filling
  kernels (vectorized numpy fallback; flat-CSR kernel JIT-compiled with
  numba when installed), selected via ``REPRO_KERNEL`` and dispatched by
  :func:`run_fill`;
* :mod:`repro.perf.warmstart` — constraint-structure hashing and
  uniform-RHS-scaling detection for LP families;
* :mod:`repro.perf.batch` — :func:`solve_family`, the batched multi-RHS
  solver that degraded-fabric sweeps route through;
* :mod:`repro.perf.delta` — :class:`DeltaProgram`, the one mutable flow
  arena: cluster runs append and retire flow sets in it, fault epochs
  patch its capacities and rerouted incidence slots in place instead of
  recompiling.

Everything here degrades gracefully: without ``numba`` the fills run the
numpy kernel, without ``highspy`` the warm-started backend falls back to
scipy — behaviour is identical, only throughput differs.  Install both
with the ``perf`` extra (``pip install -e '.[perf]'``); see
``docs/performance.md`` for knobs and benchmark methodology.
"""

from .batch import solve_family
from .delta import DeltaProgram
from .fillkernel import (FillWorkspace, fill_kernel_name, fill_rates_csr,
                         fill_rates_numpy, numba_available, run_fill,
                         set_fill_kernel)
from .warmstart import (rhs_vector, scaling_safe_bounds, structure_hash,
                        uniform_rhs_scale)

__all__ = [
    "FillWorkspace",
    "fill_kernel_name",
    "fill_rates_csr",
    "fill_rates_numpy",
    "numba_available",
    "run_fill",
    "set_fill_kernel",
    "rhs_vector",
    "scaling_safe_bounds",
    "structure_hash",
    "uniform_rhs_scale",
    "solve_family",
    "DeltaProgram",
]
