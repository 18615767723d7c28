"""Pluggable LP solve backends.

A backend turns an assembled :class:`~repro.core.solver.LPBuilder` into an
:class:`~repro.core.solver.LPSolution`.  Formulations never pick a backend —
the engine does — so swapping HiGHS simplex for the interior-point method (or
a different solver for the per-source child-LP batches of the decomposed
formulations) never touches formulation code.

The default backend wraps HiGHS via :func:`scipy.optimize.linprog`, exactly
the solver the seed code called directly.  Variants registered out of the box:

* ``scipy-highs``      — HiGHS with automatic simplex/IPM choice (default);
* ``scipy-highs-ds``   — HiGHS dual simplex, deterministic vertex solutions,
  the better choice for batches of structurally similar child LPs;
* ``scipy-highs-ipm``  — HiGHS interior point, faster on the largest
  monolithic time-stepped LPs.

Families of LPs that differ only in their right-hand sides are batched
above the backend, by :func:`repro.perf.batch.solve_family`.
"""

from __future__ import annotations

from typing import Dict, List, Protocol, TYPE_CHECKING, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.solver import LPBuilder, LPSolution

__all__ = ["SolveBackend", "ScipyHighsBackend", "register_backend",
           "get_backend", "backend_names"]


@runtime_checkable
class SolveBackend(Protocol):
    """Protocol every solve backend implements."""

    name: str

    def solve(self, builder: "LPBuilder", maximize: bool = False) -> "LPSolution":
        """Solve the accumulated LP; raise ``SolverError`` on failure."""
        ...  # pragma: no cover - protocol


class ScipyHighsBackend:
    """HiGHS via :func:`scipy.optimize.linprog` (the seed solver path)."""

    def __init__(self, name: str = "scipy-highs", method: str = "highs") -> None:
        self.name = name
        self.method = method

    def solve(self, builder: "LPBuilder", maximize: bool = False) -> "LPSolution":
        import numpy as np
        from scipy.optimize import linprog

        from ..core.solver import SolverError

        n = builder.num_variables
        if n == 0:
            # Trivial LP: keep the (empty) block views resolvable so
            # degenerate formulations can still extract by block name.
            return builder.make_solution(np.zeros(0), 0.0)
        c, a_ub, b_ub, a_eq, b_eq, bounds = builder.to_arrays()
        if maximize:
            c = -c
        result = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                         bounds=bounds, method=self.method)
        if not result.success:
            raise SolverError(f"LP solve failed ({self.name}): {result.message}")
        objective = float(result.fun)
        if maximize:
            objective = -objective
        # Array-backed solution: per-block views materialize lazily.
        return builder.make_solution(result.x, objective, raw=result)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScipyHighsBackend(name={self.name!r}, method={self.method!r})"


_BACKENDS: Dict[str, SolveBackend] = {}


def register_backend(backend: SolveBackend) -> SolveBackend:
    """Register a backend under ``backend.name`` (later wins)."""
    _BACKENDS[backend.name] = backend
    return backend


def get_backend(name: str) -> SolveBackend:
    """Look up a registered backend by name."""
    if name not in _BACKENDS:
        raise KeyError(f"unknown solve backend {name!r}; "
                       f"registered: {backend_names()}")
    return _BACKENDS[name]


def backend_names() -> List[str]:
    """Names of all registered backends."""
    return sorted(_BACKENDS)


register_backend(ScipyHighsBackend("scipy-highs", method="highs"))
register_backend(ScipyHighsBackend("scipy-highs-ds", method="highs-ds"))
register_backend(ScipyHighsBackend("scipy-highs-ipm", method="highs-ipm"))
