"""The LP solve backend.

The backend turns an assembled :class:`~repro.core.solver.LPBuilder` into an
:class:`~repro.core.solver.LPSolution`.  Formulations never call it — the
engine does — so the solver method can change without touching formulation
code.

``scipy-highs`` wraps HiGHS via :func:`scipy.optimize.linprog` and picks the
method by LP size: HiGHS's own simplex choice (``highs``) below
:data:`IPM_MIN_VARIABLES` variables and interior point (``highs-ipm``) at or
above it, where IPM is several times faster on the host-augmented tsMCF and
the 64-node master LPs.

A solve with ``vertex=False`` (its caller reads only the objective and the
row duals, e.g. :func:`~repro.core.mcf_decomposed.solve_mcf_objective`) runs
interior point at every size with crossover off and
:data:`NO_VERTEX_OPTIONS`'s tight optimality tolerance: nothing reads the
vertex crossover would find.

Its :meth:`~ScipyHighsBackend.identity` names the method rule; the engine
keys cached solutions on it, so a solution cached under one rule never
answers for another.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.solver import LPBuilder, LPSolution

__all__ = ["ScipyHighsBackend", "IPM_MIN_VARIABLES", "NO_VERTEX_OPTIONS"]

#: LPs with at least this many variables go to HiGHS interior point.  The
#: report's largest LPs (35001 and 16129-16385 variables) sit above it; the
#: next largest (5380) stays on simplex, so every small LP keeps its simplex
#: vertex.  Tests patch it to force either method.
IPM_MIN_VARIABLES = 10_000

#: HiGHS options of a solve that needs no vertex.  ``linprog`` passes
#: ``run_crossover`` to HiGHS verbatim; the tolerance is tight because at
#: HiGHS's default (1e-8) the fig10 masters' F moved by up to 3.3e-7.
NO_VERTEX_OPTIONS = {"run_crossover": "off", "ipm_optimality_tolerance": 1e-12}

_NO_VERTEX_METHOD = "highs-ipm-no-crossover"


class ScipyHighsBackend:
    """HiGHS via :func:`scipy.optimize.linprog`, method picked by LP size."""

    name = "scipy-highs"

    def identity(self, vertex: bool = True) -> str:
        """The backend name plus its method rule (part of solution-cache keys)."""
        if not vertex:
            tol = NO_VERTEX_OPTIONS["ipm_optimality_tolerance"]
            return f"{self.name}[{_NO_VERTEX_METHOD},tol={tol:g}]"
        return f"{self.name}[highs-ipm>={IPM_MIN_VARIABLES}]"

    @staticmethod
    def method_for(num_variables: int) -> str:
        """The linprog method for an LP with this many variables."""
        return "highs-ipm" if num_variables >= IPM_MIN_VARIABLES else "highs"

    def solve(self, builder: "LPBuilder", maximize: bool = False,
              vertex: bool = True) -> "LPSolution":
        """Solve the accumulated LP; raise ``SolverError`` on failure.

        ``vertex=False`` skips crossover: the solution is an interior
        optimum, exact in its objective and duals only.
        """
        import numpy as np
        from scipy.optimize import OptimizeWarning, linprog

        from ..core.solver import SolverError

        n = builder.num_variables
        if n == 0:
            # Trivial LP: keep the (empty) block views resolvable so
            # degenerate formulations can still extract by block name.
            return builder.make_solution(np.zeros(0), 0.0)
        c, a_ub, b_ub, a_eq, b_eq, bounds = builder.to_arrays()
        if maximize:
            c = -c
        method = self.method_for(n) if vertex else _NO_VERTEX_METHOD
        with warnings.catch_warnings():
            # linprog warns that it hands run_crossover to HiGHS unchecked.
            warnings.filterwarnings("ignore", r"Unrecognized options.*run_crossover",
                                    OptimizeWarning)
            result = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                             bounds=bounds, method=method if vertex else "highs-ipm",
                             options=None if vertex else NO_VERTEX_OPTIONS)
        if not result.success:
            raise SolverError(f"LP solve failed ({self.name}, {method}): "
                              f"{result.message}")
        objective = float(result.fun)
        ub_duals = None
        if a_ub is not None:
            # linprog reports d(min objective)/d(b_ub); flip it back to the
            # builder's sense so named row blocks read as shadow prices.
            ub_duals = np.asarray(result.ineqlin.marginals, dtype=float)
            if maximize:
                ub_duals = -ub_duals
        if maximize:
            objective = -objective
        # Array-backed solution: per-block views materialize lazily.
        solution = builder.make_solution(result.x, objective, ub_duals=ub_duals)
        solution.info["method"] = method
        return solution
