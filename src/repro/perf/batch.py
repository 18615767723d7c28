"""Batched multi-RHS solving for structurally-related problem families.

A degraded-fabric sweep (``hpc:scale=...`` grids, bandwidth axes) produces
N :class:`~repro.engine.problem.MCFProblem` specs that assemble to the
*same* constraint matrix with different right-hand sides.  Solving them as
N independent cold LPs throws that structure away; :func:`solve_family`
solves them as one sequence instead:

1. each member first consults the engine's solution cache under its normal
   per-problem key — results land back there too, so sweep / report /
   cluster inherit the batching with no changes to those layers;
2. when a member shares a :func:`~repro.perf.warmstart.structure_hash`
   with the previously solved one and its RHS is a uniform positive
   scaling of it, LP homogeneity yields the optimum directly
   (``x* = s * x0*``, ``objective = s * obj0``) with no solver call;
3. otherwise the member solves through the configured backend and becomes
   the template for the members after it.

The derivation in step 2 is exact for the repo's MCF formulations (all
variables bounded ``[0, inf)``, verified per member via
:func:`~repro.perf.warmstart.scaling_safe_bounds`) and is asserted against
cold solves to ``FLOW_TOL`` in ``tests/test_kernels.py``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["solve_family"]


def solve_family(problems: Sequence, backend: Optional[str] = None,
                 engine=None, use_cache: bool = True
                 ) -> Tuple[List, Dict[str, int]]:
    """Solve a family of problems as one scaled sequence.

    Parameters mirror :meth:`repro.engine.core.Engine.solve`; ``engine``
    defaults to the process-wide engine.  Returns ``(solutions, stats)``
    where ``stats`` counts ``cache_hits`` (answered from the solution
    cache), ``scaled`` (derived via RHS scaling, no solver call) and
    ``solves`` (sent to the backend).  Solutions are cached under the same
    keys :meth:`Engine.solve` would use, so later single-problem solves
    hit.
    """
    from ..engine.core import get_engine, solution_key
    from ..engine.backends import get_backend
    from ..engine.problem import get_formulation
    from .warmstart import (rhs_vector, scaling_safe_bounds, structure_hash,
                            uniform_rhs_scale)

    engine = engine if engine is not None else get_engine()
    backend_name = backend or engine.backend_name
    solver = get_backend(backend_name)
    stats = {"solves": 0, "scaled": 0, "cache_hits": 0}
    template: Optional[dict] = None
    solutions: List = []
    for problem in problems:
        key = solution_key(problem, backend_name)
        caching = use_cache and engine.cache.enabled
        if caching:
            cached = engine.cache.get(key)
            if cached is not None:
                stats["cache_hits"] += 1
                info = dict(cached.info)
                info["cache"] = "hit"
                info.pop("assemble_seconds", None)
                info.pop("solve_seconds", None)
                solutions.append(cached.clone(info=info))
                continue
        t0 = time.perf_counter()
        builder = get_formulation(problem.formulation)(problem)
        builder.to_arrays()
        shash = structure_hash(builder)
        rhs = rhs_vector(builder)
        t1 = time.perf_counter()
        scale = None
        if (template is not None and template["hash"] == shash
                and template["maximize"] == problem.maximize
                and template["x"] is not None
                and scaling_safe_bounds(builder)):
            scale = uniform_rhs_scale(template["rhs"], rhs)
        if scale is not None:
            # Scaling b leaves the dual feasible region unchanged, so the
            # template's row duals stay optimal.
            solution = builder.make_solution(template["x"] * scale,
                                             template["objective"] * scale)
            solution.duals = dict(template["duals"])
            solution.info = {"family": "scaled-rhs", "rhs_scale": scale}
            stats["scaled"] += 1
        else:
            solution = solver.solve(builder, maximize=problem.maximize)
            solution.info.setdefault("family", "solved")
            stats["solves"] += 1
            template = {"hash": shash, "rhs": rhs, "x": solution.x,
                        "objective": solution.objective,
                        "duals": solution.duals,
                        "maximize": problem.maximize}
        t2 = time.perf_counter()
        solution.info.update({
            "cache": "miss" if caching else "bypass",
            "backend": backend_name,
            "key": key[:16],
            "num_variables": builder.num_variables,
            "num_constraints": builder.num_constraints,
            "assemble_seconds": t1 - t0,
            "solve_seconds": t2 - t1,
            "structure": shash[:16],
        })
        if caching:
            engine.cache.put(key, solution)
        solutions.append(solution)
    return solutions, stats
