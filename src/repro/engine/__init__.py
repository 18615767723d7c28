"""Unified solve engine: problems, backends and the solution cache.

Layering (each layer only knows the one below it):

* **Problem** (:mod:`.problem`) — declarative :class:`MCFProblem` specs plus
  the formulation registry the MCF modules register their LP assemblers in;
* **Backend** (:mod:`.backends`) — :class:`ScipyHighsBackend`, HiGHS with
  the method picked by LP size, or interior point without crossover for
  formulations that need no vertex;
* **Cache** (:mod:`.cache`) — an in-memory :class:`SolutionCache` keyed
  by the assembled LP's digest, the objective sense and the backend's
  method rule (:func:`~repro.engine.core.solution_key`).

``engine.solve(problem)`` on the process-wide default engine is the one
entry point every formulation routes through.
"""

from .backends import ScipyHighsBackend
from .cache import SolutionCache
from .core import Engine, get_engine, reset_engine, solve
from .problem import (
    MCFProblem,
    formulation_names,
    get_formulation,
    register_formulation,
)

__all__ = [
    "ScipyHighsBackend",
    "SolutionCache",
    "Engine",
    "get_engine",
    "reset_engine",
    "solve",
    "MCFProblem",
    "formulation_names",
    "get_formulation",
    "register_formulation",
]
