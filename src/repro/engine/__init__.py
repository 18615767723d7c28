"""Unified solve engine: backends and the solution cache.

Layering (each layer only knows the one below it):

* **Backend** (:mod:`.backends`) — :class:`ScipyHighsBackend`, HiGHS with
  the method picked by LP size, or interior point without crossover for
  solves that need no vertex;
* **Cache** (:mod:`.cache`) — an in-memory :class:`SolutionCache` keyed
  by the assembled LP's digest, the objective sense and the backend's
  method rule (:func:`~repro.engine.core.solution_key`).

``engine.solve(build, *args, maximize=..., vertex=...)`` on the
process-wide default engine is the one entry point every formulation routes
through: it calls the formulation's assembler ``build(*args)`` and solves
the LP it returns.
"""

from .backends import ScipyHighsBackend
from .cache import SolutionCache
from .core import Engine, get_engine, reset_engine, solve

__all__ = [
    "ScipyHighsBackend",
    "SolutionCache",
    "Engine",
    "get_engine",
    "reset_engine",
    "solve",
]
