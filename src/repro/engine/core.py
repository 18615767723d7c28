"""The solve engine: LP assembly + backend dispatch + caching.

``engine.solve(build, *args, maximize=..., vertex=...)`` is the single entry
point every MCF formulation routes through.  The engine

1. assembles the LP by calling ``build(*args)``,
2. keys it by :func:`solution_key`: the LP's own digest, the objective
   sense and the backend's method rule,
3. returns the cached :class:`LPSolution` on a hit,
4. otherwise solves the LP with the ``scipy-highs`` backend and stores the
   result.

Because the key is the assembled LP, a changed assembler or a changed
input can never be answered by a stale solution.  Solutions live only in
the engine's memory: a warm re-run in a new process is served by the
experiments layer's stage cache, which is the one persistent cache.

Each returned solution carries an ``info`` dict (cache status, backend name,
LP dimensions, cache key prefix) that formulations surface in
``FlowSolution.meta["engine"]``.

A process-wide default engine is created lazily.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional, TYPE_CHECKING

from .backends import ScipyHighsBackend
from .cache import SolutionCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.solver import LPBuilder, LPSolution

__all__ = ["Engine", "get_engine", "solve", "reset_engine",
           "solution_key"]


_BACKEND = ScipyHighsBackend()


def solution_key(builder: "LPBuilder", maximize: bool, vertex: bool) -> str:
    """Solution-cache key of the LP ``builder`` assembled.

    The key carries the objective sense and the backend's :meth:`identity`
    (its name plus the method rule, vertex or none): a different method
    may return a different (equally optimal) vertex or interior solution,
    so a solution cached under one rule must never answer for another.
    """
    sense = "max" if maximize else "min"
    return f"{builder.digest()}-{sense}-{_BACKEND.identity(vertex)}"


class Engine:
    """Solves assembled LPs with the HiGHS backend, through a cache.

    ``vertex=False`` declares that the caller reads only the optimal value
    and the row duals, never the rest of the primal solution, so the backend
    may skip the vertex.
    """

    #: The LP backend's name, as the footer and the report provenance print it.
    backend_name = _BACKEND.name

    def __init__(self, cache: Optional[SolutionCache] = None) -> None:
        self.cache = cache if cache is not None else SolutionCache()

    def solve(self, build: Callable[..., "LPBuilder"], *args,
              maximize: bool = False, vertex: bool = True) -> "LPSolution":
        """Solve the LP ``build(*args)`` assembles, consulting the cache."""
        t0 = time.perf_counter()
        builder = build(*args)
        builder.to_arrays()  # memoized; charges matrix assembly to assembly time
        assemble_seconds = time.perf_counter() - t0
        key = solution_key(builder, maximize, vertex)
        caching = self.cache.enabled
        if caching:
            cached = self.cache.get(key)
            if cached is not None:
                # The stored solve time describes the original miss, not
                # this call; the assembly did happen now.
                info = dict(cached.info, cache="hit",
                            assemble_seconds=assemble_seconds)
                info.pop("solve_seconds", None)
                return cached.clone(info=info)
        t1 = time.perf_counter()
        solution = _BACKEND.solve(builder, maximize=maximize, vertex=vertex)
        solution.info.update({
            "cache": "miss" if caching else "bypass",
            "backend": _BACKEND.name,
            "key": key[:16],
            "num_variables": builder.num_variables,
            "num_constraints": builder.num_constraints,
            "assemble_seconds": assemble_seconds,
            "solve_seconds": time.perf_counter() - t1,
        })
        if caching:
            self.cache.put(key, solution.clone())
        return solution


_engine: Optional[Engine] = None
_engine_lock = threading.Lock()


def get_engine() -> Engine:
    """The process-wide default engine (created lazily)."""
    global _engine
    if _engine is None:
        with _engine_lock:
            if _engine is None:
                _engine = Engine()
    return _engine


def reset_engine() -> None:
    """Drop the default engine (next :func:`get_engine` builds a fresh one)."""
    global _engine
    with _engine_lock:
        _engine = None


def solve(build: Callable[..., "LPBuilder"], *args, maximize: bool = False,
          vertex: bool = True) -> "LPSolution":
    """Solve through the default engine (the formulation-facing entry point)."""
    return get_engine().solve(build, *args, maximize=maximize, vertex=vertex)
