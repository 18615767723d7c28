"""The solve engine: formulation assembly + backend dispatch + caching.

``engine.solve(problem)`` is the single entry point every MCF formulation
routes through.  The engine

1. computes the problem's content-addressed cache key,
2. returns the cached :class:`LPSolution` on a hit,
3. otherwise assembles the LP via the registered formulation, solves it with
   the ``scipy-highs`` backend, and stores the result.

Each returned solution carries an ``info`` dict (cache status, backend name,
LP dimensions, cache key prefix) that formulations surface in
``FlowSolution.meta["engine"]``.

A process-wide default engine is created lazily.  The ``REPRO_CACHE_DIR``
environment variable seeds its disk tier.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Optional, TYPE_CHECKING

from .backends import ScipyHighsBackend
from .cache import SolutionCache
from .problem import MCFProblem, get_formulation, needs_vertex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.solver import LPSolution

__all__ = ["Engine", "get_engine", "solve", "reset_engine",
           "solution_key"]


_BACKEND = ScipyHighsBackend()


def solution_key(problem: MCFProblem) -> str:
    """Solution-cache key of ``problem``.

    The key carries the backend's :meth:`identity` (its name plus the
    method rule for the formulation, vertex or none): a different method
    may return a different (equally optimal) vertex or interior solution,
    so a solution cached under one rule must never answer for another.
    """
    identity = _BACKEND.identity(needs_vertex(problem.formulation))
    return f"{problem.cache_key()}-{identity}"


class Engine:
    """Solves :class:`MCFProblem` specs with the HiGHS backend, through a cache."""

    #: The LP backend's name, as the footer and the report provenance print it.
    backend_name = _BACKEND.name

    def __init__(self, cache: Optional[SolutionCache] = None) -> None:
        self.cache = cache if cache is not None else SolutionCache()

    def solve(self, problem: MCFProblem) -> "LPSolution":
        """Solve ``problem``, consulting the cache unless it is disabled."""
        key = solution_key(problem)
        caching = self.cache.enabled
        if caching:
            cached = self.cache.get(key)
            if cached is not None:
                info = dict(cached.info)
                info["cache"] = "hit"
                # The stored timings describe the original miss, not this
                # call; drop them so hit-path phase accounting can't read
                # stale assembly/solve seconds as if they were spent now.
                info.pop("assemble_seconds", None)
                info.pop("solve_seconds", None)
                return cached.clone(info=info)
        assembler = get_formulation(problem.formulation)
        t0 = time.perf_counter()
        builder = assembler(problem)
        builder.to_arrays()  # memoized; charges matrix assembly to assembly time
        t1 = time.perf_counter()
        solution = _BACKEND.solve(builder, maximize=problem.maximize,
                                  vertex=needs_vertex(problem.formulation))
        t2 = time.perf_counter()
        solution.info.update({
            "cache": "miss" if caching else "bypass",
            "backend": _BACKEND.name,
            "key": key[:16],
            "num_variables": builder.num_variables,
            "num_constraints": builder.num_constraints,
            "assemble_seconds": t1 - t0,
            "solve_seconds": t2 - t1,
        })
        if caching:
            self.cache.put(key, solution)
        return solution


_engine: Optional[Engine] = None
_engine_lock = threading.Lock()


def get_engine() -> Engine:
    """The process-wide default engine (created lazily)."""
    global _engine
    if _engine is None:
        with _engine_lock:
            if _engine is None:
                _engine = Engine(
                    cache=SolutionCache(cache_dir=os.environ.get("REPRO_CACHE_DIR")))
    return _engine


def reset_engine() -> None:
    """Drop the default engine (next :func:`get_engine` builds a fresh one)."""
    global _engine
    with _engine_lock:
        _engine = None


def solve(problem: MCFProblem) -> "LPSolution":
    """Solve through the default engine (the formulation-facing entry point)."""
    return get_engine().solve(problem)
