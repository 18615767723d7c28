"""The solve engine: formulation assembly + backend dispatch + caching.

``engine.solve(problem)`` is the single entry point every MCF formulation
routes through.  The engine

1. computes the problem's content-addressed cache key,
2. returns the cached :class:`LPSolution` on a hit,
3. otherwise assembles the LP via the registered formulation, solves it with
   the selected backend, and stores the result.

Each returned solution carries an ``info`` dict (cache status, backend name,
LP dimensions, cache key prefix) that formulations surface in
``FlowSolution.meta["engine"]``.

A process-wide default engine is created lazily.  The ``REPRO_CACHE_DIR``
environment variable seeds its disk tier and ``REPRO_SOLVE_BACKEND`` its
backend.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Optional, TYPE_CHECKING

from .backends import get_backend
from .cache import SolutionCache
from .problem import MCFProblem, get_formulation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.solver import LPSolution

__all__ = ["Engine", "get_engine", "solve", "reset_engine",
           "solution_key"]


def solution_key(problem: MCFProblem, backend_name: str) -> str:
    """Solution-cache key of ``problem`` solved by the named backend.

    The key carries the backend's :attr:`identity` (its name plus method
    rule): different backends, or one backend under a different rule, may
    return different (equally optimal) vertex/interior solutions, so a
    solution cached under one must never answer for another.
    """
    return f"{problem.cache_key()}-{get_backend(backend_name).identity}"


class Engine:
    """Solves :class:`MCFProblem` specs through pluggable backends + cache."""

    def __init__(self, backend: str = "scipy-highs",
                 cache: Optional[SolutionCache] = None) -> None:
        get_backend(backend)  # fail fast on unknown names
        self.backend_name = backend
        self.cache = cache if cache is not None else SolutionCache()

    def solve(self, problem: MCFProblem, backend: Optional[str] = None,
              use_cache: bool = True) -> "LPSolution":
        """Solve ``problem``, consulting the cache unless ``use_cache=False``.

        The cache key includes the backend's identity (:func:`solution_key`).
        """
        backend_name = backend or self.backend_name
        key = solution_key(problem, backend_name)
        caching = use_cache and self.cache.enabled
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
        solution = get_backend(backend_name).solve(builder, maximize=problem.maximize)
        t2 = time.perf_counter()
        solution.info.update({
            "cache": "miss" if caching else "bypass",
            "backend": backend_name,
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
                    backend=os.environ.get("REPRO_SOLVE_BACKEND", "scipy-highs"),
                    cache=SolutionCache(cache_dir=os.environ.get("REPRO_CACHE_DIR")),
                )
    return _engine


def reset_engine() -> None:
    """Drop the default engine (next :func:`get_engine` builds a fresh one)."""
    global _engine
    with _engine_lock:
        _engine = None


def solve(problem: MCFProblem, backend: Optional[str] = None,
          use_cache: bool = True) -> "LPSolution":
    """Solve through the default engine (the formulation-facing entry point)."""
    return get_engine().solve(problem, backend=backend, use_cache=use_cache)
