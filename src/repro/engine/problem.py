"""Declarative MCF problem specs and the formulation registry.

An :class:`MCFProblem` names *what* to solve — a registered formulation, a
topology, and formulation parameters — without saying *how*.  The engine
(:mod:`repro.engine.core`) looks up the formulation's assembler, builds the
LP, hands it to a backend, and caches the result under the problem's
content-addressed :meth:`~MCFProblem.cache_key`.

Formulation modules (:mod:`repro.core.mcf_link` etc.) register their
assembler with :func:`register_formulation` at import time; an assembler is a
callable ``(problem) -> LPBuilder`` that must derive everything it needs from
``problem.topology`` and ``problem.params`` so that two problems with equal
cache keys always assemble the same LP.  A formulation registered with
``vertex=False`` tells the engine its callers read only the objective and
the row duals, so the backend may skip the vertex (:func:`needs_vertex`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Set, TYPE_CHECKING

from ..topology.base import Topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.solver import LPBuilder

__all__ = ["MCFProblem", "register_formulation", "get_formulation",
           "formulation_names", "needs_vertex"]


def _code_version() -> str:
    """The installed repro version (lazy: the package imports this module)."""
    try:
        from .. import __version__

        return __version__
    except ImportError:  # pragma: no cover - mid-bootstrap edge
        return "unknown"


def canonical_value(obj: object) -> object:
    """Reduce ``obj`` to a deterministic, order-independent hashable form.

    Mappings become sorted key/value tuples, sets become sorted tuples, and
    sequences become tuples; numpy scalars and arrays (which vectorized
    callers naturally produce) are lowered to Python scalars / nested tuples
    so equal problems hash equally regardless of array vs list params.
    Anything else must round-trip through ``repr`` deterministically (true
    for ints, floats, strings, bools and None).
    """
    import numpy as np

    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return tuple(canonical_value(v) for v in obj.tolist())
    if isinstance(obj, Mapping):
        items = [(canonical_value(k), canonical_value(v)) for k, v in obj.items()]
        return ("mapping", tuple(sorted(items, key=repr)))
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted((canonical_value(v) for v in obj), key=repr)))
    if isinstance(obj, (list, tuple)):
        return tuple(canonical_value(v) for v in obj)
    return obj


@dataclass
class MCFProblem:
    """A declarative LP problem spec understood by the engine.

    Attributes
    ----------
    formulation:
        Name of a registered formulation (see :func:`register_formulation`).
    topology:
        The topology the LP is assembled over; its
        :meth:`~repro.topology.base.Topology.canonical_hash` anchors the
        cache key.
    params:
        Formulation parameters.  Assemblers must treat missing keys as
        defaults, so problems carry only what the caller supplied and cache
        keys stay small.
    maximize:
        Objective sense passed to the backend.
    """

    formulation: str
    topology: Topology
    params: Dict[str, object] = field(default_factory=dict)
    maximize: bool = False

    def canonical_params(self) -> object:
        """Order-independent canonical form of :attr:`params`."""
        return canonical_value(self.params)

    def cache_key(self) -> str:
        """Content-addressed key: topology content + formulation + params.

        The package version is part of the payload so that a persistent
        ``REPRO_CACHE_DIR`` from an older release (whose assemblers or
        solution schema may differ) reads as a miss instead of silently
        serving stale solutions.
        """
        payload = repr((_code_version(), self.topology.canonical_hash(),
                        self.formulation, bool(self.maximize),
                        self.canonical_params()))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MCFProblem(formulation={self.formulation!r}, "
                f"topology={self.topology.name!r}, params={sorted(self.params)})")


_FORMULATIONS: Dict[str, Callable[[MCFProblem], "LPBuilder"]] = {}
_VERTEX_FREE: Set[str] = set()


def register_formulation(name: str, vertex: bool = True):
    """Decorator registering an assembler ``(MCFProblem) -> LPBuilder``.

    ``vertex=False`` declares that callers read only the optimal value and
    the row duals of its solutions, never the rest of the primal solution.
    """

    def decorator(fn: Callable[[MCFProblem], "LPBuilder"]):
        _FORMULATIONS[name] = fn
        if not vertex:
            _VERTEX_FREE.add(name)
        return fn

    return decorator


def get_formulation(name: str) -> Callable[[MCFProblem], "LPBuilder"]:
    """Look up a registered assembler, importing :mod:`repro.core` on miss.

    Formulations self-register when their module is imported; if the engine
    is used standalone (``import repro.engine``) the core package may not be
    loaded yet, so retry after importing it.
    """
    if name not in _FORMULATIONS:
        import repro.core  # noqa: F401 - triggers formulation registration

        if name not in _FORMULATIONS:
            raise KeyError(f"unknown formulation {name!r}; "
                           f"registered: {formulation_names()}")
    return _FORMULATIONS[name]


def needs_vertex(name: str) -> bool:
    """Whether formulation ``name``'s callers read the primal solution."""
    get_formulation(name)  # registers it if repro.core is not loaded yet
    return name not in _VERTEX_FREE


def formulation_names() -> List[str]:
    """Names of all registered formulations."""
    return sorted(_FORMULATIONS)
