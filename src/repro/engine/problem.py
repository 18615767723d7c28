"""Declarative MCF problem specs and the formulation registry.

An :class:`MCFProblem` names *what* to solve — a registered formulation, a
topology, and formulation parameters — without saying *how*.  The engine
(:mod:`repro.engine.core`) looks up the formulation's assembler, builds the
LP, and caches the solution under the assembled LP's own digest, so a
problem needs no key of its own.

Formulation modules (:mod:`repro.core.mcf_link` etc.) register their
assembler with :func:`register_formulation` at import time; an assembler is a
callable ``(problem) -> LPBuilder``.  A formulation registered with
``vertex=False`` tells the engine its callers read only the objective and
the row duals, so the backend may skip the vertex (:func:`needs_vertex`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Set, TYPE_CHECKING

from ..topology.base import Topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.solver import LPBuilder

__all__ = ["MCFProblem", "register_formulation", "get_formulation",
           "formulation_names", "needs_vertex"]


@dataclass
class MCFProblem:
    """A declarative LP problem spec understood by the engine.

    Attributes
    ----------
    formulation:
        Name of a registered formulation (see :func:`register_formulation`).
    topology:
        The topology the LP is assembled over.
    params:
        Formulation parameters.  Assemblers treat missing keys as
        defaults, so problems carry only what the caller supplied.
    maximize:
        Objective sense passed to the backend.
    """

    formulation: str
    topology: Topology
    params: Dict[str, object] = field(default_factory=dict)
    maximize: bool = False

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
