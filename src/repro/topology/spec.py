"""Topology spec strings: one parser shared by the CLI, benchmarks and scenarios.

A spec is a compact ``family:key=value,...`` string such as
``genkautz:d=4,n=24``, ``torus:dims=3x3x3``, ``hypercube:dim=3``,
``bipartite:left=4,right=4``, ``xpander:d=4,lift=5`` or
``rrg:d=4,n=20,seed=1``.  :func:`from_spec` turns it into a
:class:`~repro.topology.base.Topology`.

Historically :mod:`repro.cli` owned this parser and every benchmark rebuilt
topologies by hand; the declarative experiment layer
(:mod:`repro.experiments`) made a single shared implementation mandatory, so
it lives here and ``cli.build_topology`` is an alias.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .base import Topology
from .bipartite import complete_bipartite
from .expander import random_regular, xpander
from .hypercube import hypercube, twisted_hypercube
from .kautz import generalized_kautz
from .misc import complete, ring
from .torus import torus

__all__ = ["from_spec", "parse_spec", "spec_families"]

#: Family name (aliases included) -> the parameter keys it accepts.
_KEYS: Dict[str, Tuple[str, ...]] = {
    "genkautz": ("d", "n"), "kautz": ("d", "n"),
    "hypercube": ("dim",),
    "twisted": ("dim",), "twisted-hypercube": ("dim",),
    "bipartite": ("left", "right"),
    "torus": ("dims",), "mesh": ("dims",),
    "xpander": ("d", "lift", "seed"),
    "rrg": ("d", "n", "seed"), "random-regular": ("d", "n", "seed"),
    "jellyfish": ("d", "n", "seed"),
    "ring": ("n",),
    "complete": ("n",),
}


def _split(spec: str) -> Tuple[str, List[Tuple[str, str]]]:
    """Split a spec into its family and its ``(key, value)`` pairs, in order."""
    if ":" in spec:
        family, rest = spec.split(":", 1)
    else:
        family, rest = spec, ""
    items: List[Tuple[str, str]] = []
    for item in rest.split(","):
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"malformed topology parameter {item!r} (expected key=value)")
        key, value = item.split("=", 1)
        items.append((key.strip(), value.strip()))
    return family.strip().lower(), items


def parse_spec(spec: str) -> Tuple[str, Dict[str, str]]:
    """Split a ``family:key=value,...`` spec into ``(family, params)``."""
    family, items = _split(spec)
    return family, dict(items)


def from_spec(spec: str) -> Topology:
    """Build a topology from a ``family:key=value,...`` spec string.

    Each family accepts a fixed set of keys; an unknown key, or a key given
    twice, raises ``ValueError``.
    """
    family, items = _split(spec)
    if family not in _KEYS:
        raise ValueError(f"unknown topology family {family!r}; "
                         f"known families: {', '.join(spec_families())}")
    accepted = _KEYS[family]
    params: Dict[str, str] = {}
    for key, value in items:
        if key not in accepted or key in params:
            problem = "unknown" if key not in accepted else "duplicate"
            raise ValueError(f"{problem} parameter {key!r} for topology family "
                             f"{family!r}; accepted keys: {', '.join(accepted)}")
        params[key] = value

    if family in ("genkautz", "kautz"):
        return generalized_kautz(int(params.get("d", 4)), int(params.get("n", 16)))
    if family == "hypercube":
        return hypercube(int(params.get("dim", 3)))
    if family in ("twisted", "twisted-hypercube"):
        return twisted_hypercube(int(params.get("dim", 3)))
    if family == "bipartite":
        left = int(params.get("left", 4))
        right = int(params.get("right", left))
        return complete_bipartite(left, right)
    if family in ("torus", "mesh"):
        dims = [int(x) for x in params.get("dims", "3x3").split("x")]
        return torus(dims, wrap=(family == "torus"))
    if family == "xpander":
        return xpander(int(params.get("d", 4)), int(params.get("lift", 4)),
                       seed=int(params.get("seed", 0)))
    if family in ("rrg", "random-regular", "jellyfish"):
        return random_regular(int(params.get("d", 4)), int(params.get("n", 16)),
                              seed=int(params.get("seed", 0)))
    if family == "ring":
        return ring(int(params.get("n", 5)))
    return complete(int(params.get("n", 4)))        # the last family in _KEYS


def spec_families() -> Tuple[str, ...]:
    """Canonical family names :func:`from_spec` understands."""
    return ("genkautz", "hypercube", "twisted", "bipartite", "torus", "mesh",
            "xpander", "rrg", "ring", "complete")
