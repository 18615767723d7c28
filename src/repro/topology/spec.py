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

from typing import Dict, Tuple

from ..grammar import split_spec
from .base import Topology
from .bipartite import complete_bipartite
from .expander import random_regular, xpander
from .hypercube import hypercube, twisted_hypercube
from .kautz import generalized_kautz
from .misc import complete, ring
from .torus import torus

__all__ = ["from_spec", "spec_families"]

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


def from_spec(spec: str) -> Topology:
    """Build a topology from a ``family:key=value,...`` spec string.

    Each family accepts a fixed set of keys; an unknown key, or a key given
    twice, raises ``ValueError`` (see :func:`repro.grammar.split_spec`).
    """
    family, fields = split_spec(spec, "topology", ",", _KEYS)
    params = {field.key: field.value for field in fields}

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
