"""Direct-connect topology generators and graph properties."""

from .base import Topology, Edge
from .bipartite import complete_bipartite
from .expander import jellyfish, random_regular, xpander
from .hypercube import hypercube, twisted_hypercube
from .kautz import generalized_kautz, kautz
from .misc import bidirectional_ring, chain, complete, ring
from .spec import from_spec, spec_families
from .torus import (
    coordinate_of,
    edge_punctured_torus,
    mesh,
    node_of,
    node_punctured_torus,
    torus,
    torus_2d,
    torus_3d,
)
from . import properties

__all__ = [
    "Topology",
    "Edge",
    "complete_bipartite",
    "jellyfish",
    "random_regular",
    "xpander",
    "hypercube",
    "twisted_hypercube",
    "generalized_kautz",
    "kautz",
    "bidirectional_ring",
    "chain",
    "complete",
    "ring",
    "from_spec",
    "spec_families",
    "coordinate_of",
    "edge_punctured_torus",
    "mesh",
    "node_of",
    "node_punctured_torus",
    "torus",
    "torus_2d",
    "torus_3d",
    "properties",
]
