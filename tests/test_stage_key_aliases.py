"""Equal stage keys must mean equal results.

The stage cache hands a stored artifact to every scenario with the same
key, so two scenarios that share a key must produce the same record when
each runs cold.  The table below names topologies that are easy to confuse:
each hypercube beside the torus that builds the same edge set, and every
spec beside a rebuild of it with its edges inserted in reverse (same name
and metadata), which the path schemes route differently.  DOR reads the
metadata, ``sssp`` and ``pmcf-disjoint`` the graph's insertion order.
"""

from __future__ import annotations

import itertools

import networkx as nx
import pytest

from repro.engine.cache import SolutionCache
from repro.experiments import Scenario, run_scenarios, run_sweep
from repro.topology import Topology, from_spec

SPECS = {
    "hypercube-2": "hypercube:dim=2",
    "torus-2x2": "torus:dims=2x2",
    "hypercube-3": "hypercube:dim=3",
    "torus-2x2x2": "torus:dims=2x2x2",
    "hypercube-4": "hypercube:dim=4",
    "torus-2x2x2x2": "torus:dims=2x2x2x2",
    "rrg-12": "rrg:d=3,n=12,seed=5",
    "genkautz-20": "genkautz:d=4,n=20",
}


def _reverse_inserted(spec: str) -> Topology:
    """``spec``'s topology rebuilt with its edges inserted in reverse."""
    topology = from_spec(spec)
    graph = nx.DiGraph()
    graph.add_nodes_from(topology.graph)
    graph.add_edges_from(reversed(list(topology.graph.edges(data=True))))
    return Topology(graph, name=topology.name, default_cap=topology.default_cap,
                    metadata=dict(topology.metadata))


TOPOLOGIES = {**SPECS,
              **{f"{name} reversed": _reverse_inserted(spec)
                 for name, spec in SPECS.items()}}

PAIRS = ([("hypercube-2", "torus-2x2"), ("hypercube-3", "torus-2x2x2"),
          ("hypercube-4", "torus-2x2x2x2")]
         + [(name, f"{name} reversed") for name in SPECS])

SCHEMES = ("dor", "sssp", "pmcf-disjoint")


def _scenarios(name):
    return [Scenario(topology=TOPOLOGIES[name], scheme=scheme, buffers=(2 ** 20,),
                     max_denominator=16, name=f"{name}/{scheme}")
            for scheme in SCHEMES]


def _record(result) -> str:
    return repr((result.status, result.through, result.metrics, result.error))


@pytest.fixture(scope="module")
def cold_records():
    """Every table scenario's record with the stage cache off."""
    off = SolutionCache(name="stage-cache", enabled=False)
    records = {}
    for name in TOPOLOGIES:
        scenarios = _scenarios(name)
        for scenario, result in zip(scenarios, run_scenarios(scenarios, cache=off)):
            records[scenario.name] = _record(result)
    return records


def test_equal_stage_keys_mean_equal_cold_records(cold_records):
    by_key = {}
    for name in TOPOLOGIES:
        for scenario in _scenarios(name):
            by_key.setdefault(scenario.key(), []).append(scenario.name)
    for names in by_key.values():
        for a, b in itertools.combinations(names, 2):
            assert cold_records[a] == cold_records[b], (a, b)


@pytest.mark.parametrize("first, second",
                         PAIRS + [(b, a) for a, b in PAIRS],
                         ids=lambda name: name.replace(" ", "-"))
def test_shared_cache_sweep_equals_cold_records(cold_records, first, second):
    scenarios = _scenarios(first) + _scenarios(second)
    results = run_sweep(scenarios, cache=SolutionCache(name="stage-cache"))
    assert {s.name: _record(r) for s, r in zip(scenarios, results)} == {
        s.name: cold_records[s.name] for s in scenarios}
