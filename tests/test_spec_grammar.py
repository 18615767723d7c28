"""Spec strings: pinned scenario keys, field-order invariance, documented examples.

Topology, fabric, cluster and fault specs all reach the scenario layer as
strings, and their parsed forms feed ``Scenario.key()``.  A parser change
that moves a key would serve stale cache entries, so the keys of a probe
set spanning every family, fabric and field form are pinned in
``tests/golden/scenario_keys.json``.  Regenerate it (only for a deliberate
key change) with ``PYTHONPATH=src python tests/test_spec_grammar.py``.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from pathlib import Path

import pytest

from repro.cluster import parse_cluster_spec
from repro.experiments import Scenario
from repro.faults import parse_fault_spec
from repro.simulator import fabric_from_spec
from repro.topology import from_spec

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "scenario_keys.json"

TOPOLOGIES = [
    "genkautz:d=3,n=10", "kautz:d=3,n=10", "genkautz",
    "hypercube:dim=3", "hypercube", "twisted:dim=3", "twisted-hypercube:dim=3",
    "bipartite:left=3,right=4", "bipartite:left=3",
    "torus:dims=3x3", "torus:dims=2x2x2", "mesh:dims=3x4",
    "xpander:d=4,lift=5,seed=0", "xpander:d=3,lift=4",
    "rrg:d=3,n=12,seed=5", "random-regular:d=3,n=12,seed=5", "jellyfish:d=4,n=10,seed=1",
    "ring:n=6", "complete:n=4", "complete",
    "Torus:dims=3x3", " hypercube : dim = 3 ",
]

FABRICS = [
    "hpc", "ml", "ideal",
    "hpc:link_gbps=50", "hpc:injection_gbps=50,forwarding_gbps=100",
    "ml:link_gbps=50,injection_gbps=100", "ideal:link_bandwidth=2",
    "hpc:down=0~1", "hpc:down=0-1|2~3", "hpc:scale=0~1:0.5",
    "hpc:scale=0-1:0.5|2~3:0.25,forwarding_gbps=100",
    "ml:down=1~2,scale=0-1:0.5", "ideal:scale=0-1:0.5,down=1-2",
    "HPC:link_gbps=50", "Ideal",
]

CLUSTERS = [
    "cluster:jobs=4",
    "cluster:jobs=4:arrival=poisson~2000:placement=packed:seed=0",
    "cluster:seed=0:placement=packed:arrival=poisson~2000:jobs=4",
    "cluster:jobs=8:arrival=poisson~0.1:placement=spread:seed=7:rounds=2"
    ":compute=0.5:buffer=1048576",
    "cluster:buffer=1048576:compute=0.5:rounds=2:seed=7:placement=spread"
    ":arrival=poisson~0.1:jobs=8",
    "cluster:jobs=3:arrival=trace~0|0.5|2.25",
    "cluster:jobs=2:arrival=fixed~0.001:placement=random",
    "CLUSTER:Jobs=4:Placement=SPREAD",
]

FAULTS = [
    "faults:down=0~1@10us",
    "faults:down=0~1@10us:up@50us",
    "faults:up@50us:down=0~1@10us",
    "faults:down=0~1@0.5ms:up@1.2ms:seed=7",
    "faults:seed=7:up@1.2ms:down=0~1@0.5ms",
    "faults:down=0~1@0.5ms:up@1.2ms:scale=2~3*0.5@0.8ms:seed=7",
    "faults:straggler=3*0.25@1ms:vc=dfsssp",
    "faults:vc=DFSSSP:straggler=3*0.25@1ms",
    "faults:up=0~1@0:down=0-1|2~3@1ms:vc=off",
    "faults:down=0~1@1.5s:up=0~1@2500us:scale=2-3*0.5@0.002",
    "faults:up@0",
]


def probe_scenarios():
    """``{label: Scenario}`` over every probe spec."""
    probes = {}
    for spec in TOPOLOGIES:
        probes[f"topology {spec}"] = Scenario(topology=spec)
    for spec in FABRICS:
        probes[f"fabric {spec}"] = Scenario(topology="ring:n=4", fabric=spec,
                                            buffers=(2 ** 20,))
    for spec in CLUSTERS:
        probes[f"cluster {spec}"] = Scenario(topology="hypercube:dim=3",
                                             scheme="mcf-extp", cluster=spec)
    for spec in FAULTS:
        probes[f"faults {spec}"] = Scenario(topology="hypercube:dim=3",
                                            scheme="mcf-extp", buffers=(2 ** 20,),
                                            faults=spec)
    return probes


def probe_keys():
    return {label: scenario.key() for label, scenario in probe_scenarios().items()}


def test_scenario_keys_match_golden():
    assert probe_keys() == json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("label", sorted(probe_scenarios()))
def test_record_scenario_rebuilds_the_key(label):
    # A sweep record's "scenario" dict must rebuild the scenario resume
    # matches on.
    scenario = probe_scenarios()[label]
    rebuilt = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
    assert rebuilt.key() == scenario.key()


def _shuffled_fields(spec: str, rng: random.Random):
    head, *fields = spec.split(":")
    fields = [f for f in fields if f]
    orders = (list(itertools.permutations(fields)) if len(fields) <= 5
              else [rng.sample(fields, len(fields)) for _ in range(50)])
    return [":".join([head, *order]) for order in orders]


@pytest.mark.parametrize("spec", CLUSTERS)
def test_cluster_canonical_is_field_order_invariant(spec):
    expected = parse_cluster_spec(spec).canonical()
    for variant in _shuffled_fields(spec, random.Random(spec)):
        assert parse_cluster_spec(variant).canonical() == expected


@pytest.mark.parametrize("spec", FAULTS)
def test_fault_canonical_is_field_order_invariant(spec):
    expected = parse_fault_spec(spec).canonical()
    for variant in _shuffled_fields(spec, random.Random(spec)):
        assert parse_fault_spec(variant).canonical() == expected


@pytest.mark.parametrize("spec,parse,fragment", [
    ("torus:dims=3x3,bogus=1", from_spec,
     "unknown parameter 'bogus' at column 16 of topology 'torus' spec "
     "'torus:dims=3x3,bogus=1'; accepted keys: dims"),
    ("hpc:down=0~1,down=2~3", fabric_from_spec,
     "duplicate parameter 'down' at column 14 of fabric 'hpc' spec"),
    ("cluster:jobs=4:jobs=5", parse_cluster_spec,
     "duplicate parameter 'jobs' at column 16 of cluster spec"),
    ("faults:seed=1:Flavor=2", parse_fault_spec,
     "unknown parameter 'flavor' at column 15 of fault spec 'faults:seed=1:Flavor=2'; "
     "accepted keys: up, down, scale, straggler, seed, vc"),
])
def test_key_errors_share_one_format(spec, parse, fragment):
    with pytest.raises(ValueError) as err:
        parse(spec)
    assert fragment in str(err.value)


def test_keys_are_case_insensitive():
    assert from_spec("torus:DIMS=3x3").num_nodes == 9
    assert fabric_from_spec("hpc:LINK_GBPS=50") == fabric_from_spec("hpc:link_gbps=50")


#: Heads of every spec kind the documentation shows; a bare fabric name in
#: inline backticks is a spec too.
_HEADS = ("genkautz", "kautz", "hypercube", "twisted", "twisted-hypercube", "bipartite",
          "torus", "mesh", "xpander", "rrg", "random-regular", "jellyfish", "ring",
          "complete", "hpc", "ml", "ideal", "cluster", "faults")
_FABRICS = ("hpc", "ml", "ideal")


def documented_specs():
    """``(spec, rejected)`` for every spec example in README.md and docs/*.md.

    Examples are words in inline code spans and fenced blocks.  A spec on a
    line that mentions ``ValueError`` is documented as rejected.  Grammar
    templates (``jobs=N[:...]``, ``faults:...``) and bare kind words are not
    examples and are skipped.
    """
    found = set()
    for page in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        fenced = False
        for line in page.read_text().splitlines():
            if line.lstrip().startswith("```"):
                fenced = not fenced
                continue
            rejected = "ValueError" in line
            spans = [line] if fenced else re.findall(r"`([^`]+)`", line)
            found.update((span, rejected) for span in spans if span in _FABRICS)
            for word in re.split(r"[\s'\"`()/;]+", " ".join(spans)):
                if re.search(r"[\[\]<>]|\.\.\.", word):
                    continue
                word = word.rstrip(".,")
                if word.partition(":")[0] in _HEADS and re.search(r":.*[=@]", word):
                    found.add((word, rejected))
    return sorted(found)


def _parse(spec: str):
    head = spec.partition(":")[0]
    if head == "cluster":
        return parse_cluster_spec(spec)
    if head == "faults":
        return parse_fault_spec(spec)
    if head in _FABRICS:
        return fabric_from_spec(spec)
    return from_spec(spec)


def test_documentation_examples_cover_every_spec_kind():
    heads = {spec.partition(":")[0] for spec, _ in documented_specs()}
    assert {"cluster", "faults", "hpc", "ml", "ideal", "torus"} <= heads


@pytest.mark.parametrize("spec,rejected", documented_specs())
def test_documented_spec_parses(spec, rejected):
    if rejected:
        with pytest.raises(ValueError):
            _parse(spec)
    else:
        _parse(spec)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(probe_keys(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
