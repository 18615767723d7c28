"""Byte-for-byte goldens for ``repro compare``, ``repro synthesize`` and the LP layout.

The stdout files and XML sha256 digests under ``tests/golden/cli/`` pin the
user-visible output of the two scheme-running subcommands: the compare
table (including an error row, the throughput column and a scheme whose
all-to-all time is not exactly 1/F), and both branches of synthesize (path
schedule + LASH layers, and tsMCF).  ``lp_arrays_hypercube3.json`` pins the sha256 of
``LPBuilder.to_arrays()`` for the three formulations with a concurrent-flow
column ``F``, so moving that column (or any other assembly change) fails here.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.mcf_decomposed import build_master_lp
from repro.core.mcf_link import build_link_mcf
from repro.core.mcf_path import build_path_mcf
from repro.paths import edge_disjoint_path_sets
from repro.topology import from_spec

GOLDEN = Path(__file__).parent / "golden"
CLI_GOLDEN = GOLDEN / "cli"

CASES = {
    "compare_torus3x3": ["compare", "torus:dims=3x3",
                         "--schemes", "mcf-extp,ewsp,sssp,dor,native"],
    "compare_bipartite44_buffers": ["compare", "bipartite:left=4,right=4",
                                    "--schemes", "mcf-extp,sssp,dor",
                                    "--buffers", "1048576"],
    "synthesize_genkautz_hpc": ["synthesize", "genkautz:d=3,n=8", "--fabric", "hpc",
                                "-o", "synthesize_genkautz_hpc.xml"],
    "synthesize_bipartite33_ml": ["synthesize", "bipartite:left=3,right=3",
                                  "--fabric", "ml", "-o", "synthesize_bipartite33_ml.xml"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == (CLI_GOLDEN / f"{name}.txt").read_text()
    xml_digests = json.loads((CLI_GOLDEN / "xml_sha256.json").read_text())
    xml = tmp_path / f"{name}.xml"
    assert xml.exists() == (name in xml_digests)
    if xml.exists():
        assert hashlib.sha256(xml.read_bytes()).hexdigest() == xml_digests[name]


def _digest(lp) -> str:
    c, a_ub, b_ub, a_eq, b_eq, bounds = lp.to_arrays()
    h = hashlib.sha256()
    for arr in (c, b_ub, b_eq, bounds):
        h.update(b"-" if arr is None
                 else np.ascontiguousarray(arr, dtype=float).tobytes())
    for mat in (a_ub, a_eq):
        if mat is None:
            h.update(b"-")
            continue
        coo = mat.tocoo()
        h.update(np.asarray(coo.row, dtype=np.int64).tobytes())
        h.update(np.asarray(coo.col, dtype=np.int64).tobytes())
        h.update(np.asarray(coo.data, dtype=float).tobytes())
        h.update(repr(mat.shape).encode())
    return h.hexdigest()


def test_lp_arrays_match_golden_hashes():
    topo = from_spec("hypercube:dim=3")
    paths = edge_disjoint_path_sets(topo)
    frozen = {c: tuple(tuple(int(n) for n in p) for p in paths[c])
              for c in topo.commodities()}
    got = {"mcf-link": _digest(build_link_mcf(topo)),
           "mcf-path": _digest(build_path_mcf(topo, frozen)),
           "mcf-master": _digest(build_master_lp(topo))}
    assert got == json.loads((GOLDEN / "lp_arrays_hypercube3.json").read_text())
