#!/usr/bin/env python3
"""Compare two result files of the end-to-end benchmark.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --seed 0 --runs 5 --out a.json   # parent commit
    python3 benchmarks/e2e/run.py --seed 0 --runs 5 --out b.json   # change
    python3 benchmarks/e2e/compare.py a.json b.json

For each workload x metric it prints both sides' median and quartiles and,
for the end-to-end metrics, a verdict against the metric's ``bound`` from
``BENCHMARK.json`` (the share of A's median by which B may be worse):

* ``unresolved`` — either side's quartile gap, as a share of its median, is
  wider than the bound, and B's runs neither all beat nor all lose to A's;
* ``worse`` — B's median is worse than A's by more than the bound (or, when
  unresolved, every B run is worse than every A run);
* ``improved`` — B's median is better by more than A's own quartile gap and
  B wins at least nine tenths of the run pairs (or, when unresolved, every
  B run is better than every A run);
* ``same`` — otherwise.

Exits with 1 when any verdict is ``worse``.  Per-layer metrics have no
bound; they are listed with their change and no verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


def load(path: str) -> Dict[Tuple[str, str], List[float]]:
    """Values per (workload, metric) across the runs of one results file."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        for name, metric in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(float(metric["value"]))
    return values


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: Sequence[float], b: Sequence[float], bound: float, lower_is_better: bool) -> str:
    """Verdict for change B against parent A (see the module docstring)."""
    sign = 1.0 if lower_is_better else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    spread_a = (a_q3 - a_q1) / abs(a_med) if a_med else 0.0
    spread_b = (b_q3 - b_q1) / abs(b_med) if b_med else 0.0
    worse_by = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    if max(spread_a, spread_b) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "improved"
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if -worse_by > spread_a and pairs and wins >= 0.9 * len(pairs):
        return "improved"
    return "same"


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    a, b = load(argv[0]), load(argv[1])
    header = (f"{'workload':<13} {'metric':<24} {'A median [q1, q3]':>34} "
              f"{'B median [q1, q3]':>34} {'change':>8} {'bound':>6}  verdict")
    print(header)
    print("-" * len(header))
    worse = False
    for key in sorted(set(a) & set(b)):
        workload, name = key
        (a_q1, a_med, a_q3), (b_q1, b_med, b_q3) = quartiles(a[key]), quartiles(b[key])
        change = f"{100 * (b_med - a_med) / abs(a_med):+7.1f}%" if a_med else "-"
        declared = bounds.get(name)
        if declared is None:
            bound, label = "-", "-"
        else:
            bound = f"{declared['bound']:.2f}"
            label = verdict(a[key], b[key], declared["bound"], declared["better"] == "lower")
            worse |= label == "worse"
        print(f"{workload:<13} {name:<24} "
              f"{f'{a_med:.6g} [{a_q1:.6g}, {a_q3:.6g}]':>34} "
              f"{f'{b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}]':>34} {change:>8} {bound:>6}  {label}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
