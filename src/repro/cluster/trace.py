"""Cluster trace specifications: grammar, parsing and arrival processes.

A *trace spec* is a compact string describing a multi-job workload::

    cluster:jobs=8:arrival=poisson~200:placement=packed:seed=0

Fields are ``key=value`` pairs, ``:``-separated, in any order after the
``cluster`` prefix; ``~`` attaches a parameter to a value:

- ``jobs=N`` — number of jobs (required, >= 1);
- ``arrival=fixed~DT`` — job *j* arrives at ``j * DT`` seconds;
  ``arrival=poisson~RATE`` — Poisson process with ``RATE`` arrivals/second,
  drawn from a ``seed``-keyed RNG; ``arrival=trace~T0|T1|...`` — explicit
  non-decreasing arrival times (exactly ``jobs`` values);
- ``placement=packed|spread|random`` — how each job's logical nodes map
  onto physical topology nodes (see :mod:`.placement`);
- ``seed=S`` — RNG seed for Poisson arrivals and random placement;
- ``rounds=K`` — compute+comm rounds per job;
- ``compute=SEC`` — seconds of compute before each comm phase;
- ``buffer=BYTES`` — per-node all-to-all buffer per comm phase (defaults
  to the scenario's first ``buffers`` entry when omitted).

Defaults: ``arrival=fixed~0`` (every job at t=0), ``placement=packed``,
``seed=0``, ``rounds=1``, ``compute=0``.  Parsing is strict — unknown or
duplicate keys raise ``ValueError`` (the shared grammar,
:func:`repro.grammar.split_spec`) — and :meth:`ClusterSpec.canonical` is
parameter-order invariant, so equivalent spellings hash identically in the
scenario layer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from ..grammar import choice, number, split_spec

__all__ = ["ClusterSpec", "parse_cluster_spec", "arrival_times",
           "PLACEMENT_POLICIES"]

PLACEMENT_POLICIES = ("packed", "spread", "random")

_ARRIVALS = ("fixed", "poisson", "trace")

_KEYS = {"cluster": ("jobs", "arrival", "placement", "seed", "rounds", "compute",
                     "buffer")}


@dataclass(frozen=True)
class ClusterSpec:
    """A parsed cluster trace: job count, arrival process, placement, knobs.

    ``rate`` is the arrival parameter — arrivals/second for ``poisson``,
    inter-arrival seconds for ``fixed``, unused (0.0) for ``trace`` where
    ``times`` carries the explicit arrival instants instead.
    """

    jobs: int
    arrival: str                      # "fixed" | "poisson" | "trace"
    rate: float
    times: Tuple[float, ...]
    placement: str
    seed: int
    rounds: int
    compute: float
    buffer: Optional[float]

    def canonical(self) -> Tuple[object, ...]:
        """Parameter-order-invariant tuple used for scenario content hashing."""
        return ("cluster", self.jobs, self.arrival, float(self.rate),
                tuple(float(t) for t in self.times), self.placement,
                self.seed, self.rounds, float(self.compute),
                None if self.buffer is None else float(self.buffer))


def parse_cluster_spec(spec: str) -> ClusterSpec:
    """Parse a ``cluster:...`` trace spec string into a :class:`ClusterSpec`."""
    _, fields = split_spec(spec, "cluster", ":", _KEYS)
    values = {field.key: field.value for field in fields}
    if "jobs" not in values:
        raise ValueError(f"cluster spec needs jobs=N (got {spec!r})")
    jobs = number(values["jobs"], "jobs", 1, cast=int)

    kind, _, param = values.get("arrival", "fixed~0").partition("~")
    kind = choice(kind, "arrival process", _ARRIVALS)
    times: Tuple[float, ...] = ()
    rate = 0.0
    if kind == "fixed":
        rate = number(param, "fixed inter-arrival", 0.0) if param else 0.0
    elif kind == "poisson":
        if not param:
            raise ValueError("poisson arrivals need a rate: arrival=poisson~RATE")
        rate = number(param, "poisson rate", 0.0, strict=True)
    else:
        if not param:
            raise ValueError("trace arrivals need times: arrival=trace~T0|T1|...")
        times = tuple(number(t, "trace arrival time", 0.0) for t in param.split("|"))
        if len(times) != jobs:
            raise ValueError(
                f"trace lists {len(times)} arrival times for jobs={jobs}")
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("trace arrival times must be non-decreasing")

    buffer = values.get("buffer")
    return ClusterSpec(
        jobs=jobs, arrival=kind, rate=rate, times=times,
        placement=choice(values.get("placement", "packed"), "placement",
                         PLACEMENT_POLICIES),
        seed=number(values.get("seed", "0"), "seed", cast=int),
        rounds=number(values.get("rounds", "1"), "rounds", 1, cast=int),
        compute=number(values.get("compute", "0"), "compute seconds", 0.0),
        buffer=None if buffer is None else number(buffer, "buffer bytes", 0.0,
                                                  strict=True))


def arrival_times(spec: ClusterSpec) -> Tuple[float, ...]:
    """Arrival instant of every job, deterministically from the spec.

    ``fixed`` spaces jobs ``rate`` seconds apart starting at 0; ``poisson``
    accumulates seeded exponential inter-arrivals (same seed → identical
    times on every run); ``trace`` returns the explicit times verbatim.
    """
    if spec.arrival == "trace":
        return spec.times
    if spec.arrival == "fixed":
        return tuple(j * spec.rate for j in range(spec.jobs))
    rng = random.Random(spec.seed)
    now = 0.0
    out = []
    for _ in range(spec.jobs):
        now += rng.expovariate(spec.rate)
        out.append(now)
    return tuple(out)
