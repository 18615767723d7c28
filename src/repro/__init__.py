"""repro: all-to-all collective communication schedules for direct-connect topologies.

A reproduction of "Efficient all-to-all Collective Communication Schedules for
Direct-connect Topologies" (HPDC 2024): MCF-based schedule synthesis
(link-based, decomposed, time-stepped, path-based), baselines, topology
generators (generalized Kautz, tori, hypercubes, expanders), schedule
compilation to MSCCL/oneCCL/OMPI-style XML, a direct-connect fabric simulator,
and an application workload (3D FFT).
"""

from . import (
    analysis,
    baselines,
    constants,
    core,
    engine,
    experiments,
    obs,
    paths,
    perf,
    report,
    routing,
    schedule,
    simulator,
    topology,
    workloads,
)

__version__ = "1.17.0"

__all__ = [
    "analysis",
    "baselines",
    "constants",
    "core",
    "engine",
    "experiments",
    "obs",
    "paths",
    "perf",
    "report",
    "routing",
    "schedule",
    "simulator",
    "topology",
    "workloads",
    "__version__",
]
