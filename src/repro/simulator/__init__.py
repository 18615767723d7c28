"""Direct-connect fabric simulator (the testbed substitute).

All regimes share one vectorized, event-driven fluid core
(:mod:`repro.simulator.engine`): :func:`~repro.simulator.engine.simulate_program`
runs a bare flow set, and :mod:`.stepsim` and :mod:`.collective` are thin
front-ends that lower their schedules to the engine's flow IR.
:mod:`.reference` keeps the scalar implementation as a differential-testing
oracle.
"""

from .collective import (
    CollectiveResult,
    run_link_collective,
    run_routed_collective,
    throughput_sweep,
)
from .costmodel import alltoall_time_upper_bound, steady_state_throughput
from .engine import (
    EngineResult,
    FillWorkspace,
    FlowProgram,
    FluidFlow,
    FluidRun,
    compile_flows,
    execute,
    fill_rates,
    simulate_program,
)
from .events import Event, EventQueue
from .fabric import (
    GBPS,
    GIBI,
    FabricModel,
    a100_ml_fabric,
    cerio_hpc_fabric,
    fabric_from_spec,
    ideal_fabric,
    parse_link_scales,
    parse_link_set,
)
from .reference import simulate_flows_reference
from .stepsim import StepSimResult, simulate_link_schedule

__all__ = [
    "CollectiveResult",
    "run_link_collective",
    "run_routed_collective",
    "throughput_sweep",
    "alltoall_time_upper_bound",
    "steady_state_throughput",
    "EngineResult",
    "FillWorkspace",
    "FlowProgram",
    "FluidFlow",
    "FluidRun",
    "compile_flows",
    "execute",
    "fill_rates",
    "simulate_program",
    "Event",
    "EventQueue",
    "GBPS",
    "GIBI",
    "FabricModel",
    "a100_ml_fabric",
    "cerio_hpc_fabric",
    "fabric_from_spec",
    "ideal_fabric",
    "parse_link_scales",
    "parse_link_set",
    "simulate_flows_reference",
    "StepSimResult",
    "simulate_link_schedule",
]
