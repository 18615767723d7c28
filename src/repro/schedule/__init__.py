"""Schedule IR, chunking, XML compilers and the executing interpreter."""

from .chunking import chunk_path_schedule, chunk_timestepped_flow, quantize_weights
from .compile_msccl import compile_to_msccl_xml, count_instructions
from .compile_oneccl import compile_to_oneccl_xml, scratch_buffer_bytes
from .compile_ompi import compile_to_ompi_xml, count_queue_pairs
from .interpreter import (
    execute_link_xml,
    execute_routed_xml,
    parse_msccl_xml,
    parse_oneccl_xml,
    parse_ompi_xml,
)
from .ir import Chunk, LinkSchedule, LinkSendOp, RouteAssignment, RoutedSchedule
from .stats import RoutedScheduleStats, routed_schedule_stats
from .validate import ScheduleValidationError, validate_link_schedule, validate_routed_schedule

__all__ = [
    "chunk_path_schedule",
    "chunk_timestepped_flow",
    "quantize_weights",
    "compile_to_msccl_xml",
    "count_instructions",
    "compile_to_oneccl_xml",
    "scratch_buffer_bytes",
    "compile_to_ompi_xml",
    "count_queue_pairs",
    "execute_link_xml",
    "execute_routed_xml",
    "parse_msccl_xml",
    "parse_oneccl_xml",
    "parse_ompi_xml",
    "RoutedScheduleStats",
    "routed_schedule_stats",
    "Chunk",
    "LinkSchedule",
    "LinkSendOp",
    "RouteAssignment",
    "RoutedSchedule",
    "ScheduleValidationError",
    "validate_link_schedule",
    "validate_routed_schedule",
]
