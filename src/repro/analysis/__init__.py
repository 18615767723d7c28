"""Analysis helpers: normalization, envelopes, and report formatting."""

from .report import (
    format_engine_footer,
    format_series,
    format_table,
    format_throughput_sweep,
    human_bytes,
)
from .throughput import Envelope, envelope, normalize_times, speedup

__all__ = [
    "format_engine_footer",
    "format_series",
    "format_table",
    "format_throughput_sweep",
    "human_bytes",
    "Envelope",
    "envelope",
    "normalize_times",
    "speedup",
]
