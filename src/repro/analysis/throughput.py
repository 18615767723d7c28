"""Throughput/time normalization helpers used by the evaluation harness.

Fig. 8/9/10 plot the *normalized all-to-all time*: the time of a scheme
divided by either the optimal link-based MCF time (Figs. 8, 9) or the
Theorem 1 lower bound (Fig. 10).  Fig. 5 plots min/mean/max envelopes over
sampled punctured-torus instances.  These small helpers keep that arithmetic
in one place (and testable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

__all__ = ["normalize_times", "Envelope", "envelope", "speedup"]


def normalize_times(times: Mapping[str, float], reference: float) -> Dict[str, float]:
    """Divide every scheme's all-to-all time by a reference time.

    ``reference`` is typically the link-based MCF optimum (Fig. 8/9) or the
    lower bound (Fig. 10); values >= 1 mean "this much slower than optimal".
    """
    if reference <= 0:
        raise ValueError("reference time must be positive")
    return {name: t / reference for name, t in times.items()}


@dataclass(frozen=True)
class Envelope:
    """Min/mean/max summary over repeated instances (Fig. 5 style)."""

    minimum: float
    mean: float
    maximum: float

    @staticmethod
    def of(values: Sequence[float]) -> "Envelope":
        if not values:
            raise ValueError("cannot build an envelope of zero values")
        return Envelope(minimum=min(values), mean=sum(values) / len(values),
                        maximum=max(values))


def envelope(values: Sequence[float]) -> Envelope:
    """Convenience alias for :meth:`Envelope.of`."""
    return Envelope.of(values)


def speedup(baseline_time: float, optimized_time: float) -> float:
    """Speedup factor of an optimized scheme over a baseline (>1 = faster)."""
    if optimized_time <= 0:
        return float("inf")
    return baseline_time / optimized_time
