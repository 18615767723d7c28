"""Discrete-event scheduler for the unified simulation engine.

The vectorized fluid core (:mod:`repro.simulator.engine`) advances time from
flow-completion event to flow-completion event; this module provides the
priority-queue scheduler it (and any future packet-level extensions) builds
on.  The queue counts the events it has processed (``processed``) so the
engine can report scheduler work alongside its fill-round counters.

Cancelled events are not removed eagerly (heap deletion is O(n)); they are
skipped when popped, and the heap is compacted lazily once more than half of
it is dead.  The fluid loop cancels one pending completion per refill, so
the heap stays within a constant factor of the live event count instead of
growing linearly with simulated time.  The queue has no run loop of its
own: :class:`~repro.simulator.engine.FluidRun` steps it with :meth:`peek`
and :meth:`step`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

__all__ = ["Event", "EventQueue"]

# Compact only past this heap size: tiny heaps never pay the sweep and the
# growth bound (2x live events) still holds up to a constant.
_COMPACT_MIN = 64


@dataclass(order=True)
class Event:
    """A scheduled event: a callback firing at a simulated time.

    Tie-break contract (the fault runner depends on it): events with equal
    time fire in **insertion order** — the monotonically increasing
    ``sequence`` assigned at schedule time breaks ties deterministically.
    A driver that schedules fabric-epoch events before any completion
    event is therefore guaranteed the epoch fires first when the two
    collide on the same timestamp.
    """

    time: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    executed: bool = field(default=False, compare=False)
    queue: Optional["EventQueue"] = field(default=None, compare=False,
                                          repr=False)

    def cancel(self) -> bool:
        """Mark the event cancelled so it is skipped when popped.

        Returns True if the cancellation took effect, False if the event
        already ran — cancelling an executed event is a harmless no-op (it
        must not corrupt queue state or un-run the callback), so callers
        holding a stale handle can always call this unconditionally.
        """
        if self.executed:
            return False
        if not self.cancelled:
            self.cancelled = True
            if self.queue is not None:
                self.queue._note_cancel()
        return True


class EventQueue:
    """Priority queue of events keyed by simulated time.

    Equal-time events run in insertion (schedule) order; cancelling an
    already-executed event is a no-op (see :meth:`Event.cancel`).  Dead
    (cancelled) entries are swept lazily once they outnumber the live ones.
    """

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._counter = itertools.count()
        self._dead = 0
        self.now: float = 0.0
        self.processed: int = 0

    def __len__(self) -> int:
        """Current heap size, dead entries included (compaction tests)."""
        return len(self._heap)

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from the current time."""
        if delay < 0:
            raise ValueError("cannot schedule events in the past")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at an absolute simulated time."""
        if time < self.now:
            raise ValueError("cannot schedule events in the past")
        event = Event(time=time, sequence=next(self._counter),
                      callback=callback, queue=self)
        heapq.heappush(self._heap, event)
        return event

    def empty(self) -> bool:
        """True when no (non-cancelled) events remain."""
        return len(self._heap) == self._dead

    def peek(self) -> float:
        """Time of the next live event (``inf`` when none remain)."""
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
            self._dead -= 1
        return heap[0].time if heap else float("inf")

    def _note_cancel(self) -> None:
        self._dead += 1
        if self._dead * 2 > len(self._heap) and len(self._heap) >= _COMPACT_MIN:
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry and re-heapify the survivors."""
        self._heap = [e for e in self._heap if not e.cancelled]
        heapq.heapify(self._heap)
        self._dead = 0

    def step(self) -> bool:
        """Pop and run the next event; returns False when the queue is empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                self._dead -= 1
                continue
            # Mark executed *before* the callback so a handle cancelled from
            # inside the callback (or later) reports the no-op truthfully.
            event.executed = True
            self.now = event.time
            self.processed += 1
            event.callback()
            return True
        return False
