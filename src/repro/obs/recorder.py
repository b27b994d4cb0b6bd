"""The flight recorder: a bounded ring buffer of the last N events.

Full tracing of a long run is expensive and often unnecessary — what the
operator wants after a crash or degradation incident is *the last few
thousand events before it happened*.  The flight recorder keeps exactly the
configured number of most-recent events under sustained load, overwriting
the oldest, so post-mortem analysis is always possible at O(N) memory no
matter how long the run was.

Wire it through a tracer in flight-only mode::

    flight = FlightRecorder(capacity=4096)
    tracer = Tracer(recorder=flight, keep_events=False)

and dump after the incident with :meth:`FlightRecorder.dump` (dicts) or
:meth:`FlightRecorder.write` (JSONL file).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from .trace import TraceEvent

__all__ = ["FlightRecorder"]

#: Default ring capacity.
DEFAULT_CAPACITY = 4096


class FlightRecorder:
    """A fixed-capacity ring buffer of :class:`TraceEvent` objects."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._ring: Deque[TraceEvent] = deque(maxlen=capacity)
        #: Total events ever recorded (including overwritten ones).
        self.total_recorded = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def overwritten(self) -> int:
        """Events that fell off the head of the ring."""
        return self.total_recorded - len(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def record(self, event: TraceEvent) -> None:
        # Tracer emission inlines these two lines; keep them in step.
        self._ring.append(event)
        self.total_recorded += 1

    def snapshot(self) -> List[TraceEvent]:
        """The retained events, oldest first."""
        return list(self._ring)

    def dump(self) -> List[Dict]:
        """The retained events as plain dicts (JSON-ready), oldest first."""
        from .export import event_to_dict
        return [event_to_dict(event) for event in self._ring]

    def write(self, path: str) -> int:
        """Write the retained events as JSONL; returns the event count."""
        from .export import write_jsonl
        return write_jsonl(self.snapshot(), path)

    def clear(self) -> None:
        self._ring.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FlightRecorder {len(self._ring)}/{self._capacity} "
                f"total={self.total_recorded}>")
