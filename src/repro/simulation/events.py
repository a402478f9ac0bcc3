"""Event queue for the discrete-event engine.

Events are ordered by ``(time, priority, sequence)``.  The sequence number
guarantees a deterministic FIFO order for events scheduled at the same time
with the same priority, which keeps simulation runs fully reproducible.
Each heap entry is the flat tuple ``(time, priority, seq, event)``: the
sequence number is unique, so tuple comparison never reaches the event.

:meth:`EventQueue.push` returns the :class:`Event` itself, which is its own
cancel handle.  Cancellation is *lazy*: a cancelled event stays in the heap
but is skipped when popped.  This keeps cancellation O(1), which matters
because timer-heavy policies (FIFO with a preemption limit sets one timer
per task) cancel the vast majority of their timers.  A live-event counter
maintained on push/pop/cancel/clear makes ``len(queue)`` O(1) despite the
lazy tombstones, and the heap is compacted once tombstones outnumber live
events.

The hottest push site (core completions) schedules *payload-carrying*
events with no callback: the run loop dispatches them by ``tag``, which
avoids allocating one closure per push.  Arrivals are not heap events: the
run loop keeps them on a sorted cursor and drains with one
:meth:`EventQueue.pop` call per event or arrival, passing its time limit and
the next arrival's time.
"""

from __future__ import annotations

import heapq
import math
from enum import IntEnum
from typing import Any, Callable, Optional

#: Compaction threshold: heaps smaller than this are never compacted, so
#: short runs keep the pure lazy-cancellation fast path.
_COMPACT_MIN_HEAP = 64


class EventPriority(IntEnum):
    """Tie-breaking priority for events scheduled at the same instant.

    Completions are processed before arrivals at the same timestamp so a core
    freed at time *t* can immediately pick up a task arriving at *t*; timers
    run last so preemption-limit checks observe completions that happened at
    the same instant.
    """

    COMPLETION = 0
    ARRIVAL = 1
    CONTROL = 2
    TIMER = 3


class Event:
    """A scheduled callback, or a tagged payload dispatched by the run loop
    when ``callback`` is None.  :meth:`EventQueue.push` returns the event,
    which is its own cancel handle."""

    __slots__ = (
        "time", "priority", "seq", "callback", "tag", "payload", "cancelled", "_queue"
    )

    def __init__(self, time, priority, seq, callback, tag, payload, queue) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.tag = tag
        self.payload = payload
        self.cancelled = False
        #: The queue holding the event; None once it has been popped (fired).
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event cancelled (idempotent).

        Cancelling an event that already fired is a no-op — it must not
        disturb the queue's live-event count.
        """
        queue = self._queue
        if self.cancelled or queue is None:
            return
        self.cancelled = True
        live = queue._live = queue._live - 1
        heap_len = len(queue._heap)
        if heap_len >= _COMPACT_MIN_HEAP and heap_len - live > live:
            queue._compact()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self._queue is not None else "fired"
        state = "cancelled" if self.cancelled else state
        return f"Event(t={self.time:.6f}, tag={self.tag!r}, {state})"


class EventQueue:
    """Binary-heap event queue with lazy cancellation and an O(1) length."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._live = 0
        #: How many times the heap was rebuilt to drop cancelled tombstones
        #: (once they outnumber live events: timer-heavy schedulers, chaos
        #: arms, timeout retries), so it tracks the live horizon instead of
        #: the cancellation history.
        self.compactions = 0

    def __len__(self) -> int:
        return self._live

    def push(
        self,
        time: float,
        callback: Optional[Callable[[], None]],
        priority: EventPriority = EventPriority.CONTROL,
        tag: str = "",
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback`` at absolute simulation ``time``.

        ``callback`` may be None for payload-carrying events that the run
        loop dispatches by ``tag`` (the closure-free hot path).  Returns the
        event, whose :meth:`Event.cancel` withdraws it.
        """
        if time < 0:
            raise ValueError(f"cannot schedule an event at negative time {time!r}")
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, callback, tag, payload, self)
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def pop(
        self, limit: Optional[float] = None, arrival: float = math.inf
    ) -> Optional[Event]:
        """Pop the earliest live event; None when there is none, or when the
        earliest is later than ``limit`` (it stays queued).

        ``arrival`` is the time of the run loop's next arrival, which sorts
        after a completion at the same instant and before every other event
        there: None too when that arrival goes first.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[3]
            if event.cancelled:
                heapq.heappop(heap)
                continue
            time = entry[0]
            if limit is not None and time > limit:
                return None
            if time > arrival or (
                time == arrival and entry[1] != EventPriority.COMPLETION
            ):
                return None
            heapq.heappop(heap)
            event._queue = None
            self._live -= 1
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the next live event without popping it."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3].cancelled:
                heapq.heappop(heap)
                continue
            return entry[0]
        return None

    def cancel_pending(self, tag: str) -> int:
        """Cancel every pending event with the given tag; returns the count."""
        cancelled = 0
        for entry in self._heap:
            event = entry[3]
            if not event.cancelled and event.tag == tag:
                event.cancelled = True
                cancelled += 1
        live = self._live = self._live - cancelled
        heap_len = len(self._heap)
        if heap_len >= _COMPACT_MIN_HEAP and heap_len - live > live:
            self._compact()
        return cancelled

    def _compact(self) -> None:
        """Rebuild the heap without cancelled tombstones.

        ``heapify`` over the surviving entries preserves the exact pop order
        (keys are unique), so compaction is invisible to the simulation.
        """
        self._heap = [entry for entry in self._heap if not entry[3].cancelled]
        heapq.heapify(self._heap)
        self.compactions += 1

    def clear(self) -> None:
        """Drop all pending events.

        Cleared events are marked cancelled so outstanding handles no-op
        instead of corrupting the live-event counter.
        """
        for entry in self._heap:
            entry[3].cancelled = True
        self._heap.clear()
        self._live = 0

    def drain_times(self) -> list[float]:
        """Return the sorted timestamps of all live events (testing helper)."""
        return sorted(entry[0] for entry in self._heap if not entry[3].cancelled)
