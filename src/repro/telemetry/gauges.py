"""Gauges, counters and the sim-time gauge sampler.

A **gauge** is a named callable returning the current value of some fleet
signal (a node's queue depth, its busy-core count, the autoscaler's load
signal).  Registered gauges are sampled on a fixed simulated-time interval
by the :class:`GaugeSampler`, whose timer rides the engines' *tagged
payload-event* path (one callback-free event per tick, dispatched by tag —
the same mechanism arrivals and completions use), so sampling is cancellable
via :meth:`~repro.simulation.events.EventQueue.cancel_pending` and costs no
closure allocations.

Sampled points land as ordinary :class:`~repro.simulation.metrics.
SeriesPoint` entries in a *sink* dict — the same ``collector.series`` /
``cluster.series`` stores the ad-hoc ``record_series`` API always filled —
so every existing series consumer (results, experiments, plots) reads gauge
timelines with no new API.  ``record`` is that ad-hoc path:
:func:`repro.simulation.metrics.record_series`, behind every
``record_series`` method, delegates here when telemetry is on, which is how
legacy series like ``autoscaler.load`` keep their names while being counted
as telemetry.

A **counter** is a monotonic named total (steals planned, scale-ups);
cheap enough for control-path call sites, summarised in the snapshot.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.simulation.metrics import SeriesPoint

#: Event-queue tag of the sampler's timer events.  The event loop's tagged
#: dispatcher, ``EventLoop._dispatch_tagged``, routes this tag to
#: ``event.payload.on_tick()`` (the payload is the sampler itself).
SAMPLER_TAG = "telemetry-sample"

#: A sink: series name -> list of SeriesPoint (a collector/cluster store).
Sink = Dict[str, List[SeriesPoint]]


class GaugeRegistry:
    """Named gauges plus the ad-hoc recorded-series entry point."""

    __slots__ = ("_gauges", "samples_recorded", "points_recorded")

    def __init__(self) -> None:
        # name -> (callable, sink); insertion-ordered, so sampling order is
        # deterministic (registration order).
        self._gauges: Dict[str, Tuple[Callable[[], float], Sink]] = {}
        #: Points recorded by periodic sampling.
        self.samples_recorded = 0
        #: Points recorded ad hoc through ``record`` (the record_series shim).
        self.points_recorded = 0

    def register(self, name: str, fn: Callable[[], float], sink: Sink) -> None:
        """Register one gauge; re-registering a name replaces it."""
        self._gauges[name] = (fn, sink)

    def unregister(self, name: str) -> None:
        """Remove one gauge (no-op if absent) — e.g. when a node retires."""
        self._gauges.pop(name, None)

    def registered(self) -> List[str]:
        return list(self._gauges)

    def record(self, sink: Sink, name: str, time: float, value: float) -> None:
        """Record one ad-hoc point of a named series into ``sink``."""
        sink.setdefault(name, []).append(SeriesPoint(time=time, value=float(value)))
        self.points_recorded += 1

    def sample_all(self, now: float) -> None:
        """Sample every registered gauge at simulated time ``now``."""
        for name, (fn, sink) in self._gauges.items():
            sink.setdefault(name, []).append(
                SeriesPoint(time=now, value=float(fn()))
            )
            self.samples_recorded += 1


class CounterRegistry:
    """Monotonic named counters."""

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[str, float] = {}

    def inc(self, name: str, delta: float = 1.0) -> None:
        self._counts[name] = self._counts.get(name, 0.0) + delta

    def get(self, name: str) -> float:
        return self._counts.get(name, 0.0)

    def as_dict(self) -> Dict[str, float]:
        return dict(self._counts)


class GaugeSampler:
    """Periodic sim-time sampling driven by a tagged payload event.

    The sampler arms one callback-free event per tick (tag
    :data:`SAMPLER_TAG`, payload = the sampler); the engine's tag dispatcher
    calls :meth:`on_tick`, which samples and re-arms while the run can still
    make progress.  ``stop`` cancels the armed event, so an end-of-run drain
    never fires a stale sample.
    """

    __slots__ = ("interval", "_telemetry", "_events", "_clock", "_can_continue",
                 "_handle", "ticks")

    def __init__(self, telemetry, interval: float) -> None:
        if interval <= 0:
            raise ValueError(f"sample interval must be positive, got {interval!r}")
        self.interval = interval
        self._telemetry = telemetry
        self._events = None
        self._clock = None
        self._can_continue: Optional[Callable[[], bool]] = None
        self._handle = None
        #: Ticks fired (for tests and the snapshot summary).
        self.ticks = 0

    @property
    def armed(self) -> bool:
        return self._handle is not None and not self._handle.cancelled

    def start(self, events, clock, can_continue: Callable[[], bool]) -> None:
        """Begin sampling on ``events``/``clock``; idempotent re-registration."""
        self.stop()
        self._events = events
        self._clock = clock
        self._can_continue = can_continue
        self._arm()

    def _arm(self) -> None:
        from repro.simulation.events import EventPriority

        self._handle = self._events.push(
            self._clock.now + self.interval,
            None,
            priority=EventPriority.CONTROL,
            tag=SAMPLER_TAG,
            payload=self,
        )

    def on_tick(self) -> None:
        """One sampling tick (called by the engines' tag dispatchers)."""
        self._handle = None
        self.ticks += 1
        self._telemetry.on_sample(self._clock.now)
        if self._can_continue is not None and self._can_continue():
            self._arm()

    def stop(self) -> None:
        """Cancel the armed tick, if any (idempotent)."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
