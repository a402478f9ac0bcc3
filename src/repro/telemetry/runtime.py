"""The live telemetry runtime and its end-of-run snapshot.

One :class:`Telemetry` instance serves one run: the run's event loop holds
it, a :class:`~repro.telemetry.probe.TelemetryProbe` subscribed to the
loop's lifecycle-hook bus records into it (with telemetry off nothing
subscribes, so every hook tuple is empty and the run is unchanged), and the
loop calls :meth:`Telemetry.finish` + :meth:`Telemetry.snapshot` when the
clock stops.
The snapshot is a value object carried on results — exporters and
``describe()`` read it, never the live runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.telemetry.gauges import CounterRegistry, GaugeRegistry, GaugeSampler
from repro.telemetry.probe import TelemetryProbe
from repro.telemetry.progress import ProgressReporter
from repro.telemetry.spec import TelemetrySpec
from repro.telemetry.tracer import Tracer


@dataclass
class TelemetrySnapshot:
    """Frozen telemetry of one finished run (a value object on results)."""

    spec: TelemetrySpec
    spans: List[Tuple[str, int, int, float, float, int]] = field(default_factory=list)
    instants: List[Tuple[str, int, int, float, int, float]] = field(default_factory=list)
    process_names: Dict[int, str] = field(default_factory=dict)
    track_names: Dict[Tuple[int, int], str] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    #: Points recorded by periodic gauge sampling.
    samples: int = 0
    #: Points recorded ad hoc (the ``record_series`` shim).
    points: int = 0
    #: Trace events dropped by the ``max_events`` cap.
    dropped: int = 0

    @property
    def span_count(self) -> int:
        return len(self.spans)

    @property
    def instant_count(self) -> int:
        return len(self.instants)

    def summary_line(self) -> str:
        """One-line summary for ``describe()`` outputs."""
        line = (
            f"{self.span_count} spans, {self.instant_count} instants, "
            f"{self.samples} gauge samples"
        )
        if self.dropped:
            line += f" ({self.dropped} events dropped)"
        return line


class Telemetry:
    """Tracer + gauges + counters + progress, bound to one run."""

    def __init__(self, spec: Optional[TelemetrySpec] = None) -> None:
        self.spec = spec or TelemetrySpec()
        self.tracer: Optional[Tracer] = (
            Tracer(max_events=self.spec.max_events) if self.spec.trace else None
        )
        self.gauges = GaugeRegistry()
        self.counters = CounterRegistry()
        interval = self.spec.drive_interval
        self.sampler: Optional[GaugeSampler] = (
            GaugeSampler(self, interval) if interval is not None else None
        )
        self.progress: Optional[ProgressReporter] = (
            ProgressReporter(self.spec.progress_interval) if self.spec.progress else None
        )
        self._progress_total: Optional[int] = 0
        self._progress_done: Optional[Callable[[], int]] = None
        self._finished = False

    # ----------------------------------------------------------------- wiring

    def bind_progress(self, total: Optional[int], done: Callable[[], int]) -> None:
        """Give the progress reporter its completion counters.

        ``total=None`` marks a streaming run with no known task count; the
        reporter then prints completions and throughput instead of percent.
        """
        self._progress_total = total
        self._progress_done = done

    def attach(self, cluster) -> None:
        """Wire onto a fleet: a probe subscribes to the cluster's hooks."""
        TelemetryProbe(self).attach_cluster(cluster)

    def start(self, events, clock, can_continue: Callable[[], bool]) -> None:
        """Arm the gauge sampler on the run's event queue (if configured)."""
        if self.sampler is not None:
            self.sampler.start(events, clock, can_continue)

    def on_sample(self, now: float) -> None:
        """One sampler tick: sample every gauge, maybe print progress."""
        self.gauges.sample_all(now)
        if self.progress is not None and self._progress_done is not None:
            self.progress.report(now, self._progress_done(), self._progress_total)

    # ----------------------------------------------------------------- finish

    def finish(self, now: float) -> None:
        """End-of-run drain: final sample, close open spans, summary line."""
        if self._finished:
            return
        self._finished = True
        if self.sampler is not None:
            self.sampler.stop()
            # Final sample so short runs still get at least one point,
            # mirroring the utilization sampler's end-of-run behaviour.
            self.gauges.sample_all(now)
        if self.tracer is not None:
            self.tracer.finish(now)
        if self.progress is not None and self._progress_done is not None:
            self.progress.close(now, self._progress_done(), self._progress_total)

    def snapshot(self) -> TelemetrySnapshot:
        """Freeze this run's telemetry into a result-carried value object."""
        tracer = self.tracer
        return TelemetrySnapshot(
            spec=self.spec,
            spans=list(tracer.spans) if tracer is not None else [],
            instants=list(tracer.instants) if tracer is not None else [],
            process_names=dict(tracer.process_names) if tracer is not None else {},
            track_names=dict(tracer.track_names) if tracer is not None else {},
            counters=self.counters.as_dict(),
            samples=self.gauges.samples_recorded,
            points=self.gauges.points_recorded,
            dropped=tracer.dropped if tracer is not None else 0,
        )


def as_telemetry(telemetry) -> Optional[Telemetry]:
    """Normalise a ``TelemetrySpec | Telemetry | None`` engine argument."""
    if telemetry is None:
        return None
    if isinstance(telemetry, TelemetrySpec):
        return telemetry.build()
    return telemetry
