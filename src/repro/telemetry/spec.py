"""Declarative telemetry configuration.

:class:`TelemetrySpec` is the one knob a run exposes: a frozen value object
carried by :class:`~repro.scenario.scenario.Scenario` (round-tripping
through its JSON form) or passed directly to
:func:`~repro.simulation.engine.simulate` /
:func:`~repro.cluster.simulator.simulate_cluster`.  ``build()`` turns the
spec into the live :class:`~repro.telemetry.runtime.Telemetry` runtime a
run's telemetry probe records into; ``None`` (no spec) subscribes nothing
to the run's hook bus, so the run is bit-identical to one without
telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.spec import Spec, validate

#: Default cap on stored trace events (spans + instants).  Million-invocation
#: runs emit a handful of events per task; the cap bounds memory and the
#: ``dropped`` counter reports honestly when it bites.
DEFAULT_MAX_EVENTS = 1_000_000

#: Gauge-sampling interval used when only progress reporting was requested.
_PROGRESS_DRIVE_INTERVAL = 1.0


@dataclass(frozen=True)
class TelemetrySpec(Spec):
    """Tuning knobs of the telemetry subsystem.

    Attributes:
        trace: Record span-style task lifecycle events (queue wait, run
            slices, wire time) and instants (node lifecycle, autoscaler
            decisions).
        sample_interval: Simulated seconds between two gauge samples;
            ``None`` disables periodic sampling (ad-hoc ``record_series``
            points still flow through the gauge registry).
        progress: Print a terminal progress line while the run advances and
            a one-line summary at the end (long-run ergonomics).  Progress
            is driven by the gauge sampler; with ``sample_interval`` unset
            a 1-second drive interval is used.
        progress_interval: Minimum *wall-clock* seconds between two progress
            lines (sampling can tick far faster than a terminal should).
        max_events: Cap on stored trace events; ``None`` is unbounded.
            Events beyond the cap are dropped and counted.
    """

    trace: bool = True
    sample_interval: Optional[float] = None
    progress: bool = False
    progress_interval: float = 5.0
    max_events: Optional[int] = DEFAULT_MAX_EVENTS

    def __post_init__(self) -> None:
        # Reject wrong types by name: a truthy string like "false" must not
        # quietly switch tracing on, nor a bool pass for a number.
        validate(self)
        if self.sample_interval is not None and self.sample_interval <= 0:
            raise ValueError(
                f"sample_interval must be positive when set, got "
                f"{self.sample_interval!r}"
            )
        if self.progress_interval < 0:
            raise ValueError(
                f"progress_interval must be >= 0, got {self.progress_interval!r}"
            )
        if self.max_events is not None and self.max_events <= 0:
            raise ValueError(
                f"max_events must be positive when set, got {self.max_events!r}"
            )

    @property
    def drive_interval(self) -> Optional[float]:
        """Sim-time interval the sampler timer actually runs at.

        ``sample_interval`` when set; otherwise a default drive interval if
        progress reporting needs a heartbeat; otherwise ``None`` (no timer).
        """
        if self.sample_interval is not None:
            return self.sample_interval
        if self.progress:
            return _PROGRESS_DRIVE_INTERVAL
        return None

    def build(self) -> "Telemetry":
        """Instantiate the live telemetry runtime this spec describes."""
        from repro.telemetry.runtime import Telemetry

        return Telemetry(self)
