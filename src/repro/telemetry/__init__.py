"""Telemetry: task-lifecycle span tracing, sim-time gauges and trace export.

The simulator answers *how much* a scheduling policy costs (percentiles,
node-hours); this package answers *why*: where each invocation spent its
latency (wire time vs queue wait vs preempted run slices) and how fleet
signals (queue depths, busy cores, the autoscaler's load signal) evolved
over simulated time.

Three pieces, all behind one declarative :class:`TelemetrySpec` that rides
on a :class:`~repro.scenario.scenario.Scenario` and round-trips through
JSON:

* :class:`Tracer` — span-style task lifecycle events (arrival → dispatch →
  wire → queue wait → run slices with preemptions → completion) plus
  instants for node lifecycle and autoscaler decisions;
* :class:`GaugeRegistry` / :class:`GaugeSampler` — named gauges sampled on
  a configurable sim-time interval through the engine's tagged-event timer
  path, landing as ordinary result series;
* :class:`CounterRegistry` — monotonic named counters (steals planned,
  scale decisions).

All three are written by one subscriber,
:class:`~repro.telemetry.probe.TelemetryProbe`, which turns the lifecycle
hooks every simulator fires on its event loop's hook bus
(:mod:`repro.simulation.hooks`) into spans, instants, counters and gauges.
With telemetry disabled (the default) nothing subscribes: every hook tuple
is empty, no extra events enter the queue, and runs are bit-identical to
the pre-telemetry engine.

Exporters turn a finished run into a Chrome trace-event JSON file (opens
directly in Perfetto / ``chrome://tracing``, one track per node and core),
a columnar timeline table alongside
:class:`~repro.simulation.columns.TaskColumns`, or a terminal progress
report for long runs.
"""

from repro.telemetry.export import (
    chrome_trace,
    timeline_table,
    write_chrome_trace,
    write_timeline_csv,
)
from repro.telemetry.gauges import (
    SAMPLER_TAG,
    CounterRegistry,
    GaugeRegistry,
    GaugeSampler,
)
from repro.telemetry.progress import ProgressReporter
from repro.telemetry.runtime import Telemetry, TelemetrySnapshot
from repro.telemetry.spec import TelemetrySpec
from repro.telemetry.tracer import Tracer

__all__ = [
    "chrome_trace",
    "timeline_table",
    "write_chrome_trace",
    "write_timeline_csv",
    "SAMPLER_TAG",
    "CounterRegistry",
    "GaugeRegistry",
    "GaugeSampler",
    "ProgressReporter",
    "Telemetry",
    "TelemetrySnapshot",
    "TelemetrySpec",
    "Tracer",
]
