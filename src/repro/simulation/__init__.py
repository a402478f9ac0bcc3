"""Discrete-event multicore OS-scheduling simulation substrate.

This package provides the machinery every scheduling experiment in the
reproduction is built on:

* a virtual-time event engine (:mod:`repro.simulation.engine`),
* a task model carrying the paper's three metrics — execution, response and
  turnaround time (:mod:`repro.simulation.task`),
* cores implementing weighted processor sharing so that both run-to-completion
  policies (FIFO) and time-slicing policies (CFS) are expressed with the same
  primitive (:mod:`repro.simulation.cpu`),
* a machine with named core groups supporting dynamic core migration
  (:mod:`repro.simulation.machine`),
* a context-switch cost model (:mod:`repro.simulation.context_switch`),
* metric collection: per-task timings, per-core preemption counts and
  utilization time series (:mod:`repro.simulation.metrics`).

The simulator trades the paper's physical 50-core Xeon testbed for a
deterministic discrete-event model; see ``DESIGN.md`` for the substitution
rationale.
"""

from repro.simulation.clock import VirtualClock
from repro.simulation.config import SimulationConfig
from repro.simulation.context_switch import ContextSwitchModel
from repro.simulation.cpu import Core, CoreMode
from repro.simulation.engine import Simulator
from repro.simulation.events import Event, EventQueue
from repro.simulation.machine import CoreGroup, Machine
from repro.simulation.metrics import MetricsCollector, TaskMetricsSummary, UtilizationSample
from repro.simulation.results import SimulationResult
from repro.simulation.task import Task, TaskState

__all__ = [
    "VirtualClock",
    "SimulationConfig",
    "ContextSwitchModel",
    "Core",
    "CoreMode",
    "Simulator",
    "Event",
    "EventQueue",
    "CoreGroup",
    "Machine",
    "MetricsCollector",
    "TaskMetricsSummary",
    "UtilizationSample",
    "SimulationResult",
    "Task",
    "TaskState",
]
