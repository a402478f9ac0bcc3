"""Simulation result container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.simulation.columns import TaskColumns
from repro.simulation.config import SimulationConfig
from repro.simulation.cpu import CoreStats
from repro.simulation.metrics import (
    MetricsCollector,
    SeriesPoint,
    TaskMetricsSummary,
    UtilizationSample,
)
from repro.simulation.task import Task
from repro.telemetry.runtime import TelemetrySnapshot


@dataclass
class SimulationResult:
    """Everything produced by one simulation run.

    Results are value objects: they contain plain data (tasks, stats,
    time series) and derived metric helpers, but no reference to the engine,
    so they can be pickled, compared and aggregated freely by the experiment
    harness.
    """

    scheduler_name: str
    config: SimulationConfig
    tasks: List[Task]
    core_stats: Dict[int, CoreStats]
    core_groups: Dict[int, str]
    utilization_samples: List[UtilizationSample] = field(default_factory=list)
    series: Dict[str, List[SeriesPoint]] = field(default_factory=dict)
    simulated_time: float = 0.0
    wall_clock_seconds: float = 0.0
    events_processed: int = 0
    #: Columnar store of the finished tasks, filled incrementally by the
    #: collector during the run; built lazily for hand-assembled results.
    columns: Optional[TaskColumns] = None
    #: Frozen telemetry of the run (``None`` unless telemetry was enabled).
    telemetry: Optional[TelemetrySnapshot] = None
    #: Arrivals the run took in (a run cut off by a time limit counts only
    #: those that arrived before the cut).  Count-based accessors read this
    #: — streaming runs leave ``tasks`` empty — and ``None`` means "not
    #: recorded — use len(tasks)".
    tasks_submitted: Optional[int] = None

    # ---------------------------------------------------------------- columns

    def task_columns(self) -> TaskColumns:
        """The columnar finished-task store backing every metric accessor."""
        if self.columns is None:
            self.columns = TaskColumns.from_tasks(self.tasks)
        return self.columns

    # ------------------------------------------------------------------ tasks

    @property
    def finished_tasks(self) -> List[Task]:
        return [t for t in self.tasks if t.is_finished]

    @property
    def unfinished_tasks(self) -> List[Task]:
        return [t for t in self.tasks if not t.is_finished]

    @property
    def total_tasks(self) -> int:
        """Tasks the run took in (works for streaming runs with no task list)."""
        return len(self.tasks) if self.tasks_submitted is None else self.tasks_submitted

    @property
    def finished_count(self) -> int:
        """Finished-task count (columnar on streaming runs)."""
        if self.tasks:
            return len(self.finished_tasks)
        return len(self.task_columns())

    @property
    def completion_ratio(self) -> float:
        total = self.total_tasks
        if not total:
            return 0.0
        return self.finished_count / total

    def execution_times(self) -> np.ndarray:
        return self.task_columns().execution()

    def response_times(self) -> np.ndarray:
        return self.task_columns().response()

    def turnaround_times(self) -> np.ndarray:
        return self.task_columns().turnaround()

    def summary(self) -> TaskMetricsSummary:
        return TaskMetricsSummary.from_columns(self.task_columns())

    # ------------------------------------------------------------------ cores

    def preemptions_per_core(self) -> Dict[int, float]:
        """Explicit plus estimated slice preemptions, per core (Fig. 13)."""
        return {cid: stats.total_preemptions for cid, stats in self.core_stats.items()}

    def total_preemptions(self) -> float:
        return sum(stats.total_preemptions for stats in self.core_stats.values())

    def cores_in_group(self, group: str) -> List[int]:
        """Core ids that ended the run in the given group."""
        return sorted(cid for cid, name in self.core_groups.items() if name == group)

    # ------------------------------------------------------------- timeseries

    def utilization_series(self, group: str) -> List[SeriesPoint]:
        return [
            SeriesPoint(time=s.time, value=s.group(group))
            for s in self.utilization_samples
        ]

    def series_values(self, name: str) -> List[SeriesPoint]:
        return list(self.series.get(name, []))

    # ------------------------------------------------------------------ misc

    def describe(self) -> str:
        """Short human-readable summary used by examples and the runner."""
        summary = self.summary()
        lines = [
            f"scheduler            : {self.scheduler_name}",
            f"cores                : {self.config.num_cores}",
            f"tasks (finished/all) : {self.finished_count}/{self.total_tasks}",
            f"simulated time       : {self.simulated_time:.2f} s",
            f"mean execution time  : {summary.mean_execution:.4f} s",
            f"p99 execution time   : {summary.p99_execution:.4f} s",
            f"mean response time   : {summary.mean_response:.4f} s",
            f"p99 response time    : {summary.p99_response:.4f} s",
            f"p99 turnaround time  : {summary.p99_turnaround:.4f} s",
            f"total preemptions    : {self.total_preemptions():.0f}",
        ]
        if self.telemetry is not None:
            lines.append(f"telemetry            : {self.telemetry.summary_line()}")
        return "\n".join(lines)


def build_result(
    scheduler_name: str,
    config: SimulationConfig,
    tasks: Sequence[Task],
    cores,
    collector: MetricsCollector,
    simulated_time: float,
    wall_clock_seconds: float,
    events_processed: int,
    telemetry: Optional[TelemetrySnapshot] = None,
    tasks_submitted: Optional[int] = None,
) -> SimulationResult:
    """Assemble a :class:`SimulationResult` from live simulator state."""
    return SimulationResult(
        scheduler_name=scheduler_name,
        config=config,
        tasks=list(tasks),
        core_stats={core.core_id: core.stats for core in cores},
        core_groups={core.core_id: core.group for core in cores},
        utilization_samples=list(collector.utilization_samples),
        series={name: list(points) for name, points in collector.series.items()},
        simulated_time=simulated_time,
        wall_clock_seconds=wall_clock_seconds,
        events_processed=events_processed,
        columns=collector.columns,
        telemetry=telemetry,
        tasks_submitted=len(tasks) if tasks_submitted is None else tasks_submitted,
    )
