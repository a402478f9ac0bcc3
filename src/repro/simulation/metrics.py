"""Metric collection.

Per-task execution / response / turnaround times (Figs. 4-6, 11, 12, 18,
21) live in the run's columnar store and are summarised by
:class:`TaskMetricsSummary`.  The per-machine :class:`MetricsCollector`
gathers the rest of what the paper's figures need:

* per-core and per-group utilization time series (Figs. 14, 16, 17, 19),
* arbitrary named time series recorded by schedulers, e.g. the adaptive FIFO
  time limit (Figs. 16, 17) and the FIFO group size under rightsizing
  (Fig. 19).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.simulation.columns import TaskColumns
from repro.simulation.cpu import Core
from repro.simulation.task import DATACLASS_KWARGS, Task


@dataclass(frozen=True)
class UtilizationSample:
    """Utilization observed during one sampling window ending at ``time``."""

    time: float
    per_core: Dict[int, float]
    per_group: Dict[str, float]
    group_sizes: Dict[str, int]

    def group(self, name: str) -> float:
        """Average utilization of a group during this window (0 when absent)."""
        return self.per_group.get(name, 0.0)


@dataclass(frozen=True, **DATACLASS_KWARGS)
class SeriesPoint:
    """One point of a scheduler-recorded named time series.

    Slotted: a fleet run keeps tens of thousands of these.
    """

    time: float
    value: float


@dataclass
class TaskMetricsSummary:
    """Aggregate statistics over a set of finished tasks."""

    count: int
    mean_execution: float
    mean_response: float
    mean_turnaround: float
    p50_execution: float
    p50_response: float
    p50_turnaround: float
    p90_execution: float
    p90_response: float
    p90_turnaround: float
    p99_execution: float
    p99_response: float
    p99_turnaround: float
    total_execution: float
    total_service: float
    makespan: float

    @classmethod
    def from_tasks(cls, tasks: Sequence[Task]) -> "TaskMetricsSummary":
        """Summarise a plain task list (packs it into columns first)."""
        return cls.from_columns(TaskColumns.from_tasks(tasks))

    @classmethod
    def from_columns(cls, columns: TaskColumns) -> "TaskMetricsSummary":
        """Summarise a columnar store — the allocation-free fast path.

        Capped stores that keep exact streaming aggregates (reservoir
        sampling) provide ``_exact_summary``; delegating keeps every
        existing call site correct past the row cap without changes.
        """
        exact = getattr(columns, "_exact_summary", None)
        if exact is not None:
            return exact()
        if not len(columns):
            return cls(
                count=0,
                mean_execution=0.0,
                mean_response=0.0,
                mean_turnaround=0.0,
                p50_execution=0.0,
                p50_response=0.0,
                p50_turnaround=0.0,
                p90_execution=0.0,
                p90_response=0.0,
                p90_turnaround=0.0,
                p99_execution=0.0,
                p99_response=0.0,
                p99_turnaround=0.0,
                total_execution=0.0,
                total_service=0.0,
                makespan=0.0,
            )
        execution = columns.execution()
        response = columns.response()
        turnaround = columns.turnaround()
        exec_pcts = np.percentile(execution, (50, 90, 99))
        resp_pcts = np.percentile(response, (50, 90, 99))
        turn_pcts = np.percentile(turnaround, (50, 90, 99))
        return cls(
            count=len(columns),
            mean_execution=float(execution.mean()),
            mean_response=float(response.mean()),
            mean_turnaround=float(turnaround.mean()),
            p50_execution=float(exec_pcts[0]),
            p50_response=float(resp_pcts[0]),
            p50_turnaround=float(turn_pcts[0]),
            p90_execution=float(exec_pcts[1]),
            p90_response=float(resp_pcts[1]),
            p90_turnaround=float(turn_pcts[1]),
            p99_execution=float(exec_pcts[2]),
            p99_response=float(resp_pcts[2]),
            p99_turnaround=float(turn_pcts[2]),
            total_execution=float(execution.sum()),
            total_service=float(columns.column("service").sum()),
            makespan=float(columns.column("completion").max()),
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean_execution": self.mean_execution,
            "mean_response": self.mean_response,
            "mean_turnaround": self.mean_turnaround,
            "p50_execution": self.p50_execution,
            "p50_response": self.p50_response,
            "p50_turnaround": self.p50_turnaround,
            "p90_execution": self.p90_execution,
            "p90_response": self.p90_response,
            "p90_turnaround": self.p90_turnaround,
            "p99_execution": self.p99_execution,
            "p99_response": self.p99_response,
            "p99_turnaround": self.p99_turnaround,
            "total_execution": self.total_execution,
            "total_service": self.total_service,
            "makespan": self.makespan,
        }


def record_series(sink, name: str, time: float, value: float, telemetry=None) -> None:
    """Record one point of a named time series into ``sink``.

    With a telemetry runtime the point flows through its gauge registry (so
    it is counted in the snapshot); either way it lands in ``sink`` under
    the same name.
    """
    if telemetry is not None:
        telemetry.gauges.record(sink, name, time, value)
    else:
        sink.setdefault(name, []).append(SeriesPoint(time=time, value=value))


class MetricsCollector:
    """Utilization windows and named time series of one machine's run.

    Finished tasks are not recorded here: they go into the run's one
    :class:`~repro.simulation.columns.TaskColumns` store.
    """

    def __init__(self) -> None:
        self.utilization_samples: List[UtilizationSample] = []
        self.series: Dict[str, List[SeriesPoint]] = {}
        self._busy_snapshots: Dict[int, float] = {}
        self._last_sample_time: float = 0.0

    # ------------------------------------------------------------ utilization

    def start_utilization_window(self, cores: Iterable[Core], now: float) -> None:
        """Snapshot per-core busy time at the start of a sampling window."""
        self._busy_snapshots = {core.core_id: core.stats.busy_time for core in cores}
        self._last_sample_time = now

    def sample_utilization(
        self, cores: Sequence[Core], now: float, window: Optional[float] = None
    ) -> UtilizationSample:
        """Close the current window at ``now`` and record a utilization sample."""
        effective_window = window if window is not None else now - self._last_sample_time
        if effective_window <= 0:
            effective_window = 1e-9
        per_core: Dict[int, float] = {}
        group_totals: Dict[str, float] = {}
        group_counts: Dict[str, int] = {}
        for core in cores:
            core.sync(now)
            snapshot = self._busy_snapshots.get(core.core_id, core.stats.busy_time)
            utilization = core.utilization_since(snapshot, effective_window)
            per_core[core.core_id] = utilization
            group_totals[core.group] = group_totals.get(core.group, 0.0) + utilization
            group_counts[core.group] = group_counts.get(core.group, 0) + 1
        per_group = {
            name: group_totals[name] / group_counts[name] for name in group_totals
        }
        sample = UtilizationSample(
            time=now,
            per_core=per_core,
            per_group=per_group,
            group_sizes=dict(group_counts),
        )
        self.utilization_samples.append(sample)
        self.start_utilization_window(cores, now)
        return sample
