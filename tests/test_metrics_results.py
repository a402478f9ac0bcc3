"""Unit tests for metric collection and the result container."""

import pytest

from repro.schedulers.fifo import FIFOScheduler
from repro.simulation.config import SimulationConfig
from repro.simulation.cpu import Core
from repro.simulation.engine import simulate
from repro.simulation.metrics import (
    MetricsCollector,
    TaskMetricsSummary,
    record_series,
)
from tests.conftest import make_task, make_tasks


def finished_task(task_id=0, arrival=0.0, start=1.0, end=2.0):
    task = make_task(task_id=task_id, arrival=arrival, service=end - start)
    task.mark_running(start, core_id=0)
    task.account_service(end - start)
    task.mark_finished(end)
    return task


class TestSummary:
    def test_empty_summary_is_all_zero(self):
        summary = TaskMetricsSummary.from_tasks([])
        assert summary.count == 0
        assert summary.p99_execution == 0.0

    def test_summary_values(self):
        tasks = [finished_task(i, arrival=0.0, start=i, end=i + 1.0) for i in range(4)]
        summary = TaskMetricsSummary.from_tasks(tasks)
        assert summary.count == 4
        assert summary.mean_execution == pytest.approx(1.0)
        assert summary.mean_response == pytest.approx(1.5)
        assert summary.makespan == pytest.approx(4.0)
        assert summary.total_execution == pytest.approx(4.0)

    def test_as_dict_round_trip(self):
        summary = TaskMetricsSummary.from_tasks([finished_task()])
        data = summary.as_dict()
        assert data["count"] == 1
        assert set(data) >= {"p99_execution", "p99_response", "p99_turnaround"}


class TestCollector:
    def test_series_recording(self):
        collector = MetricsCollector()
        record_series(collector.series, "limit", 1.0, 0.5)
        record_series(collector.series, "limit", 2.0, 0.7)
        points = collector.series["limit"]
        assert [(p.time, p.value) for p in points] == [(1.0, 0.5), (2.0, 0.7)]
        assert list(collector.series) == ["limit"]

    def test_utilization_sampling(self):
        collector = MetricsCollector()
        core = Core(core_id=0, group="all")
        core.add_task(make_task(service=1.0), 0.0)
        collector.start_utilization_window([core], 0.0)
        sample = collector.sample_utilization([core], 1.0, window=1.0)
        assert sample.per_core[0] == pytest.approx(1.0)
        assert sample.per_group["all"] == pytest.approx(1.0)
        assert sample.group_sizes == {"all": 1}


class TestSimulationResult:
    def test_result_accessors(self):
        result = simulate(
            FIFOScheduler(),
            make_tasks([(0.0, 1.0), (0.0, 2.0), (0.0, 3.0)]),
            config=SimulationConfig(num_cores=1),
        )
        assert result.completion_ratio == 1.0
        assert len(result.execution_times()) == 3
        assert result.total_preemptions() == 0
        assert set(result.preemptions_per_core()) == {0}
        assert result.cores_in_group("all") == [0]
        assert "fifo" in result.describe()

    def test_unfinished_tasks_listed(self):
        result = simulate(
            FIFOScheduler(),
            make_tasks([(0.0, 5.0), (0.0, 5.0)]),
            config=SimulationConfig(num_cores=1, max_simulated_time=6.0),
        )
        assert len(result.finished_tasks) == 1
        assert len(result.unfinished_tasks) == 1
        assert 0.0 < result.completion_ratio < 1.0
