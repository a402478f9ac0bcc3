"""Unit tests for the columnar task-metrics store."""

import numpy as np
import pytest

from repro.schedulers.fifo import FIFOScheduler
from repro.simulation.columns import (
    _FLUSH_ROWS,
    NO_CORE,
    NO_NODE,
    TASK_COLUMNS_DTYPE,
    ReservoirTaskColumns,
    TaskColumns,
)
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import simulate
from repro.simulation.metrics import TaskMetricsSummary
from tests.conftest import make_task, make_tasks


def finished_task(task_id=0, arrival=0.0, start=1.0, end=2.0, core_id=0):
    task = make_task(task_id=task_id, arrival=arrival, service=end - start)
    task.mark_running(start, core_id=core_id)
    task.account_service(end - start)
    task.mark_finished(end)
    return task


class TestStore:
    def test_empty_store(self):
        columns = TaskColumns()
        assert len(columns) == 0
        assert not columns
        assert columns.execution().size == 0
        assert columns.summary().count == 0

    def test_append_records_task_facts(self):
        columns = TaskColumns()
        columns.append(finished_task(task_id=7, arrival=1.0, start=2.0, end=5.0, core_id=3))
        assert len(columns) == 1
        row = columns.data[0]
        assert row["task_id"] == 7
        assert row["arrival"] == 1.0
        assert row["first_run"] == 2.0
        assert row["completion"] == 5.0
        assert row["last_core"] == 3
        assert columns.execution()[0] == pytest.approx(3.0)
        assert columns.response()[0] == pytest.approx(1.0)
        assert columns.turnaround()[0] == pytest.approx(4.0)

    def test_append_records_node_id(self):
        columns = TaskColumns()
        columns.append(finished_task(task_id=0))
        columns.append(finished_task(task_id=1), 4)
        assert list(columns.column("node_id")) == [NO_NODE, 4]

    def test_from_rows_keeps_rows_and_dtype(self):
        source = TaskColumns()
        for i in range(5):
            source.append(finished_task(task_id=i), i % 2)
        rows = source.data[source.data["node_id"] == 1]
        view = TaskColumns.from_rows(rows)
        assert len(view) == 2
        assert list(view.column("task_id")) == [1, 3]
        view.append(finished_task(task_id=9), 1)
        assert list(view.column("task_id")) == [1, 3, 9]
        assert len(source) == 5

    def test_append_rejects_unfinished(self):
        with pytest.raises(ValueError):
            TaskColumns().append(make_task())

    def test_append_after_read_flushes_incrementally(self):
        columns = TaskColumns()
        columns.append(finished_task(task_id=0))
        assert len(columns.data) == 1
        columns.append(finished_task(task_id=1, start=2.0, end=3.0))
        assert len(columns) == 2
        assert list(columns.column("task_id")) == [0, 1]

    def test_from_tasks_keeps_finished_only(self):
        tasks = [finished_task(task_id=0), make_task(task_id=1)]
        columns = TaskColumns.from_tasks(tasks)
        assert len(columns) == 1

    def test_sorted_by_task_id(self):
        columns = TaskColumns()
        columns.append(finished_task(task_id=5))
        columns.append(finished_task(task_id=2))
        columns.append(finished_task(task_id=9))
        assert list(columns.sorted_by_task_id()["task_id"]) == [2, 5, 9]

    def test_metric_accessor(self):
        columns = TaskColumns.from_tasks([finished_task()])
        assert columns.metric("execution")[0] == pytest.approx(1.0)
        assert columns.metric("service")[0] == pytest.approx(1.0)
        with pytest.raises(KeyError):
            columns.metric("nope")

    def test_growth_beyond_initial_capacity(self):
        columns = TaskColumns()
        for i in range(600):
            columns.append(finished_task(task_id=i))
        assert len(columns) == 600
        assert list(columns.column("task_id")) == list(range(600))


def varied_tasks(count):
    """``count`` finished tasks, no two with the same row."""
    tasks = []
    for i in range(count):
        task = make_task(
            task_id=i,
            arrival=i * 1e-3,
            service=0.01 + (i % 13) * 1e-3,
            memory_mb=128 * (1 + i % 3),
        )
        task.mark_running(i * 1e-3 + (i % 5) * 1e-4, core_id=i % 48)
        task.account_service(task.service_time)
        task.mark_finished(i * 1e-3 + 0.5 + (i % 11) * 1e-3)
        tasks.append(task)
    return tasks


def one_pass_rows(tasks, node_of):
    """The rows a single conversion of every buffered tuple produces."""
    return np.array(
        [
            (
                t.task_id, t.arrival_time, t.service_time, t.first_run_time,
                t.completion_time, t.memory_mb, t.weight, t.preemptions,
                t.migrations, t.last_core, node_of(t),
            )
            for t in tasks
        ],
        dtype=TASK_COLUMNS_DTYPE,
    )


class TestBoundedRowBuffer:
    """Appends flush the tuple buffer a chunk at a time; reads are unchanged."""

    @pytest.mark.parametrize(
        "count",
        [0, 1, _FLUSH_ROWS - 1, _FLUSH_ROWS, _FLUSH_ROWS + 1, 3 * _FLUSH_ROWS + 5],
    )
    def test_data_is_bit_identical_to_one_pass(self, count):
        tasks = varied_tasks(count)
        columns = TaskColumns()
        for task in tasks:
            columns.append(task, task.task_id % 7)
            assert len(columns._pending) < _FLUSH_ROWS
        assert len(columns) == count
        expected = one_pass_rows(tasks, lambda t: t.task_id % 7)
        assert columns.data.dtype == TASK_COLUMNS_DTYPE
        assert columns.data.tobytes() == expected.tobytes()

    def test_reservoir_below_its_cap_buffers_one_chunk_at_most(self):
        count = 2 * _FLUSH_ROWS + 3
        tasks = varied_tasks(count)
        capped = ReservoirTaskColumns(cap=3 * _FLUSH_ROWS)
        for task in tasks:
            capped.append(task, 1)
            assert len(capped._pending) < _FLUSH_ROWS
        assert capped.sample_size() == len(capped) == count
        expected = one_pass_rows(tasks, lambda t: 1)
        assert capped.data.tobytes() == expected.tobytes()


class TestSummaryEquivalence:
    def test_from_columns_matches_from_tasks_exactly(self):
        tasks = [
            finished_task(task_id=i, arrival=0.1 * i, start=0.5 + 0.3 * i, end=1.7 + 0.9 * i)
            for i in range(25)
        ]
        by_tasks = TaskMetricsSummary.from_tasks(tasks)
        by_columns = TaskMetricsSummary.from_columns(TaskColumns.from_tasks(tasks))
        assert by_tasks == by_columns

    def test_collector_columns_match_rebuilt_columns(self):
        """The incrementally filled store agrees with a post-hoc rebuild."""
        result = simulate(
            FIFOScheduler(),
            make_tasks([(0.0, 0.5), (0.1, 1.0), (0.2, 0.3), (0.3, 0.8)]),
            config=SimulationConfig(num_cores=2),
        )
        incremental = result.task_columns()
        rebuilt = TaskColumns.from_tasks(result.tasks)
        assert len(incremental) == len(rebuilt) == 4
        # Same rows (the incremental store is in completion order).
        assert np.array_equal(
            incremental.sorted_by_task_id(), rebuilt.sorted_by_task_id()
        )
        assert incremental.summary().as_dict() == pytest.approx(
            rebuilt.summary().as_dict(), rel=1e-12, abs=1e-15
        )

    def test_no_core_sentinel(self):
        assert NO_CORE == -1
        assert NO_NODE == -1
