"""Unit tests for the task model and its metric definitions."""

import pytest

from repro.simulation.task import Task, TaskState, make_tasks
from tests.conftest import make_task


class TestTaskValidation:
    def test_rejects_nonpositive_service(self):
        with pytest.raises(ValueError):
            make_task(service=0.0)

    def test_rejects_negative_arrival(self):
        with pytest.raises(ValueError):
            make_task(arrival=-1.0)

    def test_rejects_nonpositive_memory(self):
        with pytest.raises(ValueError):
            make_task(memory_mb=0)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"service_time": float("nan")}, "service time"),
            ({"service_time": float("inf")}, "service time"),
            ({"arrival_time": float("nan")}, "arrival time"),
            ({"arrival_time": float("inf")}, "arrival time"),
            ({"weight": float("nan")}, "weight"),
            ({"weight": float("inf")}, "weight"),
        ],
    )
    def test_rejects_non_finite_inputs(self, kwargs, field):
        args = {"task_id": 3, "arrival_time": 0.0, "service_time": 1.0, **kwargs}
        with pytest.raises(ValueError, match=f"task 3 .*{field}"):
            Task(**args)

    def test_fresh_task_holds_no_visited_list(self):
        task = make_task()
        assert task.groups_visited == ()
        assert task.metadata == {} and make_task().metadata is not task.metadata

    def test_remaining_initialised_to_service(self):
        task = make_task(service=2.5)
        assert task.remaining == 2.5
        assert task.state is TaskState.CREATED


class TestLazyMetadata:
    def test_no_dict_until_first_access(self):
        task = make_task()
        assert task._metadata is None
        assert task.metadata is task.metadata
        assert task._metadata == {}

    def test_writes_persist(self):
        task = make_task()
        task.metadata["node_id"] = 3
        task.metadata["retries"] = task.metadata.get("retries", 0) + 1
        assert task.metadata == {"node_id": 3, "retries": 1}
        task.metadata = {"replaced": True}
        assert task.metadata == {"replaced": True}

    def test_tasks_never_share_a_dict(self):
        tasks = make_tasks([(0.0, 1.0), (0.5, 1.0), (1.0, 1.0)])
        for index, task in enumerate(tasks):
            task.metadata["index"] = index
        assert [task.metadata for task in tasks] == [{"index": i} for i in range(3)]
        assert len({id(task.metadata) for task in tasks}) == 3

    def test_given_dict_is_kept(self):
        given = {"role": "vcpu"}
        task = Task(0, 0.0, 1.0, metadata=given)
        assert task.metadata is given

    def test_task_defines_no_getattr_fallback(self):
        """A ``__getattr__`` would put every attribute load on the slow path."""
        assert not hasattr(Task, "__getattr__")


class TestTaskLifecycle:
    def test_metrics_follow_ostep_definitions(self):
        task = make_task(arrival=10.0, service=2.0)
        task.mark_queued()
        task.mark_running(now=13.0, core_id=0)
        task.account_service(2.0)
        task.mark_finished(now=16.0)
        assert task.response_time == pytest.approx(3.0)
        assert task.execution_time == pytest.approx(3.0)
        assert task.turnaround_time == pytest.approx(6.0)
        assert task.slowdown == pytest.approx(3.0)

    def test_first_run_recorded_once(self):
        task = make_task(arrival=0.0)
        task.mark_running(1.0, core_id=0)
        task.mark_preempted()
        task.mark_running(5.0, core_id=1)
        assert task.first_run_time == 1.0
        assert task.migrations == 1
        assert task.preemptions == 1

    def test_metrics_none_before_events(self):
        task = make_task()
        assert task.execution_time is None
        assert task.response_time is None
        assert task.turnaround_time is None
        assert task.slowdown is None

    def test_cannot_finish_without_running(self):
        task = make_task()
        with pytest.raises(RuntimeError):
            task.mark_finished(1.0)

    def test_cannot_requeue_finished_task(self):
        task = make_task()
        task.mark_running(0.0, core_id=0)
        task.mark_finished(1.0)
        with pytest.raises(RuntimeError):
            task.mark_queued()
        with pytest.raises(RuntimeError):
            task.mark_running(2.0, core_id=0)
        with pytest.raises(RuntimeError):
            task.mark_preempted()

    def test_account_service_reduces_remaining(self):
        task = make_task(service=1.0)
        task.account_service(0.4)
        assert task.remaining == pytest.approx(0.6)
        assert task.cpu_time_received == pytest.approx(0.4)
        assert task.vruntime == pytest.approx(0.4)

    def test_account_service_clamps_at_zero(self):
        task = make_task(service=1.0)
        task.account_service(5.0)
        assert task.remaining == 0.0

    def test_account_negative_service_rejected(self):
        task = make_task()
        with pytest.raises(ValueError):
            task.account_service(-0.1)


class TestMakeTasks:
    def test_builds_sequential_ids(self):
        tasks = make_tasks([(0.0, 1.0), (1.0, 2.0)])
        assert [t.task_id for t in tasks] == [0, 1]
        assert tasks[1].service_time == 2.0
