"""One finished-task store per run.

Every finished task is appended once, to the event loop's store, tagged
with the node it finished on (``NO_NODE`` on a standalone machine).  A
cluster's per-node results are row selections of that store, and its
``describe()`` reports the nodes still in service at the end.
"""

import numpy as np
import pytest

from repro.chaos import ChaosSpec
from repro.cluster import (
    AutoscalerConfig,
    ClusterConfig,
    ClusterSimulator,
    ReactiveAutoscaler,
    simulate_cluster,
)
from repro.cost.cost_model import CostModel
from repro.scenario.workloads import two_minute_stream
from repro.schedulers.fifo import FIFOScheduler
from repro.simulation.columns import NO_NODE
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import simulate
from repro.simulation.events import EventPriority
from repro.simulation.metrics import TaskMetricsSummary
from repro.simulation.task import Task, make_tasks
from repro.workload.generator import scaled_workload

from test_streaming import make_source


def node_of_row(result):
    """task_id -> node_id, read from the run's store."""
    rows = result.task_columns().data
    return dict(zip(rows["task_id"].tolist(), rows["node_id"].tolist()))


def assert_views_partition_store(result):
    """Each node's view holds only its rows, and together they are the store."""
    views = []
    for node_id, node_result in result.node_results.items():
        rows = node_result.task_columns().data
        assert (rows["node_id"] == node_id).all()
        views.append(rows)
    fleet = result.task_columns().data
    assert np.array_equal(
        np.sort(np.concatenate(views), order="task_id"),
        np.sort(fleet, order="task_id"),
    )


def sorted_rows(columns):
    return np.sort(columns.data, order="task_id")


class TestNodeIdColumn:
    def test_standalone_machine_rows_carry_no_node(self):
        result = simulate(
            FIFOScheduler(),
            make_tasks([(0.0, 0.5), (0.1, 1.0), (0.2, 0.3)]),
            config=SimulationConfig(num_cores=2),
        )
        assert (result.task_columns().data["node_id"] == NO_NODE).all()


class TestPerNodeViews:
    def test_uncapped_node_summary_is_summary_of_its_tasks(self):
        config = ClusterConfig(
            num_nodes=3, cores_per_node=2, scheduler="cfs", dispatcher="jsq", seed=5
        )
        result = simulate_cluster(scaled_workload(400, minutes=1), config=config)
        for node_result in result.node_results.values():
            assert node_result.tasks
            expected = TaskMetricsSummary.from_tasks(node_result.tasks)
            assert node_result.summary().as_dict() == pytest.approx(
                expected.as_dict(), rel=1e-12, abs=1e-15
            )
            assert node_result.finished_count == node_result.total_tasks

    def test_streamed_nodes_count_what_they_finished(self):
        config = ClusterConfig(num_nodes=3, cores_per_node=2, dispatcher="jsq")
        result = simulate_cluster(two_minute_stream(0.05), config=config)
        assert not result.tasks
        counts = result.tasks_per_node()
        for node_id, node_result in result.node_results.items():
            assert node_result.tasks == []
            assert node_result.finished_count == node_result.total_tasks
            assert node_result.total_tasks == counts[node_id]
            assert node_result.completion_ratio == 1.0

    def test_spill_views_are_exact(self, tmp_path):
        config = ClusterConfig(num_nodes=3, cores_per_node=2, dispatcher="jsq")
        ref = simulate_cluster(make_source(), config=config)
        spilled = simulate_cluster(
            make_source(),
            config=config,
            metrics_cap=4,
            metrics_policy="spill",
            spill_dir=str(tmp_path),
        )
        assert_views_partition_store(spilled)
        for node_id, node_result in spilled.node_results.items():
            expected = ref.node_results[node_id]
            assert np.array_equal(
                sorted_rows(node_result.task_columns()),
                sorted_rows(expected.task_columns()),
            )
            assert node_result.summary() == expected.summary()

    def test_spill_run_leaves_history_on_disk(self, tmp_path):
        config = ClusterConfig(num_nodes=3, cores_per_node=2, dispatcher="jsq")
        result = simulate_cluster(
            make_source(),
            config=config,
            metrics_cap=4,
            metrics_policy="spill",
            spill_dir=str(tmp_path),
        )
        store = result.columns
        assert store._chunks and store._cache is None
        # Node views are selected when first read, a chunk at a time.
        assert all(r.columns is None for r in result.node_results.values())
        assert sum(r.finished_count for r in result.node_results.values()) == len(
            store
        )
        assert store._cache is None

    def test_reservoir_views_are_the_nodes_share_of_the_sample(self):
        config = ClusterConfig(num_nodes=3, cores_per_node=2, dispatcher="jsq")
        capped = simulate_cluster(make_source(), config=config, metrics_cap=10)
        assert_views_partition_store(capped)
        ref = simulate_cluster(make_source(), config=config)
        assert capped.tasks_per_node() == ref.tasks_per_node()

    @pytest.mark.parametrize("cap", [1, 10])
    def test_reservoir_views_keep_exact_node_aggregates(self, cap):
        config = ClusterConfig(num_nodes=3, cores_per_node=2, dispatcher="jsq")
        capped = simulate_cluster(make_source(), config=config, metrics_cap=cap)
        ref = simulate_cluster(make_source(), config=config)
        counts = ref.tasks_per_node()
        model = CostModel()
        unsampled = []
        for node_id, node_result in capped.node_results.items():
            expected = ref.node_results[node_id]
            assert node_result.finished_count == node_result.total_tasks
            assert node_result.total_tasks == counts[node_id]
            got, want = node_result.summary(), expected.summary()
            assert got.count == want.count
            for name in (
                "mean_execution",
                "mean_response",
                "mean_turnaround",
                "total_execution",
                "total_service",
                "makespan",
            ):
                assert getattr(got, name) == pytest.approx(getattr(want, name))
            got_bill = model.workload_cost_columns(node_result.task_columns())
            want_bill = model.workload_cost_columns(expected.task_columns())
            assert got_bill.invocations == want_bill.invocations
            assert got_bill.total == pytest.approx(want_bill.total)
            if got.count and len(node_result.task_columns().data) == 0:
                # None of this node's tasks is in the sample: no estimate.
                assert np.isnan(got.p99_turnaround)
                unsampled.append(node_id)
        sampled = sum(
            len(r.task_columns().data) for r in capped.node_results.values()
        )
        assert sampled == cap
        assert unsampled if cap == 1 else not unsampled


def lost_and_rescued_run():
    """Node 0 crashes at t=1 holding a running task that then finishes on
    node 1; checkpointing migration is on throughout."""
    config = ClusterConfig(
        num_nodes=2,
        cores_per_node=1,
        scheduler="fifo",
        dispatcher="round_robin",
        migration="work_stealing",
        migration_kwargs={"interval": 0.25, "checkpoint": True},
    )
    cluster = ClusterSimulator(config=config, chaos=ChaosSpec())
    cluster.submit(
        [
            Task(task_id=0, arrival_time=0.0, service_time=3.0),
            Task(task_id=1, arrival_time=0.0, service_time=0.5),
            Task(task_id=2, arrival_time=0.1, service_time=0.5),
            Task(task_id=3, arrival_time=0.2, service_time=0.5),
        ]
    )
    cluster.events.push(
        1.0,
        lambda: cluster._fail_node(cluster.nodes[0], "crash"),
        priority=EventPriority.CONTROL,
        tag="test-crash",
    )
    return cluster.run()


class TestLostTaskRecordedOnce:
    def test_task_lost_on_a_appears_once_under_b(self):
        result = lost_and_rescued_run()
        assert result.nodes_failed == 1
        assert result.completion_ratio == 1.0
        lost = [t.task_id for t in result.tasks if t.metadata.get("node_failures")]
        assert 0 in lost  # the running task; queued task 2 is lost with it
        fleet_ids = result.task_columns().data["task_id"].tolist()
        assert sorted(fleet_ids) == [0, 1, 2, 3]
        recorded = node_of_row(result)
        by_node = {
            node_id: (
                [t.task_id for t in node_result.tasks],
                node_result.task_columns().data["task_id"].tolist(),
            )
            for node_id, node_result in result.node_results.items()
        }
        for task_id in lost:
            assert recorded[task_id] == 1
            assert task_id not in by_node[0][0] and task_id not in by_node[0][1]
            assert by_node[1][0].count(task_id) == by_node[1][1].count(task_id) == 1
        assert_views_partition_store(result)

    @pytest.mark.parametrize("seed", [2, 3])
    def test_seeded_chaos_with_checkpointing_records_each_task_once(self, seed):
        config = ClusterConfig(
            num_nodes=4,
            cores_per_node=2,
            scheduler="fifo",
            dispatcher="jsq",
            seed=seed,
            migration="work_stealing",
            migration_kwargs={"interval": 0.1, "checkpoint": True},
            chaos=ChaosSpec(
                crash_rate=0.05, revocation_rate=0.05, warning=0.5, max_failures=3
            ),
        )
        autoscaler = ReactiveAutoscaler(AutoscalerConfig(min_nodes=4, max_nodes=6))
        result = simulate_cluster(
            scaled_workload(400, minutes=1), config=config, autoscaler=autoscaler
        )
        assert result.completion_ratio == 1.0
        rows = result.task_columns().data
        finished = result.finished_tasks
        assert any(t.metadata.get("node_failures") for t in finished)
        assert sorted(rows["task_id"].tolist()) == sorted(t.task_id for t in finished)
        failed = {
            node_id
            for node_id, stats in result.node_stats.items()
            if stats["failed"] == 1.0
        }
        recorded = node_of_row(result)
        for task in finished:
            assert recorded[task.task_id] == task.node_id
            if task.metadata.get("node_failures"):
                assert recorded[task.task_id] not in failed
        assert_views_partition_store(result)


class TestFinalFleet:
    @staticmethod
    def final_fleet_line(result):
        (line,) = [
            line for line in result.describe().splitlines()
            if line.startswith("nodes (final fleet)")
        ]
        return line

    def expect_final(self, result):
        final = result.num_nodes - result.nodes_removed - result.nodes_failed
        assert result.nodes_in_service() == final
        assert self.final_fleet_line(result).split(":")[1].split()[:4] == [
            str(final), "of", str(result.num_nodes), "commissioned"
        ]

    def test_autoscaled_run_reports_nodes_still_in_service(self):
        tasks = make_tasks([(0.0, 2.0)] * 30 + [(20.0 + i, 0.05) for i in range(15)])
        autoscaler = ReactiveAutoscaler(
            AutoscalerConfig(
                min_nodes=1,
                max_nodes=6,
                check_interval=0.5,
                cooldown=0.0,
                scale_down_load=0.2,
            )
        )
        result = simulate_cluster(
            tasks,
            config=ClusterConfig(
                num_nodes=2, cores_per_node=2, scheduler="fifo", dispatcher="jsq"
            ),
            autoscaler=autoscaler,
        )
        assert result.nodes_removed > 0
        assert result.num_nodes > result.nodes_in_service()
        self.expect_final(result)

    def test_chaos_run_reports_nodes_still_in_service(self):
        result = lost_and_rescued_run()
        assert result.nodes_failed > 0
        self.expect_final(result)
        assert result.nodes_in_service() == 1
