"""Memory-bounded columnar metrics: reservoir sampling and disk spill.

The streaming PR's third leg: a row cap on the columnar store with two
policies.  ``reservoir`` keeps exact streaming aggregates (count, means,
totals, makespan, billing) plus a seeded uniform sample for percentiles;
``spill`` keeps everything exact by writing full ``.npy`` chunks to a
private temp directory.  Both must be drop-in: summaries, cost and cluster
result helpers work unchanged through ``build_columns_store``.
"""

import os

import numpy as np
import pytest

from repro.cluster import ClusterConfig, simulate_cluster
from repro.cost.cost_model import CostModel
from repro.schedulers.fifo import FIFOScheduler
from repro.simulation.columns import (
    ReservoirTaskColumns,
    SpillTaskColumns,
    TaskColumns,
    build_columns_store,
    merge_columns,
)
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import simulate
from repro.simulation.metrics import TaskMetricsSummary
from repro.simulation.task import Task

from test_streaming import TOTAL_TASKS, make_source


def finished_task(i, arrival=0.0, service=1.0, memory_mb=128):
    task = Task(
        task_id=i, arrival_time=arrival, service_time=service, memory_mb=memory_mb
    )
    task.mark_running(arrival + 0.25, core_id=i % 4)
    task.mark_finished(arrival + 0.25 + service)
    return task


def fill(store, count):
    for i in range(count):
        store.append(finished_task(i, arrival=0.1 * i, service=1.0 + 0.01 * i))
    return store


class TestReservoirColumns:
    def test_below_cap_equals_plain_store(self):
        plain = fill(TaskColumns(), 100)
        capped = fill(ReservoirTaskColumns(cap=100), 100)
        assert np.array_equal(plain.data, capped.data)
        exact = TaskMetricsSummary.from_columns(plain)
        sampled = TaskMetricsSummary.from_columns(capped)
        # Percentiles read the identical retained rows; means come from the
        # running accumulators, so they match only to summation order.
        assert sampled.p99_turnaround == exact.p99_turnaround
        assert sampled.makespan == exact.makespan
        assert sampled.mean_turnaround == pytest.approx(
            exact.mean_turnaround, abs=1e-12
        )

    def test_past_cap_aggregates_stay_exact(self):
        plain = fill(TaskColumns(), 1000)
        capped = fill(ReservoirTaskColumns(cap=64, seed=5), 1000)
        assert len(capped) == 1000  # true count, not the sample size
        assert capped.sample_size() == 64
        exact = TaskMetricsSummary.from_columns(plain)
        sampled = TaskMetricsSummary.from_columns(capped)
        assert sampled.count == exact.count
        assert sampled.mean_execution == pytest.approx(exact.mean_execution, abs=1e-12)
        assert sampled.mean_response == pytest.approx(exact.mean_response, abs=1e-12)
        assert sampled.mean_turnaround == pytest.approx(exact.mean_turnaround, abs=1e-12)
        assert sampled.total_execution == pytest.approx(exact.total_execution, abs=1e-9)
        assert sampled.total_service == pytest.approx(exact.total_service, abs=1e-9)
        assert sampled.makespan == exact.makespan
        # Percentiles come from the sample: close, not exact.
        assert sampled.p50_execution == pytest.approx(exact.p50_execution, rel=0.25)

    def test_sample_rows_are_real_rows(self):
        capped = fill(ReservoirTaskColumns(cap=32, seed=1), 500)
        rows = capped.data
        assert len(rows) == 32
        assert set(rows["task_id"]) <= set(range(500))
        assert len(set(rows["task_id"])) == 32

    def test_billing_stays_exact_past_cap(self):
        model = CostModel(include_request_fee=True)
        plain = fill(TaskColumns(), 400)
        capped = fill(ReservoirTaskColumns(cap=16, seed=2), 400)
        exact = model.workload_cost_columns(plain)
        sampled = model.workload_cost_columns(capped)
        assert sampled.invocations == exact.invocations == 400
        assert sampled.billed_seconds == pytest.approx(exact.billed_seconds, abs=1e-9)
        assert sampled.execution_cost == pytest.approx(exact.execution_cost, rel=1e-12)
        assert sampled.request_cost == pytest.approx(exact.request_cost, rel=1e-12)

    def test_seeded_sample_is_reproducible(self):
        a = fill(ReservoirTaskColumns(cap=16, seed=9), 300)
        b = fill(ReservoirTaskColumns(cap=16, seed=9), 300)
        assert np.array_equal(a.data, b.data)

    def test_rejects_unfinished_and_bad_cap(self):
        with pytest.raises(ValueError):
            ReservoirTaskColumns(cap=0)
        store = ReservoirTaskColumns(cap=4)
        with pytest.raises(ValueError):
            store.append(Task(task_id=0, arrival_time=0.0, service_time=1.0))


class TestSpillColumns:
    def test_spills_and_rehydrates_exactly(self, tmp_path):
        plain = fill(TaskColumns(), 500)
        spill = fill(SpillTaskColumns(cap=64, spill_dir=str(tmp_path)), 500)
        assert len(spill) == 500
        assert np.array_equal(
            np.sort(plain.data, order="task_id"),
            np.sort(spill.data, order="task_id"),
        )
        assert TaskMetricsSummary.from_columns(spill) == TaskMetricsSummary.from_columns(
            plain
        )
        spill.close()

    def test_close_removes_spill_files(self, tmp_path):
        spill = fill(SpillTaskColumns(cap=16, spill_dir=str(tmp_path)), 100)
        subdirs = os.listdir(tmp_path)
        assert len(subdirs) == 1
        chunk_dir = tmp_path / subdirs[0]
        assert any(name.endswith(".npy") for name in os.listdir(chunk_dir))
        spill.close()
        assert not chunk_dir.exists()
        spill.close()  # idempotent

    def test_two_stores_share_one_spill_dir(self, tmp_path):
        first = fill(SpillTaskColumns(cap=8, spill_dir=str(tmp_path)), 50)
        second = fill(SpillTaskColumns(cap=8, spill_dir=str(tmp_path)), 50)
        assert len(first.data) == len(second.data) == 50
        first.close()
        # Closing one store must not touch the other's chunks.
        assert len(second.data) == 50
        second.close()


class TestFactoryAndMerge:
    def test_factory_dispatch(self, tmp_path):
        assert type(build_columns_store(None)) is TaskColumns
        assert isinstance(build_columns_store(10), ReservoirTaskColumns)
        spill = build_columns_store(10, policy="spill", spill_dir=str(tmp_path))
        assert isinstance(spill, SpillTaskColumns)
        spill.close()
        with pytest.raises(ValueError, match="unknown metrics policy"):
            build_columns_store(10, policy="bogus")

    def test_merge_reads_retained_rows(self, tmp_path):
        plain = fill(TaskColumns(), 20)
        capped = fill(ReservoirTaskColumns(cap=8, seed=3), 100)
        spill = fill(SpillTaskColumns(cap=8, spill_dir=str(tmp_path)), 30)
        merged = merge_columns([plain, capped, spill])
        # A reservoir contributes its sample; a spill store its full history.
        assert len(merged) == 20 + 8 + 30
        spill.close()


class TestCappedStreamingRuns:
    def test_single_machine_summary_exact_past_cap(self):
        config = SimulationConfig(num_cores=2)
        ref = simulate(FIFOScheduler(), make_source(), config=config)
        capped = simulate(
            FIFOScheduler(), make_source(), config=config, metrics_cap=10
        )
        exact, sampled = ref.summary(), capped.summary()
        assert sampled.count == exact.count == TOTAL_TASKS
        assert sampled.mean_turnaround == pytest.approx(
            exact.mean_turnaround, abs=1e-12
        )
        assert sampled.makespan == exact.makespan
        assert len(capped.task_columns().data) == 10

    def test_cluster_run_with_cap_keeps_helpers_working(self):
        config = ClusterConfig(num_nodes=3, cores_per_node=2, dispatcher="jsq")
        ref = simulate_cluster(make_source(), config=config)
        capped = simulate_cluster(make_source(), config=config, metrics_cap=10)
        assert capped.summary().count == TOTAL_TASKS
        assert capped.summary().mean_turnaround == pytest.approx(
            ref.summary().mean_turnaround, abs=1e-12
        )
        assert capped.tasks_per_node() == ref.tasks_per_node()
        assert capped.unserved_tasks() == 0
        assert "tasks" in capped.describe()

    def test_cluster_spill_run_is_exact(self, tmp_path):
        config = ClusterConfig(num_nodes=2, cores_per_node=2, dispatcher="jsq")
        ref = simulate_cluster(make_source(), config=config)
        spilled = simulate_cluster(
            make_source(),
            config=config,
            metrics_cap=8,
            metrics_policy="spill",
            spill_dir=str(tmp_path),
        )
        assert np.array_equal(
            np.sort(ref.task_columns().data, order="task_id"),
            np.sort(spilled.task_columns().data, order="task_id"),
        )
        assert spilled.summary() == ref.summary()

    def test_per_node_cap_budget_is_shared(self):
        # 8 nodes share the cap: each node's store gets cap // 8 (floored at
        # 256), so total retained rows stay O(cap), not O(cap * nodes).
        from repro.cluster import ClusterSimulator

        config = ClusterConfig(num_nodes=8, cores_per_node=2, dispatcher="jsq")
        sim = ClusterSimulator(config=config, metrics_cap=4096)
        assert sim.columns.cap == 4096  # the fleet store keeps the full cap
        assert [n.engine.collector.columns.cap for n in sim.nodes] == [512] * 8
        floored = ClusterSimulator(config=config, metrics_cap=100)
        assert [n.engine.collector.columns.cap for n in floored.nodes] == [256] * 8
        sim.submit_stream(make_source(), chunk=8)
        result = sim.run()
        assert result.finished_count == TOTAL_TASKS
