"""Behavioural tests for the hybrid FIFO+CFS scheduler."""

import gc
from collections import Counter

import numpy as np
import pytest

from repro.cluster import ClusterConfig, simulate_cluster
from repro.core.config import CFS_GROUP, CFSPlacement, FIFO_GROUP, HybridConfig
from repro.core.hybrid import HybridScheduler
from repro.schedulers import registry
from repro.schedulers.fifo import FIFOScheduler
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import simulate
from repro.simulation.machine import Machine
from repro.workload.extraction import TraceBucket
from repro.workload.streaming import BucketStreamSource
from tests.conftest import make_tasks


def run_hybrid(specs, config=None, num_cores=4, **sim_kwargs):
    hconfig = config or HybridConfig(fifo_cores=num_cores // 2, cfs_cores=num_cores - num_cores // 2)
    scheduler = HybridScheduler(hconfig)
    sim_config = SimulationConfig(num_cores=num_cores, **sim_kwargs)
    result = simulate(scheduler, make_tasks(specs), config=sim_config)
    return scheduler, result


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            HybridConfig(fifo_cores=0)
        with pytest.raises(ValueError):
            HybridConfig(time_limit=0.0)
        with pytest.raises(ValueError):
            HybridConfig(time_limit_percentile=0)
        with pytest.raises(ValueError):
            HybridConfig(rightsizing_threshold=1.5)
        with pytest.raises(ValueError):
            HybridConfig(min_group_size=30)

    def test_with_helpers(self):
        config = HybridConfig()
        assert config.with_split(10, 40).fifo_cores == 10
        assert config.with_time_limit(0.5).time_limit == 0.5
        adaptive = config.with_adaptive_limit(75)
        assert adaptive.adaptive_time_limit and adaptive.time_limit_percentile == 75
        assert config.with_rightsizing().rightsizing

    def test_total_cores(self):
        assert HybridConfig(fifo_cores=10, cfs_cores=15).total_cores == 25


class TestGroupWiring:
    def test_preferred_groups_exact(self):
        scheduler = HybridScheduler(HybridConfig(fifo_cores=25, cfs_cores=25))
        assert scheduler.preferred_groups(50) == {"fifo": 25, "cfs": 25}

    def test_preferred_groups_rescaled(self):
        scheduler = HybridScheduler(HybridConfig(fifo_cores=25, cfs_cores=25))
        groups = scheduler.preferred_groups(10)
        assert groups["fifo"] + groups["cfs"] == 10
        assert groups["fifo"] == 5

    def test_attach_requires_named_groups(self):
        scheduler = HybridScheduler(HybridConfig(fifo_cores=1, cfs_cores=1))
        config = SimulationConfig(num_cores=2)
        machine = Machine(config)  # single "all" group
        with pytest.raises(ValueError):
            simulate(scheduler, make_tasks([(0.0, 1.0)]), config=config, machine=machine)


class TestShortTasks:
    def test_short_tasks_run_to_completion_on_fifo_cores(self):
        scheduler, result = run_hybrid([(0.0, 0.2), (0.0, 0.3), (0.05, 0.1)])
        assert result.completion_ratio == 1.0
        assert scheduler.tasks_preempted_to_cfs == 0
        assert scheduler.tasks_completed_in_fifo == 3
        for task in result.finished_tasks:
            assert task.execution_time == pytest.approx(task.service_time, rel=1e-6)

    def test_queueing_when_fifo_cores_busy(self):
        # 2 FIFO cores, 4 short tasks arriving together: two must wait.
        scheduler, result = run_hybrid([(0.0, 0.5)] * 4)
        responses = sorted(t.response_time for t in result.finished_tasks)
        assert responses[0] == pytest.approx(0.0)
        assert responses[-1] == pytest.approx(0.5, abs=0.01)


class TestLongTasks:
    def test_long_task_preempted_to_cfs_group(self):
        config = HybridConfig(fifo_cores=2, cfs_cores=2, time_limit=0.2)
        scheduler, result = run_hybrid([(0.0, 1.0)], config=config)
        task = result.finished_tasks[0]
        assert scheduler.tasks_preempted_to_cfs == 1
        assert task.preemptions == 1
        assert task.last_core in result.cores_in_group(CFS_GROUP)
        # Total work is conserved (modulo the small migration charge).
        assert task.cpu_time_received == pytest.approx(1.0, abs=0.01)

    def test_fifo_core_freed_after_preemption(self):
        config = HybridConfig(fifo_cores=1, cfs_cores=1, time_limit=0.2)
        scheduler, result = run_hybrid([(0.0, 5.0), (0.05, 0.1)], config=config, num_cores=2)
        short = next(t for t in result.finished_tasks if t.service_time == 0.1)
        # The short task starts right after the long one is preempted at 0.2 s,
        # not after it would have finished (5 s).
        assert short.first_run_time == pytest.approx(0.2, abs=0.02)

    def test_preempted_tasks_round_robin_across_cfs_cores(self):
        config = HybridConfig(
            fifo_cores=2, cfs_cores=2, time_limit=0.1,
            cfs_placement=CFSPlacement.ROUND_ROBIN,
        )
        scheduler, result = run_hybrid([(0.0, 1.0), (0.0, 1.0)], config=config)
        cfs_core_ids = set(result.cores_in_group(CFS_GROUP))
        used = {t.last_core for t in result.finished_tasks}
        assert used == cfs_core_ids

    def test_least_loaded_placement_option(self):
        config = HybridConfig(
            fifo_cores=2, cfs_cores=2, time_limit=0.1,
            cfs_placement=CFSPlacement.LEAST_LOADED,
        )
        scheduler, result = run_hybrid([(0.0, 0.5), (0.0, 0.5)], config=config)
        assert result.completion_ratio == 1.0
        assert scheduler.tasks_preempted_to_cfs == 2

    def test_stats_counters(self):
        config = HybridConfig(fifo_cores=2, cfs_cores=2, time_limit=0.2)
        scheduler, result = run_hybrid([(0.0, 1.0), (0.0, 0.1)], config=config)
        stats = scheduler.stats()
        assert stats["tasks_preempted_to_cfs"] == 1
        assert stats["tasks_completed_in_fifo"] == 1
        assert stats["tasks_completed_in_cfs"] == 1
        assert (
            stats["tasks_completed_in_fifo"] + stats["tasks_completed_in_cfs"]
            == len(result.finished_tasks)
        )


class TestAdaptiveLimitIntegration:
    def test_limit_series_recorded(self):
        config = HybridConfig(fifo_cores=2, cfs_cores=2).with_adaptive_limit(90, window=10)
        scheduler, result = run_hybrid([(0.1 * i, 0.2) for i in range(20)], config=config)
        series = result.series_values("time_limit")
        assert len(series) >= 20
        # After enough short completions the adaptive limit converges near the
        # observed durations, far below the 1,633 ms default.
        assert series[-1].value < 1.0


class TestTaskLifecycle:
    def test_long_task_dispatched_to_fifo_then_cfs(self):
        config = HybridConfig(fifo_cores=1, cfs_cores=1, time_limit=0.2)
        scheduler, result = run_hybrid([(0.0, 1.0)], config=config, num_cores=2)
        (task,) = result.finished_tasks
        # One FIFO dispatch, one preemption, one CFS re-dispatch.
        assert task.groups_visited[-1] == CFS_GROUP
        assert task.preemptions == 1
        assert scheduler.tasks_completed_in_cfs == 1
        assert not scheduler._limit_timers

    def test_hand_off_records_cfs_group(self):
        """Only the long task is handed off, and it records the CFS group once."""
        config = HybridConfig(fifo_cores=1, cfs_cores=1, time_limit=0.2)
        _, result = run_hybrid([(0.0, 1.0), (0.0, 0.1)], config=config, num_cores=2)
        visited = {task.service_time: task.groups_visited for task in result.finished_tasks}
        assert visited == {1.0: [CFS_GROUP], 0.1: ()}


class TestTooFewCores:
    def test_preferred_groups_needs_two_cores(self):
        scheduler = HybridScheduler(HybridConfig(fifo_cores=25, cfs_cores=25))
        with pytest.raises(ValueError, match="num_cores"):
            scheduler.preferred_groups(1)
        assert scheduler.preferred_groups(2) == {"fifo": 1, "cfs": 1}

    def test_fleet_of_one_core_hybrid_nodes_is_rejected(self):
        config = ClusterConfig(
            num_nodes=2, cores_per_node=1, scheduler="hybrid",
            scheduler_kwargs={"fifo_cores": 1, "cfs_cores": 1},
        )
        with pytest.raises(ValueError, match="num_cores"):
            simulate_cluster(make_tasks([(0.0, 0.1), (0.0, 0.2)]), config=config)

    def test_attach_rejects_an_empty_group(self):
        scheduler = HybridScheduler(HybridConfig(fifo_cores=1, cfs_cores=1))
        config = SimulationConfig(num_cores=1)
        machine = Machine(config, groups={"fifo": 0, "cfs": 1})
        with pytest.raises(ValueError, match="non-empty"):
            # ``until`` bounds the run should the guard ever regress: the
            # queued task could never start, so the run would not drain.
            simulate(
                scheduler, make_tasks([(0.0, 1.0)]), config=config,
                machine=machine, until=10.0,
            )


def _counting(base):
    """A ``base`` subclass that counts live objects by type at its run's end.

    Returns the subclass and the counter it fills (once, at the first
    ``on_end``, so every node of a fleet run shares one snapshot).
    """
    counts = Counter()

    class Counting(base):
        def on_end(self) -> None:
            super().on_end()
            if not counts:
                gc.collect()
                counts.update(type(obj).__name__ for obj in gc.get_objects())

    return Counting, counts


def _retention_source():
    """8,000 invocations over 20 minutes; the 1.8 s bucket outlives the limit."""
    minutes = 20
    buckets = [
        TraceBucket(fibonacci_n=25, duration=0.05,
                    per_minute_counts=np.full(minutes, 300.0)),
        TraceBucket(fibonacci_n=30, duration=0.4,
                    per_minute_counts=np.full(minutes, 80.0)),
        TraceBucket(fibonacci_n=33, duration=1.8,
                    per_minute_counts=np.full(minutes, 20.0)),
    ]
    return BucketStreamSource(buckets, minutes=minutes, seed=7)


class TestStreamedRetention:
    """A streamed hybrid fleet retains no per-task state beyond what a fifo
    fleet does: its memory stays bounded by the tasks in flight."""

    def _run(self, name, factory, **scheduler_kwargs):
        registry.register_scheduler(name, factory)
        config = ClusterConfig(
            num_nodes=2, cores_per_node=4, scheduler=name,
            scheduler_kwargs=scheduler_kwargs, dispatcher="jsq",
        )
        result = simulate_cluster(_retention_source(), config=config, metrics_cap=500)
        assert result.tasks_submitted == result.finished_count == 8000

    def test_hybrid_retains_no_per_task_state(self, monkeypatch):
        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
        counting_fifo, fifo = _counting(FIFOScheduler)
        counting_hybrid, hybrid = _counting(HybridScheduler)
        self._run("counting_fifo", counting_fifo)
        self._run(
            "counting_hybrid", lambda **kw: counting_hybrid(HybridConfig(**kw)),
            fifo_cores=2, cfs_cores=2,
        )
        # The ``time_limit`` series keeps one point per completion; it is
        # the one per-task record the hybrid is known to keep.
        excess = {
            name: hybrid[name] - fifo[name]
            for name in hybrid
            if name != "SeriesPoint" and hybrid[name] - fifo[name] > 100
        }
        assert not excess, f"hybrid run retains per-task objects: {excess}"
