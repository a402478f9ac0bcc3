"""The O(1) backlog counters agree with a rescan after every event.

Each scheduler keeps a count of its queued, never-run tasks, adjusted at
every enqueue and dequeue, and rolls it up (with every node's ingress) into
the cluster's fleet-wide ``backlog``.  Admission and deadline shedding read
that total on each arrival instead of walking every queue, so the counts
must equal what a walk would find at every instant of a run.  These tests
walk the queues before every event and after the last one, under every
queueing policy, with the features that move tasks in and out of queues
behind the scheduler's back: RTT ingress, work stealing with checkpoints,
``timeout_retry`` releases, chaos crashes, and revocation warnings that
drain a node.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosSpec
from repro.cluster import ClusterConfig, ClusterSimulator, NodeState
from repro.cluster.autoscaler import AutoscalerConfig, ReactiveAutoscaler
from repro.cluster.config import NetworkSpec
from repro.middleware import (
    AdmissionControlMiddleware,
    DeadlineShedMiddleware,
    TimeoutRetryMiddleware,
)
from repro.simulation.task import Task

#: Every registered policy; ``cfs`` binds tasks to cores and never queues.
SCHEDULERS = (
    "fifo",
    "fifo_preempt",
    "round_robin",
    "shinjuku",
    "sjf",
    "srtf",
    "edf",
    "hybrid",
    "cfs",
)


def rescan_node(node) -> int:
    """A node's queued, never-run tasks, found by walking its queue."""
    if node.state.terminal:
        return 0
    return sum(
        1
        for task in node.scheduler.stealable_tasks()
        if task.first_run_time is None
    )


def rescan_fleet(cluster) -> int:
    """The fleet backlog as admission once computed it: every node not
    retired, its rescanned queue plus its ingress."""
    return sum(
        rescan_node(node) + node.ingress
        for node in cluster.nodes
        if node.state is not NodeState.RETIRED
    )


def assert_counters_match(cluster) -> None:
    for node in cluster.nodes:
        assert node.stealable_count() == rescan_node(node), node
    assert cluster.backlog.count == rescan_fleet(cluster)


def make_workload(seed: int, count: int):
    """Bursty arrivals over 3 s: long enough tasks that queues form."""
    rng = random.Random(seed)
    tasks = []
    time = 0.0
    for task_id in range(count):
        time += rng.expovariate(25.0)
        tasks.append(
            Task(
                task_id=task_id,
                arrival_time=round(time, 6),
                service_time=round(rng.uniform(0.05, 1.2), 6),
            )
        )
    return tasks


def build_cluster(scheduler: str, seed: int) -> ClusterSimulator:
    config = ClusterConfig(
        num_nodes=3,
        cores_per_node=2,
        scheduler=scheduler,
        dispatcher="round_robin",
        seed=seed,
        network=NetworkSpec(rtt=0.02),
        migration="work_stealing",
        migration_kwargs={"interval": 0.1, "checkpoint": True},
        chaos=ChaosSpec(
            crash_rate=0.1, revocation_rate=0.2, warning=0.01, max_failures=4
        ),
    )
    return ClusterSimulator(
        config=config,
        autoscaler=ReactiveAutoscaler(AutoscalerConfig(min_nodes=3, max_nodes=5)),
        middleware=[
            AdmissionControlMiddleware(max_queue_depth=24),
            DeadlineShedMiddleware(relative_deadline=2.5, load_aware=True),
            TimeoutRetryMiddleware(timeout=0.4, max_retries=2, backoff=0.1),
        ],
    )


def run_checked(scheduler: str, seed: int, count: int):
    """Run one fleet, checking the counters before every event and at the
    end; returns the cluster and the number of checks made."""
    cluster = build_cluster(scheduler, seed)
    pop = cluster.events.pop
    checks = 0

    def checked_pop(*args):
        nonlocal checks
        assert_counters_match(cluster)
        checks += 1
        return pop(*args)

    cluster.events.pop = checked_pop
    cluster.submit(make_workload(seed, count))
    result = cluster.run()
    assert_counters_match(cluster)
    finished = result.finished_count + result.tasks_rejected
    assert finished == result.total_tasks
    return cluster, checks


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_counters_match_rescan_after_every_event(scheduler):
    cluster, checks = run_checked(scheduler, seed=3, count=120)
    assert checks >= cluster._events_processed
    # Every feature that moves tasks behind the scheduler's back fired.
    assert sum(node.tasks_ingressed for node in cluster.nodes) > 0
    assert cluster.nodes_failed > 0 and cluster.tasks_lost > 0
    assert cluster.tasks_migrated > 0 and cluster.tasks_checkpointed > 0
    if scheduler != "cfs":  # CFS queues nothing to release or to cap
        assert sum(node.tasks_released for node in cluster.nodes) > 0
        assert cluster.tasks_rejected > 0
    assert cluster.backlog.count == 0


@settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    scheduler=st.sampled_from(SCHEDULERS),
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=80),
)
def test_counters_match_rescan_on_drawn_runs(scheduler, seed, count):
    cluster, _ = run_checked(scheduler, seed, count)
    assert cluster.backlog.count == 0
