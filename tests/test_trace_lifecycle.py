"""Trace lifecycle invariant: a task is in exactly one traced state at a time.

Over every dispatcher and both fleet shapes of ``test_cluster.py``, plain
and with RTT, chaos and retry variants, each task's ``queued`` / ``run`` /
``wire`` / ``migrate`` / ``backoff`` spans must never overlap, a finished
task's last ``run`` span must end at its completion time, and no task span
may still be open when the run's end-of-run drain (``Tracer.finish``) runs.
Each run also conserves its tasks: submitted = finished + rejected +
unserved, the nodes' stolen-in counts sum to the migrated count, and no
task id is recorded twice.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.cluster import ClusterConfig, available_dispatchers, simulate_cluster
from repro.cluster.autoscaler import AutoscalerConfig, ReactiveAutoscaler
from repro.cluster.config import NetworkSpec
from repro.core.hybrid import HybridScheduler
from repro.experiments.common import paper_hybrid_config, two_minute_workload
from repro.middleware import TimeoutRetryMiddleware
from repro.simulation.engine import simulate
from repro.telemetry import TelemetrySpec, Tracer
from test_cluster import FLEET_SHAPES

#: Span names that put a task in one lifecycle state.
TASK_STATES = {"queued", "run", "wire", "migrate", "checkpoint-migrate", "backoff"}
#: Tracer keys of those spans.
TASK_KEYS = {"q", "r", "w", "m", "b"}

#: Variant -> (extra config, fresh run kwargs, states its tasks must pass).
VARIANTS = {
    "plain": ({}, dict, {"queued", "run"}),
    "rtt": (
        dict(network=NetworkSpec(rtt=0.05), migration="work_stealing"),
        dict,
        {"wire", "queued", "run", "migrate"},
    ),
    "chaos": (
        dict(
            network=NetworkSpec(rtt=0.01),
            migration="work_stealing",
            migration_kwargs={"interval": 0.1, "checkpoint": True},
            chaos={
                "crash_rate": 0.05,
                "revocation_rate": 0.05,
                "warning": 0.01,
                "max_failures": 8,
            },
        ),
        lambda: dict(
            autoscaler=ReactiveAutoscaler(
                AutoscalerConfig(min_nodes=2, max_nodes=6, check_interval=0.5)
            )
        ),
        {"wire", "queued", "run", "migrate", "checkpoint-migrate"},
    ),
    "retry": (
        dict(network=NetworkSpec(rtt=0.02), migration="work_stealing"),
        lambda: dict(middleware=[TimeoutRetryMiddleware(timeout=0.2, max_retries=2)]),
        {"wire", "queued", "run", "backoff"},
    ),
}


class _RecordingTracer(Tracer):
    """A tracer that remembers which spans were still open at ``finish``."""

    __slots__ = ("open_at_finish",)

    def finish(self, now: float) -> None:
        self.open_at_finish = sorted(self._open)
        super().finish(now)


def traced_telemetry():
    telemetry = TelemetrySpec(max_events=None).build()
    telemetry.tracer = _RecordingTracer()
    return telemetry


def assert_lifecycle(result, tracer) -> None:
    spans = defaultdict(list)
    for name, _pid, _tid, start, end, task_id in result.telemetry.spans:
        if name in TASK_STATES:
            assert start <= end, (name, task_id, start, end)
            spans[task_id].append((start, end, name))
    assert spans, "the run traced no task"
    for task_id, task_spans in spans.items():
        task_spans.sort()
        for (_, prev_end, prev), (start, _, name) in zip(task_spans, task_spans[1:]):
            assert start >= prev_end, (
                f"task {task_id}: {name} starts at {start} inside {prev} "
                f"ending at {prev_end}"
            )
    for task in result.tasks:
        if task.completion_time is None:
            continue
        runs = [span for span in spans[task.task_id] if span[2] == "run"]
        assert runs and max(end for _, end, _ in runs) == task.completion_time
    left_open = [key for key in tracer.open_at_finish if key[0] in TASK_KEYS]
    assert left_open == []


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("fleet", sorted(FLEET_SHAPES))
@pytest.mark.parametrize("dispatcher", available_dispatchers())
def test_cluster_task_states_never_overlap(dispatcher, fleet, variant):
    extra_config, run_kwargs, states = VARIANTS[variant]
    config = ClusterConfig(
        scheduler="fifo",
        dispatcher=dispatcher,
        seed=3,
        **FLEET_SHAPES[fleet],
        **extra_config,
    )
    telemetry = traced_telemetry()
    result = simulate_cluster(
        two_minute_workload(0.03), config=config, telemetry=telemetry, **run_kwargs()
    )
    assert result.completion_ratio == 1.0
    names = {span[0] for span in result.telemetry.spans}
    assert names >= states, names
    assert_lifecycle(result, telemetry.tracer)
    assert_conservation(result)


def assert_conservation(result) -> None:
    """Every submitted task is finished, rejected or unserved, once."""
    task_ids = result.task_columns().data["task_id"]
    unserved = [
        task for task in result.tasks
        if not task.is_finished and "rejected" not in task.metadata
    ]
    assert result.tasks_submitted == (
        len(task_ids) + result.tasks_rejected + len(unserved)
    )
    stolen_in = sum(stats["stolen_in"] for stats in result.node_stats.values())
    assert stolen_in == result.tasks_migrated
    assert len(set(task_ids.tolist())) == len(task_ids)


def test_standalone_hybrid_task_states_never_overlap():
    telemetry = traced_telemetry()
    result = simulate(
        HybridScheduler(paper_hybrid_config()),
        two_minute_workload(0.05),
        telemetry=telemetry,
    )
    assert_lifecycle(result, telemetry.tracer)
