"""Per-task memory of materialised inputs.

Allocated bytes, unlike host time, do not depend on the machine: they
change only when an object gains a field or a run starts keeping what it
used to drop.  The paper's single-machine study holds 62,687 tasks per
scheduler, so each case here bounds what one generated task or workload
item costs, or checks that a run (single-machine or fleet) leaves the
metadata of tasks nothing annotated unallocated.

Bytes measured with CPython 3.11 and numpy 2.4, at three stages:

==================  ======  =======  =========
case                items   columns  placement
==================  ======  =======  =========
task                   410      236        252
workload item          162       82         82
==================  ======  =======  =========

"Items" is a list of ``WorkloadItem`` objects, each task carrying a
``{"function_id": ...}`` dict.  "Columns" made workload items columns and
the metadata dict allocate-on-first-use.  "Placement" added the fleet's
``node_id`` and ``ingress_wait`` fields, 8 B each, which a fleet run used
to keep in every delivered task's metadata dict.
"""

from __future__ import annotations

import sys
import tracemalloc
from dataclasses import replace

import pytest

from repro.cluster import ClusterConfig, NetworkSpec, simulate_cluster
from repro.cluster.dispatchers import function_key
from repro.core.config import PAPER_FIXED_TIME_LIMIT
from repro.middleware import AdmissionControlMiddleware
from repro.scenario import Scenario, run
from repro.scenario.workloads import two_minute_workload
from repro.simulation.task import make_tasks
from repro.workload.azure import AzureTraceConfig, generate_trace
from repro.workload.extraction import ExtractionPipeline
from repro.workload.generator import WorkloadGenerator, WorkloadSpec, items_to_tasks

#: Bytes one generated task may hold, its float values excluded (they are
#: the items' own objects).
TASK_BYTES = 260

#: Bytes one columnar workload item may hold: four tuple slots, two floats
#: and, above 256 MB, one memory-size int.
ITEM_BYTES = 100

#: The workload each byte count is taken over.
SPEC = WorkloadSpec(minutes=2, limit=5_000)

SINGLE_MACHINE = {
    "fifo": Scenario(scheduler="fifo", num_cores=50),
    "cfs": Scenario(scheduler="cfs", num_cores=50),
    "hybrid": Scenario(
        scheduler="hybrid",
        scheduler_kwargs={
            "fifo_cores": 25,
            "cfs_cores": 25,
            "time_limit": PAPER_FIXED_TIME_LIMIT,
        },
        num_cores=50,
    ),
}


@pytest.fixture(scope="module")
def generator():
    trace = generate_trace(AzureTraceConfig(minutes=2))
    return WorkloadGenerator(ExtractionPipeline().run(trace))


def traced_bytes(build):
    """``(result, bytes the result still holds)`` of calling ``build``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.mark.skipif(
    sys.version_info < (3, 10), reason="Task has no __slots__ before Python 3.10"
)
def test_bytes_per_generated_task(generator):
    items = generator.generate_items(SPEC)
    tasks, held = traced_bytes(lambda: items_to_tasks(items))
    per_task = held / len(tasks)
    assert per_task <= TASK_BYTES, f"{per_task:.0f} B per task, budget {TASK_BYTES}"


def test_bytes_per_columnar_item(generator):
    generator.generate_items(SPEC)  # warm numpy and the interpreter's caches
    items, held = traced_bytes(lambda: generator.generate_items(SPEC))
    per_item = held / len(items)
    assert per_item <= ITEM_BYTES, f"{per_item:.0f} B per item, budget {ITEM_BYTES}"


def test_tasks_share_the_items_floats(generator):
    items = generator.generate_items(WorkloadSpec(minutes=2, limit=50))
    first, second = items_to_tasks(items), items_to_tasks(items)
    for a, b in zip(first, second):
        assert a.arrival_time is b.arrival_time
        assert a.service_time is b.service_time


@pytest.mark.parametrize("scheduler", sorted(SINGLE_MACHINE))
def test_single_machine_run_allocates_no_metadata(scheduler):
    tasks = two_minute_workload(0.05)
    outcome = run(SINGLE_MACHINE[scheduler], tasks=tasks)
    assert len(outcome.task_columns()) == len(tasks)
    assert all(task._metadata is None for task in tasks)


def test_fleet_run_and_its_readers_allocate_no_metadata():
    """Placement lives in task fields, and reading an optional annotation
    allocates nothing: after a fleet run with RTT ingress, rejections and
    work stealing, and after every reader of optional annotations, a task
    either has no metadata dict or one that something wrote to."""
    # No function_id field: consistent hashing falls back to the metadata.
    tasks = make_tasks([(i * 0.004, 0.05 + (i % 7) * 0.03) for i in range(400)])
    config = ClusterConfig(
        num_nodes=3,
        cores_per_node=2,
        scheduler="fifo",
        dispatcher="consistent_hash",
        network=NetworkSpec(rtt=0.01),
        migration="work_stealing",
        migration_kwargs={"interval": 0.05},
    )
    admission = AdmissionControlMiddleware(max_queue_depth=20)
    result = simulate_cluster(tasks, config=config, middleware=[admission])
    rejected = {task.task_id for task in result.rejected_tasks()}
    migrated = {task.task_id for task in result.migrated_tasks()}
    assert rejected and migrated and not result.lost_tasks()
    assert len({function_key(task) for task in tasks}) == len(tasks)
    assert sum(result.tasks_per_node().values()) == result.finished_count
    assert result.ingress_waits().min() > 0.0
    assert result.tasks_ingressed() == replace(result, node_stats={}).tasks_ingressed()
    annotated = rejected | migrated
    for task in tasks:
        if task.task_id in annotated:
            assert task._metadata, task
        else:
            assert task._metadata is None, task
