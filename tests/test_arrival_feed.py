"""The one arrival feed: a sorted cursor merged into the drain loop.

Arrivals never enter the event heap.  ``submit`` sorts its tasks into the
cursor (equal times keep list order) and a stream feeds it one chunk at a
time; the drain loop fires the next arrival after the completions at its
instant and before every other event there, on both feeds alike.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterSimulator
from repro.cluster.simulator import READMIT_TAG
from repro.schedulers.fifo import FIFOScheduler
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationError, Simulator, simulate
from repro.simulation.events import EventPriority
from repro.simulation.machine import Machine
from repro.simulation.task import Task, make_tasks
from repro.workload.streaming import StreamingWorkload


class BatchSource(StreamingWorkload):
    """A stream replaying fixed ``(arrival, service)`` batches."""

    def __init__(self, batches):
        self._batches = batches

    def total_hint(self):
        return None

    def batches(self):
        task_id = 0
        for batch in self._batches:
            tasks = []
            for arrival, service in batch:
                tasks.append(
                    Task(task_id=task_id, arrival_time=arrival, service_time=service)
                )
                task_id += 1
            yield tasks


def build_sim(num_cores=2):
    config = SimulationConfig(num_cores=num_cores)
    return Simulator(Machine(config), FIFOScheduler(), config=config)


def fleet():
    return ClusterSimulator(
        ClusterConfig(num_nodes=2, cores_per_node=1, scheduler="fifo", dispatcher="jsq")
    )


class TestCursor:
    def test_submit_puts_no_arrival_on_the_heap(self):
        sim = build_sim()
        sim.submit(make_tasks([(0.0, 1.0), (0.5, 1.0), (0.5, 0.2)]))
        assert len(sim.events) == 0
        cluster = fleet()
        cluster.submit(make_tasks([(0.0, 1.0), (0.5, 1.0)]))
        assert len(cluster.events) == 0

    def test_submit_sorts_by_arrival_keeping_list_order_on_ties(self):
        sim = build_sim(num_cores=4)
        arrived = []
        sim.hooks.subscribe("task_arrived", lambda task, now: arrived.append(task.task_id))
        sim.submit(make_tasks([(2.0, 0.1), (1.0, 0.1), (2.0, 0.1), (1.0, 0.1)]))
        sim.submit([Task(task_id=9, arrival_time=1.0, service_time=0.1)])
        sim.run()
        assert arrived == [1, 3, 9, 0, 2]

    def test_readmission_at_a_fed_arrival_instant_fires_after_it(self):
        """A runtime ARRIVAL-priority event (here a re-admission) tied with
        a fed arrival goes second, on a task list and on a stream alike."""
        specs = [(0.0, 0.5), (1.0, 0.5), (1.0, 0.5), (2.0, 0.5)]

        def arrival_order(feed):
            cluster = fleet()
            arrived = []
            cluster.hooks.subscribe(
                "task_arrived", lambda task, now: arrived.append((now, task.task_id))
            )
            feed(cluster)
            # What losing a task to a failed node queues: a re-admission of
            # a task the run already took in.
            lost = Task(task_id=99, arrival_time=0.0, service_time=0.5)
            cluster._unfinished += 1
            cluster._readmissions += 1
            cluster.events.push(
                1.0, None, priority=EventPriority.ARRIVAL, tag=READMIT_TAG, payload=lost
            )
            cluster.run()
            assert lost.is_finished
            return arrived

        listed = arrival_order(lambda c: c.submit(make_tasks(specs)))
        streamed = arrival_order(
            lambda c: c.submit_stream(BatchSource([specs[:2], specs[2:]]), chunk=1)
        )
        assert listed == [(0.0, 0), (1.0, 1), (1.0, 2), (1.0, 99), (2.0, 3)]
        assert streamed == listed


class TestStreamOrder:
    @pytest.mark.parametrize(
        "chunk", [2, 8], ids=["across-chunks", "within-a-chunk"]
    )
    def test_backwards_arrival_fails_naming_task_and_times(self, chunk):
        source = BatchSource([[(0.0, 0.1), (2.0, 0.1)], [(1.5, 0.1)]])
        with pytest.raises(SimulationError, match=r"task 2 arrives at t=1\.5.*t=2\.0"):
            simulate(
                FIFOScheduler(), source, config=SimulationConfig(num_cores=2), chunk=chunk
            )


class TestOneFeed:
    def test_submit_then_stream_is_refused(self):
        sim = build_sim()
        sim.submit(make_tasks([(0.0, 1.0)]))
        with pytest.raises(SimulationError):
            sim.submit_stream(BatchSource([[(0.0, 1.0)]]))

    def test_stream_then_submit_is_refused(self):
        cluster = fleet()
        cluster.submit_stream(BatchSource([[(0.0, 1.0)]]))
        with pytest.raises(SimulationError):
            cluster.submit(make_tasks([(0.0, 1.0)]))
