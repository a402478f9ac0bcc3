"""Shortest Job First (non-preemptive).

An oracle policy: the scheduler is assumed to know every invocation's service
time up front and always dispatches the shortest waiting job.  It provides a
useful lower bound on queueing delay for short functions and is one of the
points in the Fig. 23 cost/latency comparison.
"""

from __future__ import annotations

from repro.schedulers.base import HeapQueueScheduler
from repro.simulation.task import Task


class SJFScheduler(HeapQueueScheduler):
    """Non-preemptive shortest job first with a centralized queue."""

    name = "sjf"

    def describe(self) -> str:
        return "SJF (non-preemptive shortest job first, oracle durations)"

    def _heap_key(self, task: Task) -> float:
        return task.service_time
