"""Earliest Deadline First scheduling.

Tasks are ordered by absolute deadline; the task with the nearest deadline
always runs first, preempting a running task with a later deadline when no
core is idle.  Serverless invocations do not ship deadlines, so tasks without
one are assigned ``arrival + slack_factor * service`` as an implicit deadline
(a common soft-real-time convention), which makes EDF behave similarly to a
slack-aware shortest-job-first policy on FaaS workloads.
"""

from __future__ import annotations

from repro.schedulers.base import HeapQueueScheduler
from repro.simulation.task import Task


class EDFScheduler(HeapQueueScheduler):
    """Preemptive Earliest Deadline First with a centralized queue."""

    name = "edf"
    preemptive = True

    def __init__(self, slack_factor: float = 5.0, default_relative_deadline: float = 10.0) -> None:
        """Args:
        slack_factor: Implicit deadline multiplier over service time for
            tasks that do not carry an explicit deadline.
        default_relative_deadline: Fallback relative deadline (s) for tasks
            whose implicit deadline cannot be derived.
        """
        super().__init__()
        if slack_factor <= 0:
            raise ValueError(f"slack_factor must be positive, got {slack_factor!r}")
        if default_relative_deadline <= 0:
            raise ValueError(
                f"default_relative_deadline must be positive, got {default_relative_deadline!r}"
            )
        self.slack_factor = slack_factor
        self.default_relative_deadline = default_relative_deadline

    def describe(self) -> str:
        return "EDF (preemptive earliest deadline first)"

    def deadline_of(self, task: Task) -> float:
        if task.deadline is not None:
            return task.deadline
        implicit = task.arrival_time + self.slack_factor * task.service_time
        return min(implicit, task.arrival_time + self.default_relative_deadline)

    def _heap_key(self, task: Task) -> float:
        return self.deadline_of(task)
