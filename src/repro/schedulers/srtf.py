"""Shortest Remaining Time First (preemptive).

The policy that SFS (Fu et al., SC'22) — the closest related work discussed
in §VIII — approximates for serverless functions.  An arriving short task may
preempt the running task with the largest remaining work; completions always
hand the core to the waiting task with the least remaining work.
"""

from __future__ import annotations

from repro.schedulers.base import HeapQueueScheduler
from repro.simulation.task import Task


class SRTFScheduler(HeapQueueScheduler):
    """Preemptive shortest remaining time first with a centralized queue."""

    name = "srtf"
    preemptive = True

    def __init__(self, preemption_margin: float = 0.0) -> None:
        """Args:
        preemption_margin: A running task is only preempted when its
            remaining work exceeds the newcomer's by more than this margin
            (seconds), which damps thrashing between near-equal tasks.
        """
        super().__init__()
        if preemption_margin < 0:
            raise ValueError(
                f"preemption_margin must be >= 0, got {preemption_margin!r}"
            )
        self.preemption_margin = preemption_margin

    def describe(self) -> str:
        return "SRTF (preemptive shortest remaining time first)"

    def _heap_key(self, task: Task) -> float:
        return task.remaining
