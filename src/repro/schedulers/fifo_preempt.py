"""FIFO with a preemption quantum ("FIFO 100ms" in the paper, Fig. 5).

Tasks run in FIFO order, but a task that has been running for longer than the
quantum is preempted and moved to the *end* of the global queue, alleviating
head-of-line blocking at the price of extra execution time (Observation 3).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.schedulers.base import CentralizedQueueScheduler
from repro.simulation.cpu import Core
from repro.simulation.events import Event
from repro.simulation.task import Task


class FIFOPreemptScheduler(CentralizedQueueScheduler):
    """FIFO with a fixed preemption time limit per dispatch."""

    name = "fifo_preempt"

    def __init__(self, quantum: float = 0.100) -> None:
        """Args:
        quantum: Maximum uninterrupted running time before the task is
            preempted and re-queued (100 ms in the paper's Fig. 5).
        """
        super().__init__()
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum!r}")
        self.quantum = quantum
        self._timers: Dict[int, Event] = {}

    def describe(self) -> str:
        return f"FIFO with {self.quantum * 1000:.0f} ms preemption"

    # ------------------------------------------------------------------ hooks

    def on_task_started(self, task: Task, core: Core) -> None:
        self._arm_timer(task, core)

    def on_task_finished(self, task: Task, core: Core) -> None:
        self._disarm_timer(task)
        self.dispatch(core)

    # ----------------------------------------------------------------- timers

    def _arm_timer(self, task: Task, core: Core) -> None:
        handle = self.sim.schedule_timer(
            self.quantum,
            lambda t=task, c=core: self._on_quantum_expired(t, c),
            tag=f"fifo-preempt-{task.task_id}",
        )
        self._timers[task.task_id] = handle

    def _disarm_timer(self, task: Task) -> None:
        handle = self._timers.pop(task.task_id, None)
        if handle is not None:
            handle.cancel()

    def _on_quantum_expired(self, task: Task, core: Core) -> None:
        self._timers.pop(task.task_id, None)
        if task.is_finished or not core.has_task(task):
            return
        # Only preempt when somebody is actually waiting; otherwise let the
        # task keep the core and re-arm the timer for another quantum.
        if not self.queue:
            self._arm_timer(task, core)
            return
        self.sim.stop_task(task, core, preempted=True)
        self.push(task)
        self.dispatch(core)
