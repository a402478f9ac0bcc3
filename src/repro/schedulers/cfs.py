"""Completely Fair Scheduler (the Linux default) model.

Every core keeps its own run queue; all runnable tasks on a core share the
core fairly (equal weights), which is the fluid limit of CFS's
smallest-vruntime-first time slicing.  Context-switch overhead is charged per
slice by the core's :class:`~repro.simulation.context_switch.ContextSwitchModel`.

Placement follows the kernel's wake-up balancing in spirit: an arriving task
is put on the least-loaded core, and an optional periodic load balancer evens
out run-queue lengths, mimicking the scheduler domains' rebalance tick.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.schedulers.base import Scheduler
from repro.simulation.cpu import Core
from repro.simulation.task import Task


class CFSScheduler(Scheduler):
    """Per-core fair-sharing scheduler with least-loaded task placement."""

    name = "cfs"

    def __init__(
        self,
        balance_interval: float = 0.25,
        enable_load_balancing: bool = True,
        balance_threshold: int = 2,
    ) -> None:
        """Args:
        balance_interval: Period (s) of the load-balancing pass.
        enable_load_balancing: Disable to study pure arrival-time placement.
        balance_threshold: Minimum run-queue length difference between the
            most- and least-loaded cores before a task is migrated.
        """
        super().__init__()
        if balance_interval <= 0:
            raise ValueError(f"balance_interval must be positive, got {balance_interval!r}")
        if balance_threshold < 1:
            raise ValueError(f"balance_threshold must be >= 1, got {balance_threshold!r}")
        self.balance_interval = balance_interval
        self.enable_load_balancing = enable_load_balancing
        self.balance_threshold = balance_threshold
        self.tasks_migrated_by_balancer = 0

    def describe(self) -> str:
        return "CFS (per-core fair time slicing, least-loaded placement)"

    # ------------------------------------------------------------------ hooks

    def on_start(self) -> None:
        if self.enable_load_balancing:
            self.sim.schedule_every(
                self.balance_interval, self._balance_once, "cfs-load-balance"
            )

    def on_task_arrival(self, task: Task) -> None:
        core = self._pick_core()
        if core is None:
            raise RuntimeError("CFS scheduler found no unlocked core for placement")
        self.sim.start_task(task, core)

    def on_task_finished(self, task: Task, core: Core) -> None:
        # Nothing to dispatch: every runnable task is already on a core and
        # the remaining tasks on this core simply absorb the freed share.
        return

    # -------------------------------------------------------------- placement

    def _pick_core(self) -> Optional[Core]:
        return self.machine.least_loaded_core(self.default_group())

    # --------------------------------------------------------- load balancing

    def _balance_once(self, now: float) -> None:
        """Move one task from the busiest to the idlest core when imbalanced."""
        cores = [
            core
            for core in self.machine.group_cores(self.default_group())
            if not core.locked
        ]
        if len(cores) < 2:
            return
        busiest, idlest = busiest_and_idlest(cores)
        if busiest.nr_running - idlest.nr_running < self.balance_threshold:
            return
        # Migrate the task with the largest remaining work: it benefits most
        # from the emptier queue and this mirrors CFS picking from the tail of
        # the busiest runqueue.
        candidates = busiest.tasks
        if not candidates:
            return
        task = max(candidates, key=lambda t: t.remaining)
        self.sim.stop_task(task, busiest, preempted=True)
        self.sim.start_task(task, idlest)
        self.tasks_migrated_by_balancer += 1


def busiest_and_idlest(cores: Sequence[Core]) -> Tuple[Core, Core]:
    """The cores with the most and the fewest runnable tasks, in one pass.

    Ties go to the first such core, as with ``max``/``min(key=nr_running)``.
    """
    busiest = idlest = cores[0]
    most = least = busiest.nr_running
    for core in cores:
        nr = core.nr_running
        if nr > most:
            busiest, most = core, nr
        elif nr < least:
            idlest, least = core, nr
    return busiest, idlest
