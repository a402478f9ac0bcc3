"""Scheduler base class.

A scheduler reacts to three kinds of events — task arrivals, task completions
and its own timers — and acts on the machine exclusively through the
simulator (``start_task`` / ``stop_task`` / ``drain_core``), which keeps core
bookkeeping and pending completion events consistent.
"""

from __future__ import annotations

import heapq
import itertools
from abc import ABC, abstractmethod
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.simulation.cpu import Core
from repro.simulation.machine import DEFAULT_GROUP, Machine
from repro.simulation.task import Task


class Backlog:
    """A running count of queued, never-run tasks that many queues add
    their enqueue and dequeue deltas to, so the total reads in O(1)."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


class Scheduler(ABC):
    """Abstract base for all scheduling policies."""

    #: Short machine-readable name, used by the registry and result labels.
    name: str = "base"

    def __init__(self) -> None:
        self.sim = None
        self.machine: Optional[Machine] = None
        #: Queued tasks that never ran, kept by every enqueue and dequeue,
        #: and the total they roll up into (a cluster shares one fleet-wide).
        self.backlog = 0
        self.fleet_backlog = Backlog()

    # ----------------------------------------------------------------- wiring

    def attach(self, simulator) -> None:
        """Bind this scheduler to a simulator (called by the engine)."""
        self.sim = simulator
        self.machine = simulator.machine

    def preferred_groups(self, num_cores: int) -> Optional[Dict[str, int]]:
        """Core-group layout this policy wants; ``None`` means one group."""
        return None

    @property
    def now(self) -> float:
        if self.sim is None:
            raise RuntimeError(f"scheduler {self.name!r} is not attached to a simulator")
        return self.sim.now

    # ------------------------------------------------------------- callbacks

    def on_start(self) -> None:
        """Called once when the simulation starts."""

    @abstractmethod
    def on_task_arrival(self, task: Task) -> None:
        """A new invocation arrived and must be queued or started."""

    @abstractmethod
    def on_task_finished(self, task: Task, core: Core) -> None:
        """A task completed on ``core``; the core may now take other work."""

    def on_end(self) -> None:
        """Called once after the last event."""

    # -------------------------------------------------------------- helpers

    def first_idle_core(self, group: Optional[str] = None) -> Optional[Core]:
        """Lowest-id idle, unlocked core (deterministic tie-breaking)."""
        return self.machine.first_idle_core(group)

    def default_group(self) -> str:
        """Name of the single group used by non-hybrid policies."""
        if self.machine is None:
            return DEFAULT_GROUP
        if DEFAULT_GROUP in self.machine.groups:
            return DEFAULT_GROUP
        return next(iter(self.machine.groups))

    # ------------------------------------------------------- steal surface

    def stealable_tasks(self) -> List[Task]:
        """Queued tasks another node could take over, in queue order.

        The cluster's work-stealing layer reads this on its migration tick.
        Policies that bind tasks to cores on arrival (e.g. CFS) have no
        stealable backlog and keep the default empty answer.
        """
        return []

    def remove_queued_task(self, task: Task) -> bool:
        """Remove one queued task (it is migrating away); False if not queued.

        Matching is by identity, never equality — the cluster moves *this*
        invocation, not one that happens to compare equal.
        """
        return False

    def stealable_count(self) -> int:
        """Number of queued, never-run tasks: an O(1) counter read.

        Every queue discipline calls :meth:`_enqueued` / :meth:`_dequeued`
        as a task enters or leaves its queue.  ``first_run_time`` is set
        only on a core, so "never ran" cannot change while a task waits.
        """
        return self.backlog

    def _enqueued(self, task: Task) -> None:
        """Count ``task`` into the backlog if it never ran (every enqueue)."""
        if task.first_run_time is None:
            self.backlog += 1
            self.fleet_backlog.count += 1

    def _dequeued(self, task: Task) -> None:
        """Count ``task`` out of the backlog if it never ran (every dequeue)."""
        if task.first_run_time is None:
            self.backlog -= 1
            self.fleet_backlog.count -= 1

    def describe(self) -> str:
        """One-line human description used in reports."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class HeapQueueScheduler(Scheduler):
    """Shared helper for policies queueing in a heap of ``(key, seq, task)``
    tuples (SJF, SRTF, EDF): the smallest :meth:`_heap_key` runs next.

    A :attr:`preemptive` policy lets an arrival that finds no idle core
    displace the running task with the largest key, when that key exceeds
    the newcomer's by more than :attr:`preemption_margin`.  Removal swaps
    the victim with the tail and re-heapifies — O(n), which is fine at
    migration-tick granularity.
    """

    preemptive = False
    preemption_margin = 0.0

    def __init__(self) -> None:
        super().__init__()
        self._heap: List[Tuple[float, int, Task]] = []
        self._seq = itertools.count()

    @abstractmethod
    def _heap_key(self, task: Task) -> float:
        """Queue order: the task with the smallest key runs first."""

    def _push(self, task: Task) -> None:
        task.mark_queued()
        self._enqueued(task)
        heapq.heappush(self._heap, (self._heap_key(task), next(self._seq), task))

    def _pop(self) -> Optional[Task]:
        if not self._heap:
            return None
        task = heapq.heappop(self._heap)[2]
        self._dequeued(task)
        return task

    @property
    def queue_length(self) -> int:
        return len(self._heap)

    def on_task_arrival(self, task: Task) -> None:
        core = self.first_idle_core(self.default_group())
        if core is None and self.preemptive:
            core = self._preemptible_core(task)
            if core is not None:
                victim = core.current_task
                self.sim.stop_task(victim, core, preempted=True)
                self._push(victim)
        if core is None:
            self._push(task)
        else:
            self.sim.start_task(task, core)

    def on_task_finished(self, task: Task, core: Core) -> None:
        next_task = self._pop()
        if next_task is not None:
            self.sim.start_task(next_task, core)

    def _preemptible_core(self, task: Task) -> Optional[Core]:
        """The busy core running the largest key, if ``task`` should take it."""
        busy = [
            core
            for core in self.machine.group_cores(self.default_group())
            if core.is_busy and not core.locked
        ]
        if not busy:
            return None
        core = max(busy, key=lambda c: self._heap_key(c.current_task))
        victim = core.current_task
        if (
            victim is not None
            and self._heap_key(victim) > self._heap_key(task) + self.preemption_margin
        ):
            return core
        return None

    def stealable_tasks(self) -> List[Task]:
        return [entry[-1] for entry in sorted(self._heap, key=lambda e: e[:2])]

    def remove_queued_task(self, task: Task) -> bool:
        for index, entry in enumerate(self._heap):
            if entry[-1] is task:
                self._heap[index] = self._heap[-1]
                self._heap.pop()
                heapq.heapify(self._heap)
                self._dequeued(task)
                return True
        return False


class CentralizedQueueScheduler(Scheduler):
    """Shared helper for policies built around a single global queue.

    Subclasses override :meth:`pop_next` (queue discipline) and optionally
    :meth:`on_task_started` / :meth:`should_preempt_for` to add preemption.
    """

    def __init__(self) -> None:
        super().__init__()
        self.queue: Deque[Task] = deque()

    # Queue discipline -------------------------------------------------------

    def push(self, task: Task) -> None:
        """Re-queue a task at the tail of the global queue."""
        task.mark_queued()
        self._enqueued(task)
        self.queue.append(task)

    def pop_next(self) -> Optional[Task]:
        """Remove and return the next task to run (default: FIFO head)."""
        if not self.queue:
            return None
        task = self.queue.popleft()
        self._dequeued(task)
        return task

    @property
    def queue_length(self) -> int:
        return len(self.queue)

    def stealable_tasks(self) -> List[Task]:
        return list(self.queue)

    def remove_queued_task(self, task: Task) -> bool:
        for index, queued in enumerate(self.queue):
            if queued is task:
                del self.queue[index]
                self._dequeued(task)
                return True
        return False

    # Dispatch ----------------------------------------------------------------

    def dispatch(self, core: Core) -> Optional[Task]:
        """Start the next queued task on ``core`` if any is waiting."""
        task = self.pop_next()
        if task is None:
            return None
        self.sim.start_task(task, core)
        self.on_task_started(task, core)
        return task

    def on_task_started(self, task: Task, core: Core) -> None:
        """Hook invoked right after a task starts on a core."""

    # Default event handling ---------------------------------------------------

    def on_task_arrival(self, task: Task) -> None:
        core = self.first_idle_core(self.default_group())
        if core is not None:
            self.sim.start_task(task, core)
            self.on_task_started(task, core)
        else:
            # The event loop (or the cluster node) marked the arrival queued.
            self._enqueued(task)
            self.queue.append(task)

    def on_task_finished(self, task: Task, core: Core) -> None:
        self.dispatch(core)
