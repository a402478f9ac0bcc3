"""Core model.

A :class:`Core` executes the tasks currently assigned to it using *weighted
processor sharing*:

* With a single assigned task the core behaves exactly like a dedicated,
  run-to-completion core — full speed, no context switches.  This is how the
  FIFO policy (and the FIFO side of the hybrid scheduler) uses cores.
* With several assigned tasks the core splits its capacity equally among
  them, paying the context-switch overhead dictated by the
  :class:`~repro.simulation.context_switch.ContextSwitchModel`.  This is the
  fluid-limit of CFS time slicing with equal weights and is how the CFS
  policy (and the CFS side of the hybrid scheduler) uses cores.

Both behaviours come from the same primitive, so a core can migrate between
the FIFO and CFS groups at runtime (Fig. 8 of the paper) without changing its
type — only the scheduler's usage pattern changes.

**Virtual-time accounting.**  Service is shared in proportion to each task's
``weight`` (1.0 by default — the equal-share case).  The core keeps one
monotonically increasing counter — the *attained service per unit weight*
(``_attained``) — advanced in O(1) at each sync.  Each task records the
counter value at assignment; the service it accrued since is
``(attained_now - attained_at_entry) * weight`` and is folded into the
task's concrete fields lazily (on read, deschedule or completion).  Each
task's *virtual finish point* (``attained_at_entry + remaining_at_entry /
weight``) sits in a per-core min-heap, so the next completion is an
O(log n) peek instead of an O(n) scan and per-event cost no longer grows
with the multiprogramming level.  Heap entries are invalidated lazily;
writes to ``task.remaining`` (e.g. migration-cost charges) re-key the entry.
With every weight at 1.0 the arithmetic reduces exactly (bit-identically)
to the equal-share model: the total weight is the float ``n`` and every
``* weight`` / ``/ weight`` multiplies or divides by exactly 1.0.

All methods take the current simulation time explicitly; a core never reads
the clock itself, which keeps it trivially testable.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.simulation.clock import TIME_EPSILON
from repro.simulation.context_switch import ContextSwitchModel
from repro.simulation.task import Task

#: Remaining service below this is treated as "finished" (float safety margin).
REMAINING_EPSILON = 1e-9

#: Rebase the attained-service counter past this value (see :meth:`Core._rebase`):
#: one double ULP approaches REMAINING_EPSILON once the counter nears ~4.5e6.
ATTAINED_REBASE_THRESHOLD = 1e6


def _ignore_load(core: "Core") -> None:
    """Load listener of a core no machine indexes (standalone cores)."""


class CoreMode(Enum):
    """How a scheduler intends to use a core.

    The mode is an *invariant check*, not a behaviour switch: ``DEDICATED``
    cores refuse a second concurrent task, which is how FIFO-style policies
    guarantee run-to-completion semantics.
    """

    DEDICATED = "dedicated"
    FAIR_SHARE = "fair_share"


@dataclass
class CoreStats:
    """Cumulative per-core accounting used by the metric collector."""

    busy_time: float = 0.0
    service_delivered: float = 0.0
    explicit_preemptions: int = 0
    estimated_context_switches: float = 0.0
    tasks_started: int = 0
    tasks_completed: int = 0
    migrations_in: int = 0
    migrations_out: int = 0

    @property
    def total_preemptions(self) -> float:
        """Explicit (scheduler-driven) plus estimated slice-expiry preemptions."""
        return self.explicit_preemptions + self.estimated_context_switches


class Core:
    """A single CPU core executing its assigned tasks by processor sharing."""

    __slots__ = (
        "core_id",
        "group",
        "mode",
        "speed",
        "locked",
        "stats",
        "_cs_model",
        "_migration_cost",
        "_tasks",
        "_last_update",
        "_completion_handle",
        "_engine",
        "_attained",
        "_total_weight",
        "_rate",
        "_switch_rate",
        "_rates_by_count",
        "_vstart",
        "_entries",
        "_finish_heap",
        "_entry_seq",
        "_load_listener",
    )

    def __init__(
        self,
        core_id: int,
        group: str,
        context_switch: Optional[ContextSwitchModel] = None,
        mode: CoreMode = CoreMode.FAIR_SHARE,
        migration_cost: float = 0.0,
        speed: float = 1.0,
    ) -> None:
        if speed <= 0:
            raise ValueError(f"core speed must be positive, got {speed!r}")
        self.core_id = core_id
        self.group = group
        self.mode = mode
        self.speed = speed
        self.locked = False
        self.stats = CoreStats()
        self._cs_model = context_switch or ContextSwitchModel()
        self._migration_cost = migration_cost
        self._tasks: Dict[int, Task] = {}
        self._last_update = 0.0
        # Opaque handle for the pending completion event; owned by the simulator.
        self._completion_handle = None
        # The engine driving this core; set by the simulator so shared-queue
        # (cluster) runs can route tag-dispatched completion events home.
        self._engine = None
        # --- virtual-time accounting ---------------------------------------
        #: Cumulative service attained per unit weight since this core was
        #: built (equal to per-task service while every weight is 1.0).
        self._attained = 0.0
        #: Sum of the assigned tasks' fair-share weights.
        self._total_weight = 0.0
        #: Service rate per unit weight and context-switch rate of the
        #: current task set; recomputed only when that set changes.
        self._rate = 0.0
        self._switch_rate = 0.0
        #: Context-switch model's (efficiency, switch rate) per task count.
        self._rates_by_count: Dict[int, Tuple[float, float]] = {}
        #: Attained-counter value at each task's last materialization.
        self._vstart: Dict[int, float] = {}
        #: Sequence number of each task's live heap entry (others are stale).
        self._entries: Dict[int, int] = {}
        #: Min-heap of (virtual finish, sequence, task id); lazily invalidated.
        self._finish_heap: List[Tuple[float, int, int]] = []
        self._entry_seq = 0
        # Called with this core after any nr_running / locked change; set by
        # the machine to keep its idle/least-loaded indexes current.
        self._load_listener: Callable[["Core"], None] = _ignore_load

    # ------------------------------------------------------------------ state

    @property
    def tasks(self) -> list[Task]:
        """Tasks currently assigned to this core (unspecified order)."""
        return list(self._tasks.values())

    @property
    def nr_running(self) -> int:
        return len(self._tasks)

    @property
    def is_idle(self) -> bool:
        return not self._tasks

    @property
    def is_busy(self) -> bool:
        return bool(self._tasks)

    @property
    def current_task(self) -> Optional[Task]:
        """The single running task, only meaningful for dedicated usage."""
        if not self._tasks:
            return None
        return next(iter(self._tasks.values()))

    def has_task(self, task: Task) -> bool:
        return task.task_id in self._tasks

    # ------------------------------------------------------------------ rates

    def service_rate(self) -> float:
        """Service rate per unit of fair-share weight (seconds/second).

        A task receives ``service_rate() * task.weight``; with every weight
        at the default 1.0 this is exactly the equal per-task share
        ``speed * efficiency(n) / n``.
        """
        return self._rate

    def time_to_next_completion(self) -> Optional[float]:
        """Seconds until the earliest assigned task completes, or None if idle."""
        rate = self._rate
        if rate <= 0.0:
            return None
        heap = self._finish_heap
        entries = self._entries
        while heap:  # peek the smallest live virtual finish point
            vfinish, seq, task_id = heap[0]
            if entries.get(task_id) != seq:
                heapq.heappop(heap)
                continue
            ahead = vfinish - self._attained
            return (0.0 if ahead < 0.0 else ahead) / rate
        return None

    # ------------------------------------------------- virtual-time plumbing

    def _push_entry(self, task: Task) -> None:
        """(Re-)key ``task``'s virtual finish point in the completion heap."""
        seq = self._entry_seq = self._entry_seq + 1
        task_id = task.task_id
        self._entries[task_id] = seq
        heapq.heappush(
            self._finish_heap,
            (self._attained + task._remaining / task.weight, seq, task_id),
        )

    def materialize(self, task: Task) -> float:
        """Fold attained service into ``task``'s concrete fields; return remaining.

        This is the ``sync``-on-read accessor behind ``task.remaining``: it
        charges the service the task attained since its last materialization
        (its weight's share of the per-unit-weight counter advance, clamped
        at its remaining demand, mirroring the eager model's per-sync clamp)
        and resets its virtual start point.  The virtual finish point is
        unchanged by construction, so no re-keying is needed.
        """
        vstart = self._vstart[task.task_id]
        accrued = (self._attained - vstart) * task.weight
        remaining = task._remaining
        if accrued <= 0.0:
            return remaining
        if accrued >= remaining:
            # The final slice: cap at the remaining demand and return the
            # overshoot (float noise at the completion instant) that the
            # O(1) sync already counted as delivered.
            excess = accrued - remaining
            if excess > 0.0:
                self.stats.service_delivered -= excess
            amount = remaining
        else:
            amount = accrued
        task.cpu_time_received += amount
        task.vruntime += amount
        task._remaining = remaining - amount
        self._vstart[task.task_id] = self._attained
        return task._remaining

    def set_remaining(self, task: Task, value: float) -> None:
        """Write ``task.remaining`` while assigned: materialize, set, re-key."""
        self.materialize(task)
        task._remaining = value
        self._push_entry(task)

    def _attach(self, task: Task) -> None:
        self._tasks[task.task_id] = task
        task._core = self
        self._total_weight += task.weight
        self._vstart[task.task_id] = self._attained
        self._push_entry(task)
        self._rates_changed()

    def _detach(self, task: Task) -> None:
        del self._tasks[task.task_id]
        del self._vstart[task.task_id]
        self._entries.pop(task.task_id, None)
        task._core = None
        self._total_weight -= task.weight
        if not self._tasks:
            # Rebase virtual time whenever the core runs dry: the attained
            # counter would otherwise grow without bound over a long run and
            # erode the absolute REMAINING_EPSILON completion test (ULP of a
            # double exceeds 1e-9 once the counter passes ~4.5e6).  Resetting
            # the weight sum likewise drops any float drift from repeated
            # non-integer weight adds/subtracts.
            self._attained = 0.0
            self._total_weight = 0.0
            self._finish_heap.clear()
            self._rate = 0.0
            self._switch_rate = 0.0
        else:
            self._rates_changed()

    def _rates_changed(self) -> None:
        """Cache the rates of the current, non-empty task set."""
        n = len(self._tasks)
        try:
            efficiency, self._switch_rate = self._rates_by_count[n]
        except KeyError:
            model = self._cs_model
            efficiency = model.efficiency(n)
            self._switch_rate = model.switch_rate(n)
            self._rates_by_count[n] = (efficiency, self._switch_rate)
        self._rate = self.speed * efficiency / self._total_weight

    # ------------------------------------------------------------- progression

    def sync(self, now: float) -> None:
        """Advance the internal service accounting up to ``now``.

        O(1) in the number of assigned tasks: only the shared attained-service
        counter and the cumulative core stats move; per-task fields are
        materialized lazily.
        """
        elapsed = now - self._last_update
        if elapsed < -TIME_EPSILON:
            raise ValueError(
                f"core {self.core_id} asked to sync backwards: "
                f"last={self._last_update!r}, now={now!r}"
            )
        if elapsed <= 0:
            if now > self._last_update:
                self._last_update = now
            return
        if self._tasks:
            delivered = self._rate * elapsed  # service per unit weight
            self._attained += delivered
            stats = self.stats
            stats.busy_time += elapsed
            stats.service_delivered += self._total_weight * delivered
            # ContextSwitchModel.switches_over(n, elapsed), from the cached rate.
            stats.estimated_context_switches += self._switch_rate * elapsed
            if self._attained > ATTAINED_REBASE_THRESHOLD:
                self._rebase()
        self._last_update = now

    def _rebase(self) -> None:
        """Shift virtual time back to zero on a long-lived busy core.

        A never-idle core's attained counter would otherwise grow without
        bound and erode the absolute :data:`REMAINING_EPSILON` completion
        test (one double ULP exceeds 1e-9 past ~4.5e6).  Shifting
        ``_attained``, every virtual start and every heap key by the same
        constant preserves all remaining-work differences to within one ULP
        of the shift, and heap order is preserved (sequence numbers break
        any rounding-induced ties deterministically).
        """
        base = self._attained
        self._attained = 0.0
        for task_id in self._vstart:
            self._vstart[task_id] -= base
        entries = self._entries
        heap = [
            (vfinish - base, seq, task_id)
            for vfinish, seq, task_id in self._finish_heap
            if entries.get(task_id) == seq
        ]
        heapq.heapify(heap)
        self._finish_heap = heap

    def materialize_all(self) -> None:
        """Fold attained service into every assigned task (end-of-run flush)."""
        for task in self._tasks.values():
            self.materialize(task)

    # ------------------------------------------------------------- task moves

    def add_task(self, task: Task, now: float) -> None:
        """Assign ``task`` to this core starting at ``now``."""
        if self.locked:
            raise RuntimeError(
                f"core {self.core_id} is locked for migration; cannot accept task "
                f"{task.task_id}"
            )
        if task.task_id in self._tasks:
            raise RuntimeError(
                f"task {task.task_id} is already assigned to core {self.core_id}"
            )
        if self.mode is CoreMode.DEDICATED and self._tasks:
            raise RuntimeError(
                f"dedicated core {self.core_id} already runs task "
                f"{self.current_task.task_id}; cannot add task {task.task_id}"
            )
        self.sync(now)
        if task.last_core is not None and task.last_core != self.core_id:
            # Cold caches / queue manipulation charge for cross-core migration.
            task.remaining += self._migration_cost
            self.stats.migrations_in += 1
        task.mark_running(now, self.core_id)
        self._attach(task)
        self.stats.tasks_started += 1
        self._load_listener(self)

    def remove_task(self, task: Task, now: float, *, preempted: bool = False) -> Task:
        """Detach ``task`` from this core at ``now``.

        Args:
            preempted: True when the removal is involuntary (counts as a
                preemption on both the task and the core).
        """
        if task.task_id not in self._tasks:
            raise RuntimeError(
                f"task {task.task_id} is not assigned to core {self.core_id}"
            )
        self.sync(now)
        self.materialize(task)
        self._detach(task)
        if preempted:
            task.mark_preempted()
            self.stats.explicit_preemptions += 1
            self.stats.migrations_out += 1
        self._load_listener(self)
        return task

    def finish_ready_tasks(self, now: float) -> list[Task]:
        """Complete and detach every task whose remaining service reached zero."""
        self.sync(now)
        threshold = self._attained + REMAINING_EPSILON
        heap = self._finish_heap
        entries = self._entries
        tasks = self._tasks
        finished: list[Task] = []
        while heap:
            vfinish, seq, task_id = heap[0]
            if entries.get(task_id) != seq:
                heapq.heappop(heap)
                continue
            if vfinish > threshold:
                break
            heapq.heappop(heap)
            finished.append(tasks[task_id])
        if not finished:
            return finished
        count = len(finished)
        if count > 1:
            # Preserve the eager model's completion order: assignment order.
            ready = {task.task_id for task in finished}
            finished = [task for task_id, task in tasks.items() if task_id in ready]
        for task in finished:
            self.materialize(task)
            self._detach(task)
            task.mark_finished(now)
        self.stats.tasks_completed += count
        self._load_listener(self)
        return finished

    def drain(self, now: float) -> list[Task]:
        """Preempt and return every assigned task (used by core migration)."""
        self.sync(now)
        drained: list[Task] = []
        for task in list(self._tasks.values()):
            drained.append(self.remove_task(task, now, preempted=True))
        return drained

    # ------------------------------------------------------------ group moves

    def lock(self) -> None:
        """Prevent new task assignments (step 1 of the Fig. 8 protocol)."""
        self.locked = True
        self._load_listener(self)

    def unlock(self) -> None:
        """Re-enable task assignments (final step of the Fig. 8 protocol)."""
        self.locked = False
        self._load_listener(self)

    def change_group(self, new_group: str, mode: Optional[CoreMode] = None) -> None:
        """Move this core to another policy group."""
        self.group = new_group
        if mode is not None:
            self.mode = mode

    # -------------------------------------------------------------- utilities

    def utilization_since(self, busy_snapshot: float, window: float) -> float:
        """Utilization over a window given a previous ``busy_time`` snapshot."""
        if window <= 0:
            raise ValueError(f"window must be positive, got {window!r}")
        # max(0.0, min(1.0, x)) without the two builtin calls (per core-sample).
        utilization = (self.stats.busy_time - busy_snapshot) / window
        utilization = utilization if utilization < 1.0 else 1.0
        return utilization if utilization > 0.0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Core(id={self.core_id}, group={self.group!r}, mode={self.mode.value}, "
            f"nr_running={self.nr_running})"
        )
