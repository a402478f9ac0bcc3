"""The hybrid FIFO+CFS scheduler (§IV of the paper).

The enclave's cores are split into a FIFO group and a CFS group:

* New tasks always enter the **FIFO group**: a centralized global queue feeds
  idle FIFO cores, and a dispatched task runs uninterrupted.  When a task has
  run for longer than the preemption *time limit* it is preempted and
  migrated to the CFS group; the freed FIFO core immediately pulls the next
  task from the global queue.
* The **CFS group** absorbs the long tail: each core fair-shares among the
  (few) long tasks assigned to it.  Preempted tasks are spread over the CFS
  cores round-robin (or least-loaded, configurable).

The scheduler is written as a ghOSt policy: simulator callbacks are turned
into enclave messages (TASK_NEW / TASK_DEAD / TASK_PREEMPT) that the global
agent drains and routes back into the policy handlers, mirroring the paper's
centralized-agent architecture (§IV-A).

Two provider-side mechanisms are built in (§IV-B):

* an adaptive preemption time limit (percentile of the recent-durations
  sliding window), and
* utilization-driven core-group rightsizing following the Fig. 8 protocol.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.core.config import CFS_GROUP, CFSPlacement, FIFO_GROUP, HybridConfig
from repro.core.rightsizing import RightsizingController, RightsizingDecision
from repro.core.time_limit import TimeLimitPolicy, build_time_limit_policy
from repro.ghost.agent import AgentGroup
from repro.ghost.enclave import Enclave
from repro.ghost.messages import Message
from repro.monitoring.monitor import GroupUtilizationMonitor
from repro.monitoring.sampler import UtilizationSampler
from repro.monitoring.shared_memory import UtilizationStore
from repro.schedulers.base import Scheduler
from repro.simulation.cpu import Core
from repro.simulation.events import EventHandle
from repro.simulation.task import Task


class HybridScheduler(Scheduler):
    """Two-group FIFO+CFS scheduler with adaptive limit and rightsizing."""

    name = "hybrid"

    def __init__(self, config: Optional[HybridConfig] = None) -> None:
        super().__init__()
        self.hconfig = config or HybridConfig()
        self.time_limit_policy: TimeLimitPolicy = build_time_limit_policy(
            adaptive=self.hconfig.adaptive_time_limit,
            fixed_limit=self.hconfig.time_limit,
            percentile=self.hconfig.time_limit_percentile,
            window=self.hconfig.time_limit_window,
        )
        self.fifo_queue: Deque[Task] = deque()
        self.enclave: Optional[Enclave] = None
        self.agents: Optional[AgentGroup] = None
        self.store = UtilizationStore()
        self.sampler = UtilizationSampler(self.store)
        self.monitor = GroupUtilizationMonitor(
            self.store, window=self.hconfig.utilization_window
        )
        self.rightsizer: Optional[RightsizingController] = None
        self._limit_timers: Dict[int, EventHandle] = {}
        self._rr_index = 0
        # Counters surfaced in reports / tests.
        self.tasks_preempted_to_cfs = 0
        self.tasks_completed_in_fifo = 0
        self.tasks_completed_in_cfs = 0

    # ----------------------------------------------------------------- wiring

    def describe(self) -> str:
        return (
            f"Hybrid FIFO+CFS ({self.hconfig.fifo_cores}/{self.hconfig.cfs_cores} cores, "
            f"limit={self.time_limit_policy.describe()}, "
            f"rightsizing={'on' if self.hconfig.rightsizing else 'off'})"
        )

    def preferred_groups(self, num_cores: int) -> Dict[str, int]:
        """FIFO/CFS split, rescaled proportionally if the machine size differs."""
        cfg = self.hconfig
        if num_cores == cfg.total_cores:
            return {FIFO_GROUP: cfg.fifo_cores, CFS_GROUP: cfg.cfs_cores}
        fifo = max(1, round(num_cores * cfg.fifo_cores / cfg.total_cores))
        fifo = min(fifo, num_cores - 1)
        return {FIFO_GROUP: fifo, CFS_GROUP: num_cores - fifo}

    def attach(self, simulator) -> None:
        super().attach(simulator)
        groups = self.machine.groups
        if FIFO_GROUP not in groups or CFS_GROUP not in groups:
            raise ValueError(
                "the hybrid scheduler needs a machine with 'fifo' and 'cfs' core "
                f"groups; got {sorted(groups)} — build the machine with "
                "groups=scheduler.preferred_groups(num_cores)"
            )
        self.enclave = Enclave(
            cpu_ids=[core.core_id for core in self.machine.cores], name="faas-enclave"
        )
        self.enclave.assign_policy_group(FIFO_GROUP, groups[FIFO_GROUP].core_ids)
        self.enclave.assign_policy_group(CFS_GROUP, groups[CFS_GROUP].core_ids)
        self.agents = AgentGroup(self.enclave, self)
        if self.hconfig.rightsizing:
            self.rightsizer = RightsizingController(self.machine, self.monitor, self.hconfig)

    # ------------------------------------------------------------ sim events

    def on_start(self) -> None:
        self.sim.record_series("time_limit", self.time_limit_policy.current())
        self.sim.record_series("fifo_cores", self.machine.group_size(FIFO_GROUP))
        self.sim.record_series("cfs_cores", self.machine.group_size(CFS_GROUP))
        if self.hconfig.rightsizing:
            self.sampler.prime(self.machine.cores, self.now)
            self._schedule_sampling()
            self._schedule_rightsizing()

    def on_task_arrival(self, task: Task) -> None:
        self.enclave.publish_task_new(task.task_id, self.now, payload=task)
        self.agents.process_pending()

    def on_task_finished(self, task: Task, core: Core) -> None:
        self.enclave.publish_task_dead(task.task_id, self.now, payload=(task, core))
        self.agents.process_pending()

    def on_end(self) -> None:
        self.sim.record_series("fifo_cores", self.machine.group_size(FIFO_GROUP))
        self.sim.record_series("cfs_cores", self.machine.group_size(CFS_GROUP))

    # ------------------------------------------------------- ghOSt policy API

    def handle_task_new(self, message: Message) -> None:
        task: Task = message.payload
        word = self.enclave.status_word(task.task_id)
        word.mark_queued(FIFO_GROUP)
        core = self.first_idle_core(FIFO_GROUP)
        if core is not None:
            self._dispatch_fifo(task, core)
        else:
            task.mark_queued()
            self.fifo_queue.append(task)

    def handle_task_dead(self, message: Message) -> None:
        task, core = message.payload
        word = self.enclave.status_word(task.task_id)
        word.mark_dead(message.timestamp)
        timer = self._limit_timers.pop(task.task_id, None)
        if timer is not None:
            timer.cancel()
        duration = task.execution_time
        if duration is None:
            duration = task.service_time
        self.time_limit_policy.observe(duration, message.timestamp)
        self.sim.record_series("time_limit", self.time_limit_policy.current())
        if core.group == FIFO_GROUP:
            self.tasks_completed_in_fifo += 1
            self._dispatch_next_fifo(core)
        else:
            self.tasks_completed_in_cfs += 1

    def handle_task_preempt(self, message: Message) -> None:
        """Preemptions are initiated by the policy itself; nothing extra to do."""

    def handle_cpu_tick(self, message: Message) -> None:
        """Per-CPU ticks are unused: limits are enforced with per-task timers."""

    # ------------------------------------------------------------- FIFO group

    def _dispatch_fifo(self, task: Task, core: Core) -> None:
        self.sim.start_task(task, core)
        word = self.enclave.status_word(task.task_id)
        word.mark_on_cpu(core.core_id, self.now)
        word.group = FIFO_GROUP
        limit = self.time_limit_policy.current()
        handle = self.sim.schedule_timer(
            limit,
            lambda t=task, c=core: self._on_limit_expired(t, c),
            tag=f"fifo-limit-{task.task_id}",
        )
        self._limit_timers[task.task_id] = handle

    def _dispatch_next_fifo(self, core: Core) -> bool:
        if core.locked or core.group != FIFO_GROUP:
            return False
        while self.fifo_queue:
            task = self.fifo_queue.popleft()
            if task.is_finished:
                continue
            self._dispatch_fifo(task, core)
            return True
        return False

    def _on_limit_expired(self, task: Task, core: Core) -> None:
        self._limit_timers.pop(task.task_id, None)
        if task.is_finished or not core.has_task(task):
            return
        if core.group != FIFO_GROUP:
            # The core was rightsized to the CFS group while the task was on
            # it; the task is already where long tasks belong.
            return
        self.enclave.publish_task_preempt(task.task_id, self.now, payload=task)
        self.agents.process_pending()
        word = self.enclave.status_word(task.task_id)
        self.sim.stop_task(task, core, preempted=True)
        word.mark_preempted(self.now)
        target = self._pick_cfs_core()
        self.sim.start_task(task, target)
        word.mark_on_cpu(target.core_id, self.now)
        word.group = CFS_GROUP
        task.groups_visited.append(CFS_GROUP)
        self.tasks_preempted_to_cfs += 1
        self._dispatch_next_fifo(core)

    # -------------------------------------------------------------- CFS group

    def _cfs_cores(self) -> List[Core]:
        return [c for c in self.machine.group_cores(CFS_GROUP) if not c.locked]

    def _pick_cfs_core(self) -> Core:
        cores = self._cfs_cores()
        if not cores:
            raise RuntimeError("the CFS group has no unlocked cores to receive a task")
        if self.hconfig.cfs_placement is CFSPlacement.LEAST_LOADED:
            return min(cores, key=lambda c: (c.nr_running, c.core_id))
        core = cores[self._rr_index % len(cores)]
        self._rr_index += 1
        return core

    # ------------------------------------------------------------- monitoring

    def _schedule_sampling(self) -> None:
        self.sim.schedule_timer(
            self.hconfig.utilization_sample_interval,
            self._sampling_tick,
            tag="hybrid-utilization-sample",
        )

    def _sampling_tick(self) -> None:
        self.sampler.sample(self.machine.cores, self.now)
        if self.sim.has_pending_work():
            self._schedule_sampling()

    def _schedule_rightsizing(self) -> None:
        self.sim.schedule_timer(
            self.hconfig.rightsizing_interval,
            self._rightsizing_tick,
            tag="hybrid-rightsizing",
        )

    def _rightsizing_tick(self) -> None:
        decision = self.rightsizer.evaluate(self.now) if self.rightsizer else None
        if decision is not None:
            self._execute_migration(decision)
        self.sim.record_series("fifo_cores", self.machine.group_size(FIFO_GROUP))
        self.sim.record_series("cfs_cores", self.machine.group_size(CFS_GROUP))
        if self.sim.has_pending_work():
            self._schedule_rightsizing()

    # --------------------------------------------------------- core migration

    def _execute_migration(self, decision: RightsizingDecision) -> None:
        if decision.source == CFS_GROUP:
            core = self._migrate_cfs_core_to_fifo()
        else:
            core = self._migrate_fifo_core_to_cfs()
        if core is not None:
            self.rightsizer.record_migration(self.now, decision, core.core_id)

    def _migrate_cfs_core_to_fifo(self) -> Optional[Core]:
        """Fig. 8 protocol: lock, preempt, redistribute, switch policy, unlock."""
        candidates = self._cfs_cores()
        if len(candidates) <= self.hconfig.min_group_size:
            return None
        core = min(candidates, key=lambda c: (c.nr_running, c.core_id))
        core.lock()
        displaced = self.sim.drain_core(core)
        remaining = [c for c in self._cfs_cores() if c.core_id != core.core_id]
        for task in displaced:
            target = min(remaining, key=lambda c: (c.nr_running, c.core_id))
            self.sim.start_task(task, target)
            word = self.enclave.status_word(task.task_id)
            word.mark_on_cpu(target.core_id, self.now)
        self.machine.move_core(core.core_id, CFS_GROUP, FIFO_GROUP)
        self.enclave.move_cpu(core.core_id, CFS_GROUP, FIFO_GROUP)
        core.unlock()
        self._dispatch_next_fifo(core)
        return core

    def _migrate_fifo_core_to_cfs(self) -> Optional[Core]:
        """Move a FIFO core (idle if possible) into the CFS group, then balance."""
        fifo_cores = [c for c in self.machine.group_cores(FIFO_GROUP) if not c.locked]
        if len(fifo_cores) <= self.hconfig.min_group_size:
            return None
        idle = [c for c in fifo_cores if c.is_idle]
        core = min(idle or fifo_cores, key=lambda c: (c.nr_running, c.core_id))
        running = core.current_task
        if running is not None:
            # The task stays on the core; it is simply governed by the CFS
            # group from now on, so its FIFO limit timer no longer applies.
            timer = self._limit_timers.pop(running.task_id, None)
            if timer is not None:
                timer.cancel()
            word = self.enclave.status_word(running.task_id)
            word.group = CFS_GROUP
        self.machine.move_core(core.core_id, FIFO_GROUP, CFS_GROUP)
        self.enclave.move_cpu(core.core_id, FIFO_GROUP, CFS_GROUP)
        self._rebalance_cfs_queues(core)
        return core

    def _rebalance_cfs_queues(self, new_core: Core) -> None:
        """Even out CFS run-queue lengths after a core joined the group."""
        while True:
            cores = self._cfs_cores()
            busiest = max(cores, key=lambda c: c.nr_running)
            if busiest.nr_running - new_core.nr_running <= 1:
                return
            candidates = busiest.tasks
            if not candidates:
                return
            task = max(candidates, key=lambda t: t.remaining)
            self.sim.stop_task(task, busiest, preempted=True)
            self.sim.start_task(task, new_core)
            word = self.enclave.status_word(task.task_id)
            word.mark_on_cpu(new_core.core_id, self.now)

    # --------------------------------------------------------------- stealing

    # The FIFO queue is the hybrid's only queued work (CFS tasks are bound to
    # cores on arrival), so it is what migration steals from and what a
    # failing node hands back to the cluster.

    def stealable_tasks(self) -> List[Task]:
        return list(self.fifo_queue)

    def stealable_count(self) -> int:
        return sum(1 for task in self.fifo_queue if task.first_run_time is None)

    def remove_queued_task(self, task: Task) -> bool:
        for index, queued in enumerate(self.fifo_queue):
            if queued is task:
                del self.fifo_queue[index]
                return True
        return False

    # ---------------------------------------------------------------- reports

    def stats(self) -> Dict[str, float]:
        """Scheduler-level counters used by experiments and tests."""
        data = {
            "tasks_preempted_to_cfs": self.tasks_preempted_to_cfs,
            "tasks_completed_in_fifo": self.tasks_completed_in_fifo,
            "tasks_completed_in_cfs": self.tasks_completed_in_cfs,
            "fifo_queue_length": len(self.fifo_queue),
            "current_time_limit": self.time_limit_policy.current(),
            "fifo_cores": self.machine.group_size(FIFO_GROUP) if self.machine else 0,
            "cfs_cores": self.machine.group_size(CFS_GROUP) if self.machine else 0,
        }
        if self.enclave is not None:
            data.update(self.enclave.stats())
        if self.rightsizer is not None:
            data["core_migrations"] = self.rightsizer.migration_count
        return data
