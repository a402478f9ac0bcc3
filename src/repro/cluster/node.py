"""Cluster node: one machine + one per-node scheduler on the shared loop.

A node wraps a :class:`~repro.simulation.engine.MachineEngine` running on
the cluster's :class:`~repro.simulation.engine.EventLoop`, so completions and
scheduler timers on every node interleave on one global timeline.  The node
adds the fleet-level lifecycle (booting → active → draining → retired) and
the load accounting dispatchers select on.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, List, Optional

from repro.cluster.config import NodeSpec
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import EventLoop, MachineEngine
from repro.simulation.machine import Machine
from repro.simulation.results import SimulationResult, build_result
from repro.simulation.task import Task
from repro.telemetry.tracer import QUEUE_TID


class NodeState(Enum):
    """Lifecycle of a node inside the cluster."""

    BOOTING = "booting"
    ACTIVE = "active"
    DRAINING = "draining"
    RETIRED = "retired"
    #: Torn down by the fault injector (crash or revocation deadline) while
    #: possibly still holding work; terminal like RETIRED but billed and
    #: reported separately.
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        """True once the node can never serve work again."""
        return self is NodeState.RETIRED or self is NodeState.FAILED


class ClusterNode:
    """One node of the cluster: lifecycle, load accounting, local engine."""

    def __init__(
        self,
        node_id: int,
        machine: Machine,
        scheduler,
        config: SimulationConfig,
        loop: EventLoop,
        state: NodeState = NodeState.ACTIVE,
        spec: Optional[NodeSpec] = None,
        commissioned_at: float = 0.0,
    ) -> None:
        self.node_id = node_id
        self.state = state
        self.spec = spec or NodeSpec(
            cores=config.num_cores, speed_factor=config.core_speed
        )
        self.engine = MachineEngine(machine, scheduler, loop, config=config)
        self.engine.node = self
        self.inflight = 0
        #: Tasks dispatched to this node but still in flight on the wire
        #: (inside the ingress queue); they count toward the node's load but
        #: have not reached its scheduler yet.
        self.ingress = 0
        #: Wire delay one dispatched task pays to reach this node (seconds);
        #: assigned by the cluster from its network model at node creation.
        self.dispatch_delay = 0.0
        self.tasks_assigned = 0
        self.tasks_completed = 0
        self.tasks_ingressed = 0
        self.ingress_wait_total = 0.0
        self.tasks_stolen_away = 0
        self.tasks_stolen_in = 0
        #: Queued tasks handed back to the cluster by retry middleware
        #: (pulled out of the queue without counting as stolen).
        self.tasks_released = 0
        #: Tasks this node lost to a failure (queued, running, or landing
        #: on it while it failed); counted by the cluster as it re-admits.
        self.tasks_lost = 0
        #: When this node started being paid for (booting counts: the
        #: cold-start window is billed just like active and draining time).
        self.commissioned_at = commissioned_at
        self.activated_at: Optional[float] = None
        self.retired_at: Optional[float] = None
        self._started = False
        # Called with this node after any load change (inflight or busy-core
        # count); the cluster hooks it to refresh its dispatch load index.
        self.load_listener: Optional[Callable[["ClusterNode"], None]] = None
        machine.on_load_change = self._notify_load
        # Telemetry hooks, assigned by the cluster when tracing is enabled
        # (kept None otherwise so guards are one attribute load).
        self._tracer = None
        self._trace_pid = 0
        # Middleware chain, assigned by the cluster only when some middleware
        # observes landings (same one-attribute-load guard as the tracer).
        self.middleware = None

    # ------------------------------------------------------------------ state

    @property
    def scheduler(self):
        return self.engine.scheduler

    @property
    def machine(self) -> Machine:
        return self.engine.machine

    @property
    def is_active(self) -> bool:
        return self.state is NodeState.ACTIVE

    def activate(self, now: float) -> None:
        """Bring the node into service (boot finished, or initial start).

        Idempotent: the scheduler's ``on_start`` fires exactly once per node,
        including for nodes that begin life ACTIVE (the initial fleet).
        """
        if self.state is not NodeState.ACTIVE:
            self.state = NodeState.ACTIVE
        if self.activated_at is None:
            self.activated_at = now
        if not self._started:
            self._started = True
            self.scheduler.on_start()

    def start_draining(self) -> None:
        """Stop receiving new work; the node retires once it runs dry."""
        if self.state in (NodeState.ACTIVE, NodeState.BOOTING):
            self.state = NodeState.DRAINING

    def retire(self, now: float) -> None:
        if self.inflight > 0 or self.ingress > 0:
            raise RuntimeError(
                f"node {self.node_id} cannot retire with {self.inflight} tasks "
                f"inflight and {self.ingress} in its ingress queue"
            )
        self.state = NodeState.RETIRED
        self.retired_at = now

    def fail(self, now: float) -> List[Task]:
        """Tear this node down *now* (crash, or a revocation deadline).

        Unlike :meth:`retire` this is legal — expected, even — while work is
        on board: every queued and running task is pulled out of the local
        engine and returned to the caller (the cluster re-admits them
        through the ordinary ARRIVAL path).  Tasks still on the wire toward
        this node are not touched here; the cluster re-routes them when
        their ingress event fires and finds the node FAILED.

        Billing stops at the failure instant: a revoked node is no longer
        paid for, so ``retired_at`` is set like a retirement.
        """
        engine = self.engine
        lost: List[Task] = []
        # Running work first: stop each task on its core (progress is
        # forfeited by the caller; stop_task just detaches it cleanly).
        for core in self.machine.cores:
            core.sync(now)
            for task in core.tasks:
                engine.stop_task(task, core, preempted=True)
                lost.append(task)
        # Then the queue — everything the scheduler still holds, started or
        # not (a failed node loses preempted-and-requeued tasks too).
        for task in list(self.scheduler.stealable_tasks()):
            if self.scheduler.remove_queued_task(task):
                lost.append(task)
        for task in lost:
            self.inflight -= 1
            engine._unfinished -= 1
        if self.inflight != 0:
            raise RuntimeError(
                f"node {self.node_id} failed with {self.inflight} tasks "
                "unaccounted for (scheduler holds work outside its queue "
                "and cores)"
            )
        self.state = NodeState.FAILED
        self.retired_at = now
        self._notify_load()
        return lost

    # ------------------------------------------------------------------- load

    @property
    def capacity(self) -> float:
        """Service capacity in baseline-core equivalents (cores x speed)."""
        return self.spec.capacity

    def uptime(self, now: float) -> float:
        """Billed seconds: commissioning (boot included) until retirement.

        Nodes still in service (or draining) at ``now`` are billed up to
        ``now`` — exactly the node-hours the cost model charges for.
        """
        end = self.retired_at if self.retired_at is not None else now
        return max(0.0, end - self.commissioned_at)

    def busy_core_count(self) -> int:
        """Cores currently executing at least one task (O(1))."""
        return self.machine.busy_core_count()

    def idle_core_count(self) -> int:
        """Idle, unlocked cores — the node's appetite for stolen work (O(1))."""
        return self.machine.idle_core_count()

    def _notify_load(self) -> None:
        if self.load_listener is not None:
            self.load_listener(self)

    # --------------------------------------------------------------- dispatch

    def deliver(self, task: Task, now: float, *, force: bool = False) -> None:
        """Hand one dispatched task to the node's scheduler.

        Args:
            force: Allow delivery to a DRAINING node — used only as the
                migration layer's last resort when no active node remains.
        """
        allowed = (NodeState.ACTIVE, NodeState.DRAINING) if force else (
            NodeState.ACTIVE,
        )
        if self.state not in allowed:
            raise RuntimeError(
                f"cannot dispatch to node {self.node_id} in state {self.state.value}"
            )
        task.metadata["node_id"] = self.node_id
        self.inflight += 1
        self.tasks_assigned += 1
        self.engine._unfinished += 1
        self._notify_load()
        task.mark_queued()
        if self._tracer is not None:
            self._tracer.begin(
                ("q", task.task_id), "queued", self._trace_pid, QUEUE_TID,
                now, task.task_id,
            )
        self.scheduler.on_task_arrival(task)
        if self.middleware is not None:
            self.middleware.on_land(task, self, now)

    def on_task_finished(self, task: Task) -> None:
        """Cluster-side accounting when one of this node's tasks completes."""
        self.inflight -= 1
        self.tasks_completed += 1
        self._notify_load()

    # ---------------------------------------------------------------- ingress

    def begin_ingress(self, task: Task) -> None:
        """Put one dispatched task on the wire toward this node.

        The task counts as load immediately (so queue-depth dispatchers see
        work they just committed here and do not herd onto one node), but it
        reaches the scheduler only when :meth:`complete_ingress` lands it
        after the wire delay.
        """
        if self.state is not NodeState.ACTIVE:
            raise RuntimeError(
                f"cannot dispatch to node {self.node_id} in state {self.state.value}"
            )
        self.ingress += 1
        self._notify_load()

    def complete_ingress(self, task: Task, now: float) -> None:
        """Land one wire-delayed task on this node's scheduler.

        Ingress tasks were committed at dispatch time, so a node that started
        draining mid-flight still accepts the landing (force delivery); the
        cluster never retires a node with ingress pending, so a RETIRED
        landing is an engine invariant violation and raises.
        """
        self.ingress -= 1
        self.tasks_ingressed += 1
        if self._tracer is not None:
            self._tracer.end(("w", task.task_id), now)
        self.ingress_wait_total += self.dispatch_delay
        task.metadata["ingress_wait"] = (
            task.metadata.get("ingress_wait", 0.0) + self.dispatch_delay
        )
        self.deliver(task, now, force=self.state is NodeState.DRAINING)

    # --------------------------------------------------------------- stealing

    def stealable_tasks(self) -> List[Task]:
        """Queued tasks that never ran, in queue order (late binding).

        Only not-yet-started work may migrate: preempted tasks carry core
        state (partial progress, cache warmth) that a move would forfeit.
        """
        if self.state.terminal:
            return []
        return [
            task
            for task in self.scheduler.stealable_tasks()
            if task.first_run_time is None
        ]

    def stealable_count(self) -> int:
        """Number of stealable tasks, without materialising the list."""
        if self.state.terminal:
            return 0
        return self.scheduler.stealable_count()

    def checkpointable_tasks(self) -> List[Task]:
        """Started-but-unfinished tasks a checkpointing policy may move.

        The complement of :meth:`stealable_tasks`' late-binding surface:
        tasks currently on a core, plus started tasks sitting in the queue
        after a preemption.  Moving one means shipping a checkpoint of its
        partial progress instead of forfeiting it.
        """
        if self.state.terminal:
            return []
        requeued = [
            task
            for task in self.scheduler.stealable_tasks()
            if task.first_run_time is not None
        ]
        on_core = [
            task for core in self.machine.cores for task in core.tasks
        ]
        return requeued + on_core

    def _relinquish(self, task: Task) -> bool:
        """Pull one queued, never-run task out of this node's queue.

        Shared exit bookkeeping of :meth:`surrender` (migration) and
        :meth:`release` (retry middleware).  Returns False when the task
        already started or left the queue; the caller must then drop its
        plan — this refusal is what makes a task impossible to land twice.
        """
        if not self.scheduler.remove_queued_task(task):
            return False
        self.inflight -= 1
        self.engine._unfinished -= 1
        self._notify_load()
        return True

    def surrender(self, task: Task) -> bool:
        """Release one queued task to the migration layer.

        Returns False when the task already started (or left the queue)
        between planning and execution; the caller must then drop the move.
        """
        if not self._relinquish(task):
            return False
        self.tasks_stolen_away += 1
        return True

    def surrender_running(self, task: Task) -> bool:
        """Checkpoint one *started* task off this node for migration.

        The checkpointing counterpart of :meth:`surrender`: the task keeps
        its partial progress (``remaining`` travels with it) whether it was
        on a core or requeued after a preemption.  Returns False when the
        task finished or already left the node between planning and
        execution — the caller must then drop the move.
        """
        core = task._core
        if core is None:
            # Requeued-after-preemption: exits through the ordinary queue
            # path, progress intact.
            if not self._relinquish(task):
                return False
        else:
            if task.is_finished:
                return False
            self.engine.stop_task(task, core, preempted=True)
            self.inflight -= 1
            self.engine._unfinished -= 1
            self._notify_load()
        self.tasks_stolen_away += 1
        return True

    def release(self, task: Task) -> bool:
        """Give one queued task back to the cluster layer (retry path).

        Identical queue-exit bookkeeping to :meth:`surrender` but *not*
        counted as stealing, so the migration invariant
        ``sum(stolen_in) == tasks_migrated`` is untouched by retries.
        """
        if not self._relinquish(task):
            return False
        self.tasks_released += 1
        return True

    def receive_stolen(self, task: Task, now: float, *, force: bool = False) -> None:
        """Accept one migrated task (a normal delivery plus steal accounting)."""
        self.deliver(task, now, force=force)
        self.tasks_stolen_in += 1

    # ---------------------------------------------------------------- results

    def build_result(self, simulated_time: float) -> SimulationResult:
        """Freeze this node's run into a standard single-machine result."""
        return build_result(
            scheduler_name=getattr(
                self.scheduler, "name", type(self.scheduler).__name__
            ),
            config=self.engine.config,
            tasks=list(self.engine.collector.finished_tasks),
            cores=self.machine.cores,
            collector=self.engine.collector,
            simulated_time=simulated_time,
            wall_clock_seconds=0.0,
            events_processed=0,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterNode(id={self.node_id}, state={self.state.value}, "
            f"inflight={self.inflight}, completed={self.tasks_completed})"
        )
