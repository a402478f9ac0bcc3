"""Inter-node task migration (work stealing / late binding).

PR 1's dispatcher commits every invocation to one node forever, which is
exactly the rigidity the middleware literature's delay-aware placement
argues against.  This module adds the second chance: on a periodic
virtual-clock tick a :class:`MigrationPolicy` inspects the fleet and moves
*queued, never-run* tasks from hot (or draining) nodes to cool ones, paying
a configurable migration delay per moved task — the cost of shipping the
invocation's payload to another machine.

Only late binding is supported by design: a task that already ran holds
partial progress and cache warmth on its node, so moving it would forfeit
work.  The stealable surface each per-node scheduler exposes
(:meth:`repro.schedulers.base.Scheduler.stealable_tasks`) is filtered down
to tasks whose ``first_run_time`` is still unset.

Everything is deterministic: plans are built from node-id-ordered state
with explicit tie-breaking and no randomness, so two runs with the same
seed and workload migrate the exact same tasks at the exact same times.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.cluster.dispatchers import normalized_load
from repro.cluster.node import NodeState
from repro.simulation.hooks import bind_cluster

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import ClusterNode
    from repro.simulation.task import Task

#: Default seconds between two migration passes.
DEFAULT_MIGRATION_INTERVAL = 0.25

#: Default per-task migration delay: dispatch RTT + payload transfer, an
#: order of magnitude below the Firecracker node boot (~125 ms).
DEFAULT_MIGRATION_DELAY = 2e-3

#: Default extra wire seconds a checkpointed (running-task) move pays to
#: ship its state snapshot — an order of magnitude above the plain payload
#: transfer, still well below a node boot.
DEFAULT_CHECKPOINT_DELAY = 2e-2

#: Default extra service seconds a checkpointed task pays at its
#: destination to restore the snapshot.
DEFAULT_RESTORE_OVERHEAD = 5e-3


@dataclass(frozen=True)
class Migration:
    """One planned move: ``task`` leaves ``source`` and joins ``target``.

    ``running`` marks a checkpointed move of a *started* task: the task
    keeps its partial progress, pays the policy's checkpoint transfer and
    restore costs, and exits the source through
    :meth:`~repro.cluster.node.ClusterNode.surrender_running` instead of the
    late-binding queue path.
    """

    task: "Task"
    source: "ClusterNode"
    target: "ClusterNode"
    running: bool = False


class MigrationPolicy(ABC):
    """Abstract base for inter-node migration policies.

    Once attached, the cluster calls :meth:`plan` on every migration tick
    (and on every drain) with the full node list (any state); the policy
    returns the moves to execute this tick.  The cluster validates and
    applies them, charging ``delay`` seconds of transfer time per task.
    """

    #: Short machine-readable name, used by the registry and result labels.
    name: str = "base"

    #: Extra seconds of service a checkpointed task pays to restore its
    #: state on the destination; policies without checkpointing keep 0.0.
    restore_overhead: float = 0.0

    def __init__(
        self,
        interval: float = DEFAULT_MIGRATION_INTERVAL,
        delay: float = DEFAULT_MIGRATION_DELAY,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        self.interval = interval
        self.delay = delay

    def attach(self, cluster) -> None:
        """Wire onto ``cluster``: a migration pass every ``interval`` from
        the run's start, and a rescue pass the moment a node starts to
        drain, so its queued work is stolen instead of trickling out."""
        bind_cluster(self, cluster)
        cluster.hooks.subscribe("run_started", self._start)
        cluster.hooks.subscribe("node_changed", self._on_node_changed)

    def _start(self, now: float) -> None:
        cluster = self.cluster
        cluster.every(self.interval, cluster._run_migration_pass, "migration-tick")

    def _on_node_changed(self, node: "ClusterNode", what: str, now: float) -> None:
        if what == "drain" and self.cluster._running:
            self.cluster._run_migration_pass(now)

    @abstractmethod
    def plan(self, nodes: Sequence["ClusterNode"], now: float) -> List[Migration]:
        """Decide which queued tasks move where on this tick."""

    def transfer_delay(self, running: bool) -> float:
        """Wire seconds one planned move pays before landing.

        Checkpointed (``running``) moves ship a state snapshot on top of the
        invocation payload; the base policy has no checkpoint model, so both
        cost the plain migration ``delay``.
        """
        return self.delay

    def describe(self) -> str:
        """One-line human description used in reports."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"interval={self.interval}, delay={self.delay})"
        )


class WorkStealingPolicy(MigrationPolicy):
    """Idle and draining-adjacent nodes pull queued tasks from hot neighbours.

    The hotness signal is the *capacity-normalised stealable backlog*:
    queued, never-run tasks divided by the node's capacity (cores x speed
    factor), so a big node legitimately holds a deeper queue than a little
    one.

    Two phases per tick (three with checkpointing), all deterministic:

    1. **Drain rescue** — every queued task on a DRAINING node moves to the
       currently coolest active node, so scale-downs never strand work
       behind a retiring machine.
    1b. **Checkpoint rescue** (``checkpoint=True`` only) — *started* tasks on
       DRAINING nodes follow: each is checkpointed and shipped with its
       partial progress, paying ``checkpoint_delay`` extra wire seconds and
       ``restore_overhead`` extra service at the destination.  Without
       checkpointing a draining node's running work either finishes in time
       or (under a revocation deadline) forfeits all progress.
    2. **Idle stealing** — nodes with idle cores pull one task per idle core
       from the hottest backlogs (victims whose normalised backlog exceeds
       ``min_backlog``), up to ``max_steals_per_tick`` moves.  Because a
       work-conserving scheduler never has both idle cores and a backlog,
       thieves and victims are disjoint and tasks cannot ping-pong between
       near-balanced nodes.  Stealing takes the victim's *tail*, preserving
       its head-of-line order — the tasks that waited longest keep their
       position (late binding).
    """

    name = "work_stealing"

    def __init__(
        self,
        interval: float = DEFAULT_MIGRATION_INTERVAL,
        delay: float = DEFAULT_MIGRATION_DELAY,
        min_backlog: float = 0.0,
        max_steals_per_tick: int = 64,
        checkpoint: bool = False,
        checkpoint_delay: float = DEFAULT_CHECKPOINT_DELAY,
        restore_overhead: float = DEFAULT_RESTORE_OVERHEAD,
    ) -> None:
        super().__init__(interval=interval, delay=delay)
        if min_backlog < 0:
            raise ValueError(f"min_backlog must be >= 0, got {min_backlog!r}")
        if max_steals_per_tick < 1:
            raise ValueError(
                f"max_steals_per_tick must be >= 1, got {max_steals_per_tick!r}"
            )
        if checkpoint_delay < 0:
            raise ValueError(
                f"checkpoint_delay must be >= 0, got {checkpoint_delay!r}"
            )
        if restore_overhead < 0:
            raise ValueError(
                f"restore_overhead must be >= 0, got {restore_overhead!r}"
            )
        self.min_backlog = min_backlog
        self.max_steals_per_tick = max_steals_per_tick
        self.checkpoint = checkpoint
        self.checkpoint_delay = checkpoint_delay
        self.restore_overhead = restore_overhead

    def transfer_delay(self, running: bool) -> float:
        """Checkpointed moves ship a state snapshot on top of the payload."""
        if running:
            return self.delay + self.checkpoint_delay
        return self.delay

    def plan(self, nodes: Sequence["ClusterNode"], now: float) -> List[Migration]:
        active = [node for node in nodes if node.is_active]
        if not active:
            return []
        # Phases 1 and 1b need a draining node and phase 2 needs both an
        # idle core and a backlog, so most ticks end here without copying
        # any queue (both counts are O(1)).
        if not any(node.state is NodeState.DRAINING for node in nodes) and (
            not any(node.idle_core_count() > 0 for node in active)
            or not any(node.stealable_count() > 0 for node in active)
        ):
            return []

        # Working copies: backlog and appetite mutate as moves are planned so
        # one tick never overshoots (the herd effect of stale load signals).
        backlog: Dict[int, List["Task"]] = {
            node.node_id: node.stealable_tasks() for node in nodes
        }
        appetite: Dict[int, int] = {
            node.node_id: node.idle_core_count() for node in active
        }
        planned_in: Dict[int, int] = {node.node_id: 0 for node in active}

        def rescue_load(node: "ClusterNode") -> float:
            """Total work per capacity: running + queued + planned arrivals.

            Rescue targets must weigh running work too, or a saturated node
            with an empty queue would tie with a fully idle one.
            """
            return normalized_load(node) + planned_in[node.node_id] / node.capacity

        plans: List[Migration] = []

        # Phase 1: empty every draining node's queue onto the fleet.
        draining = [
            node
            for node in nodes
            if node.state is NodeState.DRAINING and backlog[node.node_id]
        ]
        for victim in draining:
            for task in backlog[victim.node_id]:
                thief = min(active, key=lambda n: (rescue_load(n), n.node_id))
                plans.append(Migration(task=task, source=victim, target=thief))
                planned_in[thief.node_id] += 1
                # A rescue task consumes the thief's idle capacity just like
                # a phase-2 steal would.
                if appetite[thief.node_id] > 0:
                    appetite[thief.node_id] -= 1
            backlog[victim.node_id] = []

        # Phase 1b: with checkpointing, started tasks on draining nodes are
        # rescued too — each ships its partial progress instead of betting
        # on finishing before the node goes away.
        if self.checkpoint:
            for victim in nodes:
                if victim.state is not NodeState.DRAINING:
                    continue
                for task in victim.checkpointable_tasks():
                    thief = min(active, key=lambda n: (rescue_load(n), n.node_id))
                    plans.append(
                        Migration(
                            task=task, source=victim, target=thief, running=True
                        )
                    )
                    planned_in[thief.node_id] += 1
                    if appetite[thief.node_id] > 0:
                        appetite[thief.node_id] -= 1

        # Phase 2: idle cores pull from the deepest normalised backlogs.
        steals = 0
        while steals < self.max_steals_per_tick:
            victim = max(
                active,
                key=lambda n: (len(backlog[n.node_id]) / n.capacity, -n.node_id),
            )
            depth = len(backlog[victim.node_id]) / victim.capacity
            if not backlog[victim.node_id] or depth <= self.min_backlog:
                break
            # A node never steals from itself — its own scheduler already
            # had the chance to dispatch that backlog locally.
            thieves = [
                node
                for node in active
                if appetite[node.node_id] > 0 and node is not victim
            ]
            if not thieves:
                break
            # Hungriest thief first: most idle capacity per unit of capacity.
            thief = max(
                thieves,
                key=lambda n: (appetite[n.node_id] / n.capacity, -n.node_id),
            )
            task = backlog[victim.node_id].pop()  # steal the tail (late binding)
            plans.append(Migration(task=task, source=victim, target=thief))
            appetite[thief.node_id] -= 1
            planned_in[thief.node_id] += 1
            steals += 1
        return plans
