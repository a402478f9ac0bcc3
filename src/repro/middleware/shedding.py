"""Deadline-based load shedding: drop work that cannot finish in time."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.middleware.base import Middleware, Verdict, reject

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.task import Task


class DeadlineShedMiddleware(Middleware):
    """Shed tasks whose deadline is already (or predictably) unreachable.

    The base check is the hard edge: a task whose deadline is at or before
    ``now + margin`` is dropped — ``deadline == now`` sheds, since any task
    with positive service time can no longer make it.  With ``load_aware``
    the cutoff also adds a backlog-proportional wait estimate (fleet queued
    tasks x observed mean service time / fleet capacity), turning the
    middleware into a proper overload valve: under light load everything
    with slack is admitted, under a growing backlog tasks whose slack is
    smaller than the predicted queueing delay are dropped at the door
    instead of occupying queue space they cannot use.  The estimate costs
    O(1) per arrival: the queued count is the cluster's backlog counter and
    the capacity is cached until a node changes state.

    Args:
        margin: Extra slack (seconds) a task must have beyond ``now``.
        relative_deadline: When set, tasks arriving without a deadline get
            one at ``arrival_time + relative_deadline`` (written back to the
            task, so EDF scheduling and SLO trackers see the same target).
        load_aware: Add the estimated fleet queueing delay to the cutoff.
    """

    name = "deadline_shed"

    def __init__(
        self,
        margin: float = 0.0,
        relative_deadline: Optional[float] = None,
        load_aware: bool = False,
    ) -> None:
        if margin < 0:
            raise ValueError(f"margin must be >= 0, got {margin!r}")
        if relative_deadline is not None and relative_deadline <= 0:
            raise ValueError(
                f"relative_deadline must be positive, got {relative_deadline!r}"
            )
        self.margin = float(margin)
        self.relative_deadline = (
            float(relative_deadline) if relative_deadline is not None else None
        )
        self.load_aware = bool(load_aware)
        self.shed = 0
        self.admitted = 0
        # Running mean service time of admitted tasks, feeding the wait
        # estimate; deterministic (no sampling, arrival order only).
        self._service_sum = 0.0
        self._service_count = 0
        self._backlog = None
        self._retired = None
        # Fleet capacity, summed again only after a node changed state.
        self._capacity: Optional[float] = None

    def bind(self, chain) -> None:
        super().bind(chain)
        from repro.cluster.node import NodeState

        self._retired = NodeState.RETIRED
        self._backlog = chain.cluster.backlog
        if self.load_aware:
            chain.cluster.hooks.subscribe("node_changed", self._node_changed)

    def _node_changed(self, node, what: str, now: float) -> None:
        self._capacity = None

    def estimated_wait(self) -> float:
        """Predicted queueing delay: backlog x mean service / capacity."""
        if not self.load_aware or self._service_count == 0:
            return 0.0
        backlog = self._backlog.count
        if backlog == 0:
            return 0.0
        capacity = self._capacity
        if capacity is None:
            capacity = 0.0
            for node in self.chain.cluster.nodes:
                if node.state is not self._retired:
                    capacity += node.capacity
            self._capacity = capacity
        if capacity <= 0.0:
            return 0.0
        mean_service = self._service_sum / self._service_count
        return backlog * mean_service / capacity

    def on_dispatch(self, task: "Task", now: float) -> Verdict:
        deadline = task.deadline
        if deadline is None:
            if self.relative_deadline is None:
                self._admit(task)
                return None
            deadline = task.arrival_time + self.relative_deadline
            task.deadline = deadline
        if deadline <= now + self.margin + self.estimated_wait():
            self.shed += 1
            return reject(self.name)
        self._admit(task)
        return None

    def _admit(self, task: "Task") -> None:
        self.admitted += 1
        self._service_sum += task.service_time
        self._service_count += 1

    def stats(self) -> Dict[str, float]:
        return {
            "admitted": float(self.admitted),
            "shed": float(self.shed),
            "margin": self.margin,
        }
