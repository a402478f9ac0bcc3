"""Admission control: cap the fleet's committed-but-not-executing backlog."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.middleware.base import Middleware, Verdict, reject

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.task import Task


class AdmissionControlMiddleware(Middleware):
    """Reject arrivals once the fleet-wide queue depth hits a cap.

    Queue depth counts tasks committed to the fleet but not yet executing:
    every node's queued, never-run tasks plus tasks in flight on the wire
    (``ingress``).  Running tasks do not count — the cap bounds *waiting*
    work, the queueing-delay on new admissions, not throughput.  The depth
    is the cluster's :attr:`~repro.cluster.simulator.ClusterSimulator.backlog`
    counter, which every queue keeps up to date as tasks enter and leave
    it, so one admission decision costs O(1) whatever the fleet's size.

    Args:
        max_queue_depth: Admit while the fleet backlog is strictly below
            this many queued tasks; the arrival that would be the
            ``max_queue_depth``-th waiter is rejected.
    """

    name = "admission"

    def __init__(self, max_queue_depth: int = 64) -> None:
        if max_queue_depth <= 0:
            raise ValueError(
                f"max_queue_depth must be positive, got {max_queue_depth!r}"
            )
        self.max_queue_depth = int(max_queue_depth)
        self.admitted = 0
        self.rejected = 0
        self._backlog = None

    def bind(self, chain) -> None:
        super().bind(chain)
        self._backlog = chain.cluster.backlog

    def on_dispatch(self, task: "Task", now: float) -> Verdict:
        if self._backlog.count >= self.max_queue_depth:
            self.rejected += 1
            return reject(self.name)
        self.admitted += 1
        return None

    def stats(self) -> Dict[str, float]:
        return {
            "admitted": float(self.admitted),
            "rejected": float(self.rejected),
            "max_queue_depth": float(self.max_queue_depth),
        }
