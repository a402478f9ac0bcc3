"""Timeout/retry with exponential backoff through the ordinary event path."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.middleware.base import ADMIT_TAG, TIMEOUT_TAG, Middleware
from repro.simulation.events import EventPriority

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import ClusterNode
    from repro.simulation.task import Task


class TimeoutRetryMiddleware(Middleware):
    """Pull tasks that queued too long back out and re-dispatch them later.

    Every landing arms a timeout.  If the task is still waiting (never ran)
    when it fires, the middleware asks the cluster to release it from its
    node's queue and re-enqueues it — after an exponential backoff — as an
    ordinary admission event, so the re-dispatch runs the whole chain and
    the dispatcher re-picks a node with fresh load information.

    Exactly-once guarantees, in interplay with work stealing:

    * a re-landing (e.g. a migration landing the task on a new node) cancels
      the previous timer before arming a new one, so one task never has two
      live timers;
    * the release must *succeed* for a retry to proceed — a task that
      started running, or that the migration layer already pulled onto the
      wire (drain rescue / idle stealing), fails the release and the retry
      is dropped, so a task in backoff can never also land via stealing
      (and vice versa).  A task in backoff is in no queue at all, which is
      also why the stealing planner can never see it.

    Args:
        timeout: Seconds a task may wait in a node queue before a retry.
        max_retries: Retries per task; afterwards it waits out its queue.
        backoff: First retry's re-enqueue delay in seconds.
        backoff_factor: Multiplier on the delay per subsequent retry.
    """

    name = "timeout_retry"

    def __init__(
        self,
        timeout: float = 5.0,
        max_retries: int = 3,
        backoff: float = 0.5,
        backoff_factor: float = 2.0,
    ) -> None:
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout!r}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries!r}")
        if backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {backoff!r}")
        if backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {backoff_factor!r}"
            )
        self.timeout = float(timeout)
        self.max_retries = int(max_retries)
        self.backoff = float(backoff)
        self.backoff_factor = float(backoff_factor)
        self.retries = 0
        self.timeouts_armed = 0
        self.exhausted = 0
        self._attempts: Dict[int, int] = {}
        self._timers: Dict[int, object] = {}

    # ----------------------------------------------------------------- hooks

    def backoff_delay(self, attempt: int) -> float:
        """Re-enqueue delay of retry number ``attempt`` (1-based)."""
        return self.backoff * self.backoff_factor ** (attempt - 1)

    def on_land(self, task: "Task", node: "ClusterNode", now: float) -> None:
        old = self._timers.pop(task.task_id, None)
        if old is not None:
            # A re-landing (migration) restarts the wait window; without this
            # cancel the stale timer would fire against the new queue and
            # double-retry the task.
            old.cancel()
        if task.first_run_time is not None:
            return  # already ran somewhere; the timeout window does not apply
        if self._attempts.get(task.task_id, 0) >= self.max_retries:
            return  # out of retries: let it wait out its queue
        self.timeouts_armed += 1
        self._timers[task.task_id] = self.chain.cluster.events.push(
            now + self.timeout,
            None,
            priority=EventPriority.CONTROL,
            tag=TIMEOUT_TAG,
            payload=(self, task),
        )

    def on_complete(self, task: "Task", node: "ClusterNode", now: float) -> None:
        timer = self._timers.pop(task.task_id, None)
        if timer is not None:
            timer.cancel()
        self._attempts.pop(task.task_id, None)

    def on_reject(self, task: "Task", reason: str, now: float) -> None:
        # A task dropped elsewhere in the chain (e.g. re-admission refused by
        # admission control) is done: drop its retry state.
        timer = self._timers.pop(task.task_id, None)
        if timer is not None:
            timer.cancel()
        self._attempts.pop(task.task_id, None)

    # --------------------------------------------------------------- timeout

    def on_timeout(self, task: "Task") -> None:
        """One armed timeout fired; retry the task if it is still waiting."""
        self._timers.pop(task.task_id, None)
        if task.is_finished or task.first_run_time is not None:
            return
        cluster = self.chain.cluster
        now = cluster.now
        if not cluster.release_queued(task):
            # Not in any node queue: running, on the migration wire, or
            # already waiting for a booting fleet.  Never double-land it.
            return
        attempt = self._attempts.get(task.task_id, 0) + 1
        self._attempts[task.task_id] = attempt
        self.retries += 1
        if attempt >= self.max_retries:
            self.exhausted += 1
        task.metadata["retries"] = attempt
        delay = self.backoff_delay(attempt)
        cluster.events.push(
            now + delay,
            None,
            priority=EventPriority.ARRIVAL,
            tag=ADMIT_TAG,
            payload=task,
        )

    def stats(self) -> Dict[str, float]:
        return {
            "retries": float(self.retries),
            "timeouts_armed": float(self.timeouts_armed),
            "exhausted": float(self.exhausted),
            "timeout": self.timeout,
            "max_retries": float(self.max_retries),
        }
