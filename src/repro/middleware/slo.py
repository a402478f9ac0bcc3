"""SLO tracking: attainment against a latency target, live as a gauge."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.middleware.base import Middleware

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import ClusterNode
    from repro.simulation.task import Task

#: Slack for the target comparison, so a task finishing exactly on target
#: attains despite float rounding.
_SLO_EPSILON = 1e-9


class SLOTrackerMiddleware(Middleware):
    """Observe completions (and rejections) against a latency SLO.

    Pure observation — never vetoes a task.  A completion attains the SLO
    when its turnaround (or response) time is within ``target`` seconds;
    tasks dropped by other middleware in the chain count as misses (the
    honest accounting for shedding policies) unless ``count_rejections``
    is off.  With telemetry enabled the running attainment is registered
    as the ``middleware.slo_attainment`` gauge, sampled on the run's
    ordinary gauge cadence.

    Args:
        target: SLO latency target in seconds.
        metric: ``"turnaround"`` (arrival → completion) or ``"response"``
            (arrival → first run).
        count_rejections: Count chain-rejected tasks as SLO misses.
    """

    name = "slo_tracker"

    def __init__(
        self,
        target: float = 1.0,
        metric: str = "turnaround",
        count_rejections: bool = True,
    ) -> None:
        if target <= 0:
            raise ValueError(f"target must be positive, got {target!r}")
        if metric not in ("turnaround", "response"):
            raise ValueError(
                f"metric must be 'turnaround' or 'response', got {metric!r}"
            )
        self.target = float(target)
        self.metric = metric
        self.count_rejections = bool(count_rejections)
        self.attained = 0
        self.missed = 0
        self.rejected = 0

    def bind(self, chain) -> None:
        super().bind(chain)
        telemetry = chain.cluster.telemetry
        if telemetry is not None:
            telemetry.gauges.register(
                "middleware.slo_attainment",
                self.attainment,
                chain.cluster.series,
            )

    # ----------------------------------------------------------------- hooks

    def on_complete(self, task: "Task", node: "ClusterNode", now: float) -> None:
        value = (
            task.turnaround_time if self.metric == "turnaround"
            else task.response_time
        )
        if value is not None and value <= self.target + _SLO_EPSILON:
            self.attained += 1
        else:
            self.missed += 1

    def on_reject(self, task: "Task", reason: str, now: float) -> None:
        if self.count_rejections:
            self.rejected += 1

    # ------------------------------------------------------------------ stats

    def attainment(self) -> float:
        """Fraction of observed tasks inside the SLO (1.0 before traffic)."""
        total = self.attained + self.missed + self.rejected
        if total == 0:
            return 1.0
        return self.attained / total

    def stats(self) -> Dict[str, float]:
        return {
            "attained": float(self.attained),
            "missed": float(self.missed),
            "rejected": float(self.rejected),
            "attainment": self.attainment(),
            "target": self.target,
        }
