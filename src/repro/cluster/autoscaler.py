"""Reactive fleet autoscaler.

Watches the fleet's load — invocations per core that the fleet is on the
hook for: delivered (inflight) work, ingress work on the wire, and the
cluster's waiting backlog, over every non-retired node's cores — on a fixed
control interval and adds or drains nodes when the load leaves a target
band: the classic reactive loop of serverless control planes.  New nodes pay
the cold-start delay from
:class:`~repro.cluster.config.ClusterConfig.node_boot_time` (modeled on the
Firecracker microVM boot figure) before they accept work; removed nodes
drain first so no running invocation is killed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.dispatchers import bound_work
from repro.simulation.hooks import bind_cluster


def fleet_load_signal(cluster) -> float:
    """Invocations per core the fleet is on the hook for.

    The numerator counts every invocation awaiting or receiving service:
    work *delivered* to node schedulers (inflight), work *on the wire*
    under a non-zero-RTT network model (ingress), and the cluster's
    *waiting* backlog — tasks parked because no node was active when they
    arrived (e.g. while the whole fleet boots).  The explicit waiting term
    is what lets a backlog alone trigger a scale-up before any node
    accepts work.

    Booting and draining nodes count in the denominator: capacity that was
    already paid for should damp further scale-ups.  A fleet whose
    non-retired nodes expose no cores reports infinite load while work is
    pending — nothing can ever serve it — instead of masking the division
    by zero with a floor.

    Module-level so the telemetry layer can sample the same signal as a
    ``cluster.fleet_load`` gauge on clusters that run without an autoscaler.
    """
    nodes = [n for n in cluster.nodes if not n.state.terminal]
    waiting = len(cluster.waiting_tasks)
    if not nodes:
        # Whole fleet terminal (e.g. wiped by revocations): a parked backlog
        # must read as infinite load — the signal a scale-up reacts to —
        # not as an idle fleet.
        return float("inf") if waiting else 0.0
    total_cores = sum(len(n.machine) for n in nodes)
    bound = sum(bound_work(n) for n in nodes)
    demand = bound + waiting
    if total_cores == 0:
        return float("inf") if demand else 0.0
    return demand / total_cores


@dataclass(frozen=True)
class AutoscalerConfig:
    """Tuning knobs of the reactive autoscaler.

    Attributes:
        min_nodes: Never drain below this many active nodes.
        max_nodes: Never grow the fleet beyond this many nodes.
        check_interval: Seconds between control decisions.
        scale_up_load: Add a node when the fleet load signal (see
            :meth:`ReactiveAutoscaler.fleet_load`: inflight + ingress +
            waiting invocations per non-retired core) exceeds this threshold.
        scale_down_load: Drain a node when the fleet load signal falls below
            this threshold.
        cooldown: Minimum seconds between two scaling actions, so one burst
            does not trigger a flapping add/drain sequence.
    """

    min_nodes: int = 1
    max_nodes: int = 16
    check_interval: float = 1.0
    scale_up_load: float = 1.5
    scale_down_load: float = 0.4
    cooldown: float = 2.0

    def __post_init__(self) -> None:
        if self.min_nodes < 1:
            raise ValueError(f"min_nodes must be >= 1, got {self.min_nodes!r}")
        if self.max_nodes < self.min_nodes:
            raise ValueError(
                f"max_nodes ({self.max_nodes}) must be >= min_nodes ({self.min_nodes})"
            )
        if self.check_interval <= 0:
            raise ValueError(
                f"check_interval must be positive, got {self.check_interval!r}"
            )
        if self.scale_down_load >= self.scale_up_load:
            raise ValueError(
                f"scale_down_load ({self.scale_down_load}) must be below "
                f"scale_up_load ({self.scale_up_load})"
            )
        if self.cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {self.cooldown!r}")


class ReactiveAutoscaler:
    """Threshold autoscaler driven by the cluster's control timer."""

    def __init__(self, config: AutoscalerConfig | None = None) -> None:
        self.config = config or AutoscalerConfig()
        self.cluster = None
        self.scale_ups = 0
        self.scale_downs = 0
        self.replacements = 0
        self._last_action_time: float = float("-inf")

    def attach(self, cluster) -> None:
        """Wire onto ``cluster``: a control tick every check interval from
        the run's start and a replacement for every failed node, so it can
        regrow a fleet that lost every node."""
        bind_cluster(self, cluster)
        cluster.fleet_can_regrow = True
        cluster.hooks.subscribe("run_started", self._start)
        cluster.hooks.subscribe("node_failed", self.on_node_failure)

    def _start(self, now: float) -> None:
        self.cluster.every(self.config.check_interval, self.on_tick, "autoscaler-tick")

    # ----------------------------------------------------------------- signal

    def fleet_load(self) -> float:
        """The fleet load signal (see :func:`fleet_load_signal`)."""
        return fleet_load_signal(self.cluster)

    # ------------------------------------------------------------------- tick

    def on_tick(self, now: float) -> None:
        """One control decision, made every check interval."""
        load = self.fleet_load()
        self.cluster.record_series("autoscaler.load", load)
        if now - self._last_action_time < self.config.cooldown:
            return
        growable = [n for n in self.cluster.nodes if not n.state.terminal]
        active = self.cluster.active_nodes()
        if load > self.config.scale_up_load and len(growable) < self.config.max_nodes:
            self.cluster.add_node(booting=True)
            self.scale_ups += 1
            self._last_action_time = now
            self._record_decision("scale-up", now, load)
        elif load < self.config.scale_down_load and len(active) > self.config.min_nodes:
            # Least *committed* node drains: work on the wire toward a node
            # must land and run there, so it counts like delivered work.
            victim = min(active, key=lambda n: (bound_work(n), -n.node_id))
            self.cluster.drain_node(victim)
            self.scale_downs += 1
            self._last_action_time = now
            self._record_decision("scale-down", now, load)

    # ---------------------------------------------------------------- failure

    def on_node_failure(self, node, now: float) -> None:
        """Replace revoked capacity like-for-like (the ``node_failed`` hook).

        Replacement is event-driven, not cooldown-gated: losing a node is
        the provider's doing, not flapping, and waiting a control interval
        to react would double the damage.  The replacement boots with the
        failed node's own spec (shape and rates), capped by ``max_nodes``
        over the surviving (non-terminal) fleet.  It does not stamp
        ``_last_action_time`` — a revocation must not delay an ordinary
        scale decision either.
        """
        alive = [n for n in self.cluster.nodes if not n.state.terminal]
        if len(alive) >= self.config.max_nodes:
            return
        spec = node.spec.singleton() if node.spec is not None else None
        self.cluster.add_node(booting=True, spec=spec)
        self.replacements += 1
        self._record_decision("replace", now, self.fleet_load())

    def _record_decision(self, action: str, now: float, load: float) -> None:
        """Publish one scaling decision on the cluster's hook bus."""
        for hook in self.cluster.hooks.autoscaled:
            hook(action, load, now)
