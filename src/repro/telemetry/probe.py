"""The telemetry subscriber: lifecycle hooks in; spans, counters, gauges out.

:class:`TelemetryProbe` is the only code that writes a run's trace,
counters and gauges.  It subscribes to the run's
:class:`~repro.simulation.hooks.HookBus` and records spans keyed
``(kind, id)`` so the next state change closes them — ``queued`` (``"q"``),
``run`` (``"r"``), ``wire`` (``"w"``), ``backoff`` (``"b"``), ``migrate`` /
``checkpoint-migrate`` (``"m"``) and a node's ``revocation-warning``
(``"v"``) — plus instants, the ``chaos.*`` / ``middleware.*`` /
``migration.*`` / ``autoscaler.*`` counters, and the ``machine.busy_cores``,
``cluster.fleet_load`` and ``cluster.node<i>.*`` gauges.  Per-task trace
hooks are subscribed only when the spec records a trace.
"""

from __future__ import annotations

from repro.telemetry.tracer import (
    AUTOSCALER_TID,
    CHAOS_TID,
    CLUSTER_PID,
    DISPATCH_TID,
    MACHINE_PID,
    MIDDLEWARE_TID,
    MIGRATION_TID,
    QUEUE_TID,
    core_tid,
    node_pid,
)

#: Hooks that only feed the tracer.
_TRACE_HOOKS = (
    "task_queued", "task_started", "task_stopped", "task_finished",
    "task_arrived", "task_resumed", "task_dispatched",
)
#: Fleet hooks that also count or sample, so they are wired without a trace.
_FLEET_HOOKS = (
    "task_deferred", "task_rejected", "task_released", "task_lost",
    "migration_planned", "task_migrating", "task_migrated", "node_changed",
    "autoscaled",
)


class _NoTrace:
    """Stands in for the tracer when the spec records no trace."""

    def begin(self, *args, **kwargs) -> None:
        pass

    end = instant = name_process = name_track = begin


def _pid(engine) -> int:
    """Track pid of the machine an engine drives."""
    node = engine.node
    return MACHINE_PID if node is None else node_pid(node.node_id)


class TelemetryProbe:
    """Subscribes one telemetry runtime to one run's hook bus."""

    def __init__(self, telemetry) -> None:
        self.traced = telemetry.tracer is not None
        self.tracer = telemetry.tracer if self.traced else _NoTrace()
        self.counters = telemetry.counters
        self.gauges = telemetry.gauges
        self._arrival_lane = (MACHINE_PID, QUEUE_TID)
        self._series = self._booting = self._draining = None

    # ----------------------------------------------------------------- wiring

    def _subscribe(self, hooks, names) -> None:
        for name in names:
            hooks.subscribe(name, getattr(self, name))

    def _name_machine(self, pid: int, label: str, machine) -> None:
        self.tracer.name_process(pid, label)
        self.tracer.name_track(pid, QUEUE_TID, "queue")
        for core in machine.cores:
            self.tracer.name_track(pid, core_tid(core.core_id), f"core {core.core_id}")

    def attach_machine(self, simulator) -> None:
        """Wire a standalone machine: its tracks, hooks and busy-core gauge."""
        self._name_machine(MACHINE_PID, "machine", simulator.machine)
        if self.traced:
            self._subscribe(simulator.hooks, _TRACE_HOOKS)
        cores = simulator.machine.cores
        self.gauges.register(
            "machine.busy_cores",
            lambda: sum(1 for core in cores if core.is_busy),
            simulator.collector.series,
        )

    def attach_cluster(self, cluster) -> None:
        """Wire a fleet: control-plane tracks, hooks and the fleet gauge.

        Each node is wired when it is commissioned (``node_changed``).
        """
        from repro.cluster.autoscaler import fleet_load_signal
        from repro.cluster.node import NodeState

        self._booting, self._draining = NodeState.BOOTING, NodeState.DRAINING
        self._series = cluster.series
        self._arrival_lane = (CLUSTER_PID, DISPATCH_TID)
        tracer = self.tracer
        tracer.name_process(CLUSTER_PID, "cluster")
        tracer.name_track(CLUSTER_PID, DISPATCH_TID, "dispatch")
        tracer.name_track(CLUSTER_PID, AUTOSCALER_TID, "autoscaler")
        tracer.name_track(CLUSTER_PID, MIGRATION_TID, "migration")
        if cluster._middleware:
            tracer.name_track(CLUSTER_PID, MIDDLEWARE_TID, "middleware")
        if cluster._chaos is not None:
            tracer.name_track(CLUSTER_PID, CHAOS_TID, "chaos")
        if self.traced:
            self._subscribe(cluster.hooks, _TRACE_HOOKS)
        self._subscribe(cluster.hooks, _FLEET_HOOKS)
        self.gauges.register(
            "cluster.fleet_load", lambda: fleet_load_signal(cluster), self._series
        )

    # ------------------------------------------------------------ task hooks

    def task_queued(self, engine, task, now) -> None:
        # A task landing after a wire delay also leaves the wire here.
        tid = task.task_id
        self.tracer.end(("w", tid), now)
        self.tracer.begin(("q", tid), "queued", _pid(engine), QUEUE_TID, now, tid)

    def task_started(self, engine, task, core, now) -> None:
        tid = task.task_id
        self.tracer.end(("q", tid), now)
        self.tracer.begin(
            ("r", tid), "run", _pid(engine), core_tid(core.core_id), now, tid
        )

    def task_stopped(self, engine, task, preempted, now) -> None:
        tid = task.task_id
        self.tracer.end(("r", tid), now)
        if preempted:
            # The task is runnable again but off-core: back to waiting.
            self.tracer.begin(("q", tid), "queued", _pid(engine), QUEUE_TID, now, tid)

    def task_finished(self, engine, task, now) -> None:
        self.tracer.end(("r", task.task_id), now)

    def task_arrived(self, task, now) -> None:
        pid, tid = self._arrival_lane
        self.tracer.instant("arrival", pid, tid, now, task.task_id)

    def task_resumed(self, task, now) -> None:
        # Closes a retry-backoff span if one is open (no-op otherwise).
        self.tracer.end(("b", task.task_id), now)

    def task_deferred(self, task, resume_at, now) -> None:
        self.tracer.instant(
            "mw-defer", CLUSTER_PID, MIDDLEWARE_TID, now, task.task_id, resume_at
        )
        self.counters.inc("middleware.deferred")

    def task_rejected(self, task, reason, now) -> None:
        self.tracer.instant(
            f"reject:{reason}", CLUSTER_PID, MIDDLEWARE_TID, now, task.task_id
        )
        self.counters.inc(f"middleware.rejected.{reason}")

    def task_dispatched(self, task, node, now) -> None:
        tid, nid = task.task_id, node.node_id
        self.tracer.instant("dispatch", CLUSTER_PID, DISPATCH_TID, now, tid, float(nid))
        if node.dispatch_delay > 0.0:
            self.tracer.begin(("w", tid), "wire", node_pid(nid), QUEUE_TID, now, tid)

    def task_released(self, task, node, now) -> None:
        # Retry is the only releaser: the task backs off until it re-enters
        # admission (``task_resumed``).
        tid = task.task_id
        self.tracer.end(("q", tid), now)
        self.tracer.begin(("b", tid), "backoff", CLUSTER_PID, MIDDLEWARE_TID, now, tid)
        self.counters.inc("middleware.retry.timeouts")

    def task_lost(self, task, node, now) -> None:
        tid = task.task_id
        self.tracer.end(("w", tid), now)
        self.tracer.end(("q", tid), now)
        self.tracer.instant(
            "task-lost", CLUSTER_PID, CHAOS_TID, now, tid, float(node.node_id)
        )
        self.counters.inc("chaos.tasks_lost")

    # ------------------------------------------------------- migration hooks

    def migration_planned(self, plans, now) -> None:
        """Count planned moves: checkpoints, drain rescues and steals."""
        counts = {"rescues": 0, "checkpoints": 0, "steals": 0}
        for plan in plans:
            if plan.running:
                counts["checkpoints"] += 1
            elif plan.source.state is self._draining:
                counts["rescues"] += 1
            else:
                counts["steals"] += 1
        for kind, count in counts.items():
            if count:
                self.counters.inc(f"migration.{kind}_planned", count)

    def task_migrating(self, plan, now) -> None:
        if plan.running:
            self.counters.inc("migration.checkpoints")
        # The task leaves its source's queue for the migration lane.
        tid = plan.task.task_id
        name = "checkpoint-migrate" if plan.running else "migrate"
        self.tracer.end(("q", tid), now)
        self.tracer.begin(("m", tid), name, CLUSTER_PID, MIGRATION_TID, now, tid)

    def task_migrated(self, task, moved, now) -> None:
        self.tracer.end(("m", task.task_id), now)
        if moved:
            self.counters.inc("migration.completed")

    # ----------------------------------------------------- fleet-level hooks

    def autoscaled(self, action, load, now) -> None:
        self.counters.inc(f"autoscaler.{action.replace('-', '_')}s")
        self.tracer.instant(action, CLUSTER_PID, AUTOSCALER_TID, now, value=load)

    def node_changed(self, node, what, now) -> None:
        tracer = self.tracer
        nid = node.node_id
        pid, value = node_pid(nid), float(nid)
        if what == "commission":
            self._name_machine(pid, f"node {nid}", node.machine)
            booting = node.state is self._booting
            tracer.instant(
                "node-boot" if booting else "node-active", pid, QUEUE_TID, now,
                value=value,
            )
            self._register_node(node)
        elif what == "warn":
            tracer.instant("revocation-warning", pid, QUEUE_TID, now, value=value)
            tracer.begin(("v", nid), "revocation-warning", CLUSTER_PID, CHAOS_TID, now)
            self.counters.inc("chaos.revocation_warnings")
        elif what == "escape":
            self.counters.inc("chaos.escapes")
        elif what in ("active", "drain", "retire"):
            tracer.instant(f"node-{what}", pid, QUEUE_TID, now, value=value)
            if what == "retire":
                # Closes a revoked node's warning span when it drained dry
                # before its deadline (no-op otherwise).
                tracer.end(("v", nid), now)
                self._unregister_node(nid)
        else:  # a failure reason: the node was torn down
            tracer.end(("v", nid), now)
            tracer.instant(f"node-{what}", pid, QUEUE_TID, now, value=value)
            tracer.instant(f"node-{what}", CLUSTER_PID, CHAOS_TID, now, value=value)
            self.counters.inc(f"chaos.node_failures.{what}")
            self._unregister_node(nid)

    def _register_node(self, node) -> None:
        prefix = f"cluster.node{node.node_id}"
        register, series = self.gauges.register, self._series
        register(f"{prefix}.queue_depth", lambda: float(node.stealable_count()), series)
        register(f"{prefix}.busy_cores", lambda: float(node.busy_core_count()), series)
        if node.dispatch_delay > 0.0:
            register(f"{prefix}.ingress", lambda: float(node.ingress), series)

    def _unregister_node(self, nid: int) -> None:
        """A terminal node's signals are frozen; stop sampling them."""
        for signal in ("queue_depth", "busy_cores", "ingress"):
            self.gauges.unregister(f"cluster.node{nid}.{signal}")
