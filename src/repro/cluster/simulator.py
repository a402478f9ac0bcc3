"""Multi-node cluster simulator.

One shared :class:`~repro.simulation.clock.VirtualClock` and
:class:`~repro.simulation.events.EventQueue` drive N nodes — possibly of
different shapes (see :class:`~repro.cluster.config.NodeSpec`) — each running
its own per-node scheduler from the scheduler registry.  Arrivals are routed
by a pluggable dispatch policy (see :mod:`repro.cluster.dispatchers`), an
optional migration policy periodically rebalances queued work across nodes
(see :mod:`repro.cluster.migration`), and an optional reactive autoscaler
grows and shrinks the fleet with cold-start delays.  A configurable network
model (:class:`~repro.cluster.config.NetworkSpec`) makes dispatch pay a
dispatcher→node wire delay through per-node ingress queues; the default
zero-RTT model keeps dispatch instantaneous and bit-identical to the
pre-network engine.  Everything stays deterministic: same config + same
workload ⇒ bit-identical results.
"""

from __future__ import annotations

import time as _wallclock
from typing import List, Optional

from repro.chaos.injector import build_injector
from repro.cluster.autoscaler import ReactiveAutoscaler
from repro.cluster.config import ClusterConfig, NodeSpec
from repro.cluster.dispatchers import Dispatcher, bound_work, normalized_load
from repro.cluster.load_index import ActiveNodeView, NodeLoadIndex
from repro.cluster.migration import Migration, MigrationPolicy
from repro.cluster.node import ClusterNode, NodeState
from repro.cluster.registry import create_dispatcher, create_migration_policy
from repro.cluster.results import ClusterResult
from repro.middleware.base import ADMIT_TAG, DEFER, TIMEOUT_TAG, MiddlewareChain
from repro.schedulers.registry import create_scheduler
from repro.simulation.columns import build_columns_store
from repro.simulation.engine import EventLoop, SimulationError
from repro.simulation.events import EventPriority
from repro.simulation.machine import Machine
from repro.simulation.metrics import SeriesPoint
from repro.simulation.task import Task
from repro.telemetry.runtime import as_telemetry
from repro.telemetry.tracer import (
    AUTOSCALER_TID,
    CHAOS_TID,
    CLUSTER_PID,
    DISPATCH_TID,
    MIDDLEWARE_TID,
    MIGRATION_TID,
    QUEUE_TID,
    core_tid,
    node_pid,
)


#: Tag of a lost task's re-admission event (payload: the task).  Unlike a
#: fed arrival it was already taken in, so it is not counted again.
READMIT_TAG = "readmit"


class ClusterSimulator(EventLoop):
    """Event-driven fleet simulator: dispatcher + N machines + autoscaler
    + optional work-stealing migration, all on one :class:`EventLoop`."""

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        dispatcher: Optional[Dispatcher] = None,
        autoscaler: Optional[ReactiveAutoscaler] = None,
        migration_policy: Optional[MigrationPolicy] = None,
        telemetry=None,
        middleware=None,
        chaos=None,
        metrics_cap: Optional[int] = None,
        metrics_policy: str = "reservoir",
        spill_dir: Optional[str] = None,
    ) -> None:
        super().__init__()
        self.config = config or ClusterConfig()
        # Node engines share this config's time limit and sampling settings.
        self._loop_config = self.config.build_node_config()
        self.dispatcher = dispatcher or self._build_dispatcher()
        self.migration_policy = migration_policy or self._build_migration_policy()
        self.autoscaler = autoscaler
        if self.autoscaler is not None:
            self.autoscaler.attach(self)
        # One shared telemetry runtime (spec or live) spans the control plane
        # and every node engine; ``_tracer`` is cached for hot-path guards.
        self.telemetry = as_telemetry(telemetry)
        self._tracer = self.telemetry.tracer if self.telemetry is not None else None
        # Ordered middleware chain riding the dispatch/land/complete seams;
        # None when no middleware is configured, which keeps every hook
        # behind the same one-attribute ``is None`` guard as telemetry (the
        # off path is the exact pre-middleware code path).
        self._middleware = self._coerce_middleware(middleware)
        # Fault injector built from an explicit spec or the config's; None
        # (no spec) keeps every failure hook behind the same one-attribute
        # ``is None`` guard — the chaos-off path is the exact pre-chaos code.
        self._chaos = build_injector(
            chaos if chaos is not None else self.config.chaos, self
        )
        # Incrementally maintained active set + load index: dispatch consults
        # these instead of rescanning the fleet per arrival.
        self._load_index = NodeLoadIndex()
        self._active = ActiveNodeView(self._load_index)
        index_key = self.dispatcher.load_index_key()
        if index_key is not None:
            self._load_index.register(*index_key)
        self.nodes: List[ClusterNode] = []
        # Memory-bounding policy for columnar metrics: applied to the fleet
        # store here and to every node store (including autoscaler scale-ups)
        # in _create_node.  Node reservoirs get derived seeds so fleets stay
        # deterministic per node id.
        self._metrics_cap = metrics_cap
        self._metrics_policy = metrics_policy
        self._metrics_spill_dir = spill_dir
        #: Fleet-wide columnar metrics store, appended per completion.
        self.columns = build_columns_store(
            metrics_cap,
            policy=metrics_policy,
            spill_dir=spill_dir,
            seed=self.config.seed,
        )
        self.series: dict = {}
        self.waiting_tasks: List[Task] = []
        self.nodes_added = 0
        self.nodes_removed = 0
        self.nodes_failed = 0
        self.tasks_migrated = 0
        self.tasks_checkpointed = 0
        self.tasks_rejected = 0
        #: Tasks lost to node failures (each re-enters via re-admission).
        self.tasks_lost = 0
        #: Service seconds of partial progress forfeited by failures.
        self.wasted_service = 0.0
        self.rejected_tasks: List[Task] = []
        self._migrations_inflight = 0
        self._next_node_id = 0
        if self.telemetry is not None:
            self._wire_cluster_telemetry()
        if self._middleware is not None:
            self._middleware.bind(self)
            # Nodes only pay the landing hook when some middleware wants it.
            self._land_chain = (
                self._middleware if self._middleware.has_land_hooks else None
            )
        else:
            self._land_chain = None
        for spec in self.config.expanded_specs():
            self._create_node(NodeState.ACTIVE, spec)

    # ------------------------------------------------------------------ wiring

    def _wire_cluster_telemetry(self) -> None:
        """Name the control-plane tracks, register fleet-level gauges."""
        from repro.cluster.autoscaler import fleet_load_signal

        telemetry = self.telemetry
        tracer = self._tracer
        if tracer is not None:
            tracer.name_process(CLUSTER_PID, "cluster")
            tracer.name_track(CLUSTER_PID, DISPATCH_TID, "dispatch")
            tracer.name_track(CLUSTER_PID, AUTOSCALER_TID, "autoscaler")
            tracer.name_track(CLUSTER_PID, MIGRATION_TID, "migration")
            if self._middleware is not None:
                tracer.name_track(CLUSTER_PID, MIDDLEWARE_TID, "middleware")
            if self._chaos is not None:
                tracer.name_track(CLUSTER_PID, CHAOS_TID, "chaos")
        telemetry.gauges.register(
            "cluster.fleet_load", lambda: fleet_load_signal(self), self.series
        )
        if self.migration_policy is not None:
            self.migration_policy.telemetry = telemetry

    def _instrument_node(self, node: ClusterNode) -> None:
        """Point one node (and its engine) at the shared telemetry runtime."""
        telemetry = self.telemetry
        tracer = self._tracer
        pid = node_pid(node.node_id)
        engine = node.engine
        engine.telemetry = telemetry
        engine._tracer = tracer
        engine._trace_pid = pid
        node._tracer = tracer
        node._trace_pid = pid
        if tracer is not None:
            tracer.name_process(pid, f"node {node.node_id}")
            tracer.name_track(pid, QUEUE_TID, "queue")
            for core in node.machine.cores:
                tracer.name_track(pid, core_tid(core.core_id), f"core {core.core_id}")
            lifecycle = (
                "node-boot" if node.state is NodeState.BOOTING else "node-active"
            )
            tracer.instant(
                lifecycle, pid, QUEUE_TID, self.now, value=float(node.node_id)
            )
        nid = node.node_id
        telemetry.gauges.register(
            f"cluster.node{nid}.queue_depth",
            lambda n=node: float(n.stealable_count()),
            self.series,
        )
        telemetry.gauges.register(
            f"cluster.node{nid}.busy_cores",
            lambda n=node: float(n.busy_core_count()),
            self.series,
        )
        if node.dispatch_delay > 0.0:
            telemetry.gauges.register(
                f"cluster.node{nid}.ingress",
                lambda n=node: float(n.ingress),
                self.series,
            )

    def _build_dispatcher(self) -> Dispatcher:
        kwargs = dict(self.config.dispatcher_kwargs)
        if "seed" not in kwargs:
            # Randomized dispatchers take a seed; deterministic ones do not.
            try:
                return create_dispatcher(
                    self.config.dispatcher, seed=self.config.seed, **kwargs
                )
            except TypeError:
                pass
        return create_dispatcher(self.config.dispatcher, **kwargs)

    def _coerce_middleware(self, middleware) -> Optional[MiddlewareChain]:
        """Normalise the constructor argument (or config specs) to a chain.

        Accepts a prebuilt :class:`MiddlewareChain`, an iterable of
        middleware instances, or ``None`` — in which case the chain is built
        from the config's declarative specs.  Empty chains collapse to
        ``None`` so a ``middleware: []`` scenario takes the exact
        pre-middleware code path.
        """
        if middleware is None:
            if not self.config.middleware:
                return None
            middleware = MiddlewareChain(
                [spec.build() for spec in self.config.middleware]
            )
        elif not isinstance(middleware, MiddlewareChain):
            middleware = MiddlewareChain(middleware)
        if not middleware.middlewares:
            return None
        return middleware

    def _build_migration_policy(self) -> Optional[MigrationPolicy]:
        if self.config.migration is None:
            return None
        return create_migration_policy(
            self.config.migration, **self.config.migration_kwargs
        )

    def _create_node(
        self, state: NodeState, spec: Optional[NodeSpec] = None
    ) -> ClusterNode:
        scheduler = create_scheduler(
            self.config.scheduler, **self.config.scheduler_kwargs
        )
        node_config = self.config.build_node_config(spec)
        machine = Machine(
            node_config, groups=scheduler.preferred_groups(node_config.num_cores)
        )
        node = ClusterNode(
            node_id=self._next_node_id,
            machine=machine,
            scheduler=scheduler,
            config=node_config,
            loop=self,
            state=state,
            spec=spec,
            commissioned_at=self.now,
        )
        self._next_node_id += 1
        self._apply_metrics_policy(node)
        # Wire delay a dispatched task pays to reach this node, resolved once
        # from the network model (per-spec RTT override, probe cost of the
        # installed dispatcher).  Zero keeps dispatch on the instantaneous
        # (pre-network) path.
        node.dispatch_delay = self.config.network.dispatch_delay(
            self.config.effective_rtt(spec),
            getattr(self.dispatcher, "probes_load", False),
        )
        node.load_listener = self._load_index.touch
        node.middleware = self._land_chain
        if self.telemetry is not None:
            self._instrument_node(node)
        self.nodes.append(node)
        if state is NodeState.ACTIVE:
            self._track_active(node)
        if self._chaos is not None:
            # Every node — initial fleet, scale-ups, replacements — gets its
            # failure times drawn the moment it is commissioned.
            self._chaos.arm(node)
        return node

    def _apply_metrics_policy(self, node: ClusterNode) -> None:
        """Bound one node's collector per the cluster's metrics policy.

        Runs for every commissioned node — initial fleet, autoscaler
        scale-ups, chaos replacements — so long streaming runs cannot leak
        memory through late-created nodes.  Reservoir seeds are derived from
        the cluster seed and the node id, keeping fleets deterministic.

        The fleet-wide store keeps the full ``metrics_cap`` rows (it backs
        the headline CDFs); per-node stores share that same budget across
        the initial fleet size, so total retained rows stay O(cap) rather
        than O(cap * nodes).  Per-node counts/means/billing remain exact
        either way — only the per-node percentile sample shrinks.
        """
        collector = node.engine.collector
        if self._stream is not None:
            # Streamed runs retain no task objects (fleet accounting runs
            # off engine._last_finished).
            collector.keep_tasks = False
        if self._metrics_cap is not None:
            fleet_size = max(1, len(self.config.expanded_specs()))
            node_cap = max(256, self._metrics_cap // fleet_size)
            collector.columns = build_columns_store(
                node_cap,
                policy=self._metrics_policy,
                spill_dir=self._metrics_spill_dir,
                seed=self.config.seed * 1_000_003 + node.node_id + 1,
            )

    # ---------------------------------------------------------------- series

    def record_series(self, name: str, value: float) -> None:
        """Record one point of a named fleet-level time series.

        With telemetry enabled the point flows through the gauge registry
        (so it is counted in the snapshot); either way it lands in the same
        ``self.series`` store under the same name.
        """
        if self.telemetry is not None:
            self.telemetry.gauges.record(self.series, name, self.now, value)
        else:
            self.series.setdefault(name, []).append(
                SeriesPoint(time=self.now, value=value)
            )

    # ------------------------------------------------------------------- fleet

    def active_nodes(self) -> List[ClusterNode]:
        """Nodes accepting work, in node-id order (deterministic).

        Returns a snapshot; the dispatch hot path uses the cluster's
        internal incrementally-maintained view directly.
        """
        return list(self._active)

    def _track_active(self, node: ClusterNode) -> None:
        self._active.insert_node(node)
        self._load_index.add(node)

    def _untrack_active(self, node: ClusterNode) -> None:
        self._active.remove_node(node)
        self._load_index.discard(node)

    def add_node(
        self, booting: bool = True, spec: Optional[NodeSpec] = None
    ) -> ClusterNode:
        """Grow the fleet by one node.

        With ``booting`` (the default) the node pays the configured
        cold-start delay before accepting work; otherwise it is active
        immediately (warm start).  ``spec`` chooses the node shape;
        heterogeneous fleets default to
        :meth:`~repro.cluster.config.ClusterConfig.scale_up_spec`.
        """
        state = NodeState.BOOTING if booting else NodeState.ACTIVE
        node = self._create_node(state, spec or self.config.scale_up_spec())
        self.nodes_added += 1
        if booting:
            self.events.push(
                self.now + self.config.node_boot_time,
                lambda n=node: self._activate_node(n),
                priority=EventPriority.CONTROL,
                tag=f"node-{node.node_id}-boot",
            )
        else:
            self._activate_node(node)
        return node

    def _activate_node(self, node: ClusterNode) -> None:
        # Only a booting (or freshly created warm) node may come into
        # service: a boot event firing after the node failed, was revoked
        # into DRAINING, or retired must not resurrect it.
        if node.state not in (NodeState.BOOTING, NodeState.ACTIVE):
            return
        was_booting = node.state is NodeState.BOOTING
        node.activate(self.now)
        if self._tracer is not None and was_booting:
            self._tracer.instant(
                "node-active", node_pid(node.node_id), QUEUE_TID, self.now,
                value=float(node.node_id),
            )
        self._track_active(node)
        self._record_fleet_size()
        if self.waiting_tasks:
            backlog, self.waiting_tasks = self.waiting_tasks, []
            for task in backlog:
                self._dispatch(task)

    def drain_node(self, node: ClusterNode) -> None:
        """Stop dispatching to ``node``; it retires once it runs dry.

        With a migration policy attached, the drain immediately triggers a
        migration pass so the node's queued tasks are stolen by the rest of
        the fleet instead of trickling out behind its running work.
        """
        node.start_draining()
        if self._tracer is not None:
            self._tracer.instant(
                "node-drain", node_pid(node.node_id), QUEUE_TID, self.now,
                value=float(node.node_id),
            )
        self._untrack_active(node)
        if self.migration_policy is not None and self._running:
            self._run_migration_pass()
        if node.state is NodeState.DRAINING and bound_work(node) == 0:
            self._retire_node(node)
        self._record_fleet_size()

    def _retire_node(self, node: ClusterNode) -> None:
        node.retire(self.now)
        self._untrack_active(node)
        self.nodes_removed += 1
        if self.telemetry is not None:
            if self._tracer is not None:
                self._tracer.instant(
                    "node-retire", node_pid(node.node_id), QUEUE_TID, self.now,
                    value=float(node.node_id),
                )
                if self._chaos is not None:
                    # A revoked node retiring here drained dry before its
                    # deadline: close the open warning span (no-op if the
                    # retirement was an ordinary scale-down).
                    self._tracer.end(("v", node.node_id), self.now)
            self._unregister_node_gauges(node)
        self._record_fleet_size()

    def _unregister_node_gauges(self, node: ClusterNode) -> None:
        """A terminal node's signals are frozen; stop sampling them."""
        nid = node.node_id
        self.telemetry.gauges.unregister(f"cluster.node{nid}.queue_depth")
        self.telemetry.gauges.unregister(f"cluster.node{nid}.busy_cores")
        self.telemetry.gauges.unregister(f"cluster.node{nid}.ingress")

    # ----------------------------------------------------------------- chaos

    def _fail_node(self, node: ClusterNode, reason: str) -> None:
        """Tear ``node`` down right now (fault injector callback).

        Every queued and running task it held forfeits its progress and
        re-enters through the ordinary ARRIVAL re-admission path (so retry
        and shedding middleware see it again); an attached autoscaler gets
        the chance to replace the lost capacity immediately.
        """
        if node.state.terminal:
            return
        if node.is_active:
            self._untrack_active(node)
        lost = node.fail(self.now)
        self.nodes_failed += 1
        if self.telemetry is not None:
            if self._tracer is not None:
                self._tracer.end(("v", node.node_id), self.now)
                self._tracer.instant(
                    f"node-{reason}", node_pid(node.node_id), QUEUE_TID,
                    self.now, value=float(node.node_id),
                )
                self._tracer.instant(
                    f"node-{reason}", CLUSTER_PID, CHAOS_TID, self.now,
                    value=float(node.node_id),
                )
            self.telemetry.counters.inc(f"chaos.node_failures.{reason}")
            self._unregister_node_gauges(node)
        for task in lost:
            self._lose_task(task, node)
        if self.autoscaler is not None:
            self.autoscaler.on_node_failure(node, self.now)
        self._record_fleet_size()

    def _lose_task(self, task: Task, node: ClusterNode) -> None:
        """Re-admit one task its failed node was holding.

        Crash semantics: partial progress is forfeited (the cost of running
        without checkpoints) and the task re-enters through the ordinary
        ARRIVAL path after the configured detection delay, composing with
        whatever middleware chain guards dispatch.
        """
        forfeited = task.service_time - task.remaining
        if forfeited > 0.0:
            self.wasted_service += forfeited
            task.remaining = task.service_time
        task.metadata["node_failures"] = (
            task.metadata.get("node_failures", 0) + 1
        )
        self.tasks_lost += 1
        node.tasks_lost += 1
        if self.telemetry is not None:
            if self._tracer is not None:
                self._tracer.end(("q", task.task_id), self.now)
                self._tracer.instant(
                    "task-lost", CLUSTER_PID, CHAOS_TID, self.now,
                    task.task_id, float(node.node_id),
                )
            self.telemetry.counters.inc("chaos.tasks_lost")
        self._pending_arrivals += 1
        self.events.push(
            self.now + self._chaos.spec.redispatch_delay,
            None,
            priority=EventPriority.ARRIVAL,
            tag=READMIT_TAG,
            payload=task,
        )

    def _record_fleet_size(self) -> None:
        self.record_series("cluster.active_nodes", float(len(self._active)))

    def _work_can_progress(self) -> bool:
        """True while periodic ticks can still achieve anything.

        Guards every self-re-arming control timer: once work remains but the
        whole fleet is retired, nothing a tick does can dispatch it, and
        re-arming forever would keep ``run()`` from terminating with the
        honest incomplete result.
        """
        if self._unfinished <= 0 and self._pending_arrivals <= 0:
            return False
        if any(not node.state.terminal for node in self.nodes):
            return True
        # A chaos-wiped fleet is not the end: an attached autoscaler's next
        # tick sees the parked backlog as infinite load and regrows it.
        return self._chaos is not None and self.autoscaler is not None

    # ----------------------------------------------------------- event loop

    def _engines(self):
        return [node.engine for node in self.nodes]

    def _sampled_engines(self):
        return [
            node.engine for node in self.nodes if node.state is not NodeState.RETIRED
        ]

    def _dispatch_other(self, event) -> None:
        """Route the cluster's own payload events (ingress, re-admission, middleware)."""
        tag = event.tag
        if tag == "cluster-ingress":
            node, task = event.payload
            if node.state is NodeState.FAILED:
                # The node died while this task was on the wire toward it:
                # the landing is lost and the task re-enters dispatch.
                node.ingress -= 1
                if self._tracer is not None:
                    self._tracer.end(("w", task.task_id), self.now)
                self._lose_task(task, node)
                return
            node.complete_ingress(task, self.now)
        elif tag == READMIT_TAG:
            self._pending_arrivals -= 1
            self._on_arrival(event.payload)
        elif tag == ADMIT_TAG:
            # A deferred or retried task re-enters through the full admission
            # path so every middleware sees it again.
            self._admit(event.payload)
        elif tag == TIMEOUT_TAG:
            mw, task = event.payload
            mw.on_timeout(task)
        else:
            super()._dispatch_other(event)

    def _on_arrival(self, task: Task) -> None:
        if self._tracer is not None:
            self._tracer.instant(
                "arrival", CLUSTER_PID, DISPATCH_TID, self.now, task.task_id
            )
        if self._middleware is not None:
            self._admit(task)
            return
        self._dispatch(task)

    def _on_completion(self, core) -> None:
        engine = core._engine
        engine._handle_completion(core)
        node = engine.node
        for task in engine._last_finished:
            self._on_task_finished(node, task)

    def _admit(self, task: Task) -> None:
        """Run the middleware chain's dispatch hooks, then dispatch.

        The chain returns the first non-``None`` verdict: ``None`` admits,
        ``("reject", reason)`` drops the task before it ever reaches a node,
        ``("defer", resume_at)`` parks it on the event queue and replays the
        full admission pass at ``resume_at``.
        """
        now = self.now
        if self._tracer is not None:
            # Closes a retry-backoff span if one is open (no-op otherwise).
            self._tracer.end(("b", task.task_id), now)
        verdict = self._middleware.on_dispatch(task, now)
        if verdict is None:
            self._dispatch(task)
            return
        action, arg = verdict
        if action == DEFER:
            resume = float(arg)
            if resume <= now:
                # Guard against same-instant re-delivery looping forever.
                resume = now + 1e-9
            if self.telemetry is not None:
                if self._tracer is not None:
                    self._tracer.instant(
                        "mw-defer", CLUSTER_PID, MIDDLEWARE_TID, now,
                        task.task_id, resume,
                    )
                self.telemetry.counters.inc("middleware.deferred")
            self.events.push(
                resume,
                None,
                priority=EventPriority.ARRIVAL,
                tag=ADMIT_TAG,
                payload=task,
            )
            return
        self._reject_task(task, str(arg))

    def _reject_task(self, task: Task, reason: str) -> None:
        """Drop ``task`` before dispatch; it never reaches a node."""
        task.metadata["rejected"] = reason
        self.tasks_rejected += 1
        self.rejected_tasks.append(task)
        self._unfinished -= 1
        if self.telemetry is not None:
            if self._tracer is not None:
                self._tracer.instant(
                    f"reject:{reason}", CLUSTER_PID, MIDDLEWARE_TID,
                    self.now, task.task_id,
                )
            self.telemetry.counters.inc(f"middleware.rejected.{reason}")
        self._middleware.notify_reject(task, reason, self.now)

    def release_queued(self, task: Task) -> bool:
        """Pull a still-queued ``task`` back off its node (retry path).

        Returns False when the task is not safely removable — it started
        running, finished, or is mid-flight in a migration — in which case
        the caller must leave it alone.  A released task re-enters through
        :meth:`_admit` (the ordinary event path), so a retried task can never
        be double-landed: either the release wins and the queue copy is gone,
        or the release fails and no retry copy is created.
        """
        node_id = task.metadata.get("node_id")
        if node_id is None or not (0 <= node_id < len(self.nodes)):
            return False
        node = self.nodes[node_id]
        if not node.release(task):
            return False
        if self._tracer is not None:
            self._tracer.end(("q", task.task_id), self.now)
        if node.state is NodeState.DRAINING and bound_work(node) == 0:
            self._retire_node(node)
        return True

    def _dispatch(self, task: Task) -> None:
        active = self._active
        if not active:
            # Whole fleet out of service.  Park the task in the
            # backlog-replay path whenever service can plausibly resume —
            # a node is booting, draining or failed fleets can be regrown
            # by an autoscaler, and a chaos run may be mid-revocation.
            # Only a fleet retired for good with no way back is a hard
            # error (silently dropping the task would corrupt accounting).
            recoverable = (
                self.autoscaler is not None
                or self._chaos is not None
                or any(not node.state.terminal for node in self.nodes)
            )
            if not recoverable:
                raise SimulationError(
                    f"task {task.task_id} arrived with no active or booting node"
                )
            self.waiting_tasks.append(task)
            return
        node = self.dispatcher.select_node(task, active)
        delay = node.dispatch_delay
        tracer = self._tracer
        if tracer is not None:
            tracer.instant(
                "dispatch", CLUSTER_PID, DISPATCH_TID, self.now,
                task.task_id, float(node.node_id),
            )
        if delay <= 0.0:
            # Zero-RTT network: the exact instantaneous pre-network path.
            node.deliver(task, self.now)
            return
        # Non-zero RTT: the task goes on the wire into the node's ingress
        # queue (counted by load signals immediately) and lands on the node's
        # scheduler after the wire delay, as its own arrival-priority event.
        if tracer is not None:
            tracer.begin(
                ("w", task.task_id), "wire", node_pid(node.node_id), QUEUE_TID,
                self.now, task.task_id,
            )
        node.begin_ingress(task)
        self.events.push(
            self.now + delay,
            None,
            priority=EventPriority.ARRIVAL,
            tag="cluster-ingress",
            payload=(node, task),
        )

    def _on_task_finished(self, node: ClusterNode, task: Task) -> None:
        node.on_task_finished(task)
        self.columns.append(task)
        self._unfinished -= 1
        if self._middleware is not None:
            self._middleware.on_complete(task, node, self.now)
        if node.state is NodeState.DRAINING and bound_work(node) == 0:
            self._retire_node(node)

    # -------------------------------------------------------------- migration

    def _run_migration_pass(self) -> None:
        """One tick of the migration policy: plan, validate, execute."""
        plans = self.migration_policy.plan(self.nodes, self.now)
        for plan in plans:
            self._execute_migration(plan)
        self.record_series(
            "cluster.migrations",
            float(self.tasks_migrated + self._migrations_inflight),
        )
        for node in self.nodes:
            if node.state is not NodeState.RETIRED:
                self.record_series(
                    f"cluster.node{node.node_id}.queue_depth",
                    float(node.stealable_count()),
                )

    def _execute_migration(self, plan: Migration) -> bool:
        """Move one queued (or checkpointed running) task between nodes.

        Returns False when the task became unmovable between planning and
        execution — a late-binding move whose task started, or a
        checkpointed move whose task finished (the move is silently
        dropped).
        """
        task, source, target = plan.task, plan.source, plan.target
        if plan.running:
            if not source.surrender_running(task):
                return False
            # The restore cost is charged the moment the snapshot is cut:
            # wherever the task eventually lands, it must replay the
            # restore before making fresh progress.
            task.remaining = task.remaining + self.migration_policy.restore_overhead
            task.metadata["checkpoints"] = task.metadata.get("checkpoints", 0) + 1
            self.tasks_checkpointed += 1
            if self.telemetry is not None:
                self.telemetry.counters.inc("migration.checkpoints")
        elif not source.surrender(task):
            return False
        if self._tracer is not None:
            # The task leaves its source and travels on the migration lane
            # until it lands (closing the open queue-wait span first).
            tid = task.task_id
            self._tracer.end(("q", tid), self.now)
            self._tracer.begin(
                ("m", tid),
                "checkpoint-migrate" if plan.running else "migrate",
                CLUSTER_PID, MIGRATION_TID, self.now, tid,
            )
        self._migrations_inflight += 1
        self.events.push(
            self.now + self.migration_policy.transfer_delay(plan.running),
            lambda: self._complete_migration(task, source, target),
            priority=EventPriority.ARRIVAL,
            tag="migration-arrival",
        )
        # Stealing may have emptied a draining node whose running work is
        # already done — without a completion event, retire it here.
        if source.state is NodeState.DRAINING and bound_work(source) == 0:
            self._retire_node(source)
        return True

    def _complete_migration(
        self, task: Task, source: ClusterNode, target: ClusterNode
    ) -> None:
        """Land one migrated task after its transfer delay.

        Every genuine landing goes through ``receive_stolen`` so the
        invariant ``sum(stolen_in) == tasks_migrated`` holds on every path.
        If the target left service mid-flight, the dispatcher re-picks among
        the active nodes *other than the source*; failing that the task
        waits for a booting node (an ordinary re-dispatch, not counted as a
        completed migration), lands back on its own source (a void round
        trip whose steal accounting is undone), or force-lands on a
        draining survivor.
        """
        self._migrations_inflight -= 1
        if self._tracer is not None:
            self._tracer.end(("m", task.task_id), self.now)
        landing: Optional[ClusterNode] = None
        force = False
        if target.is_active:
            landing = target
        else:
            active = self._active
            others = [node for node in active if node is not source]
            if others:
                landing = self.dispatcher.select_node(task, others)
            elif active:
                landing = source  # the only place left is where it came from
            elif any(node.state is NodeState.BOOTING for node in self.nodes):
                # Not a completed migration: void the steal accounting (as
                # the round-trip path does) and park the task for the boot.
                source.tasks_stolen_away -= 1
                self.waiting_tasks.append(task)
                return
            else:
                survivors = [
                    n for n in self.nodes if n.state is NodeState.DRAINING
                ]
                if not survivors:
                    if self.autoscaler is not None or self._chaos is not None:
                        # The fleet was wiped mid-flight (failures faster
                        # than the transfer): park the task for the
                        # replacement/scale-up instead of dying on it.
                        source.tasks_stolen_away -= 1
                        self.waiting_tasks.append(task)
                        return
                    raise SimulationError(
                        f"migrated task {task.task_id} has no surviving node "
                        "to land on"
                    )
                landing = min(
                    survivors, key=lambda n: (normalized_load(n), n.node_id)
                )
                force = True
        if landing is source:
            # Round trip: nothing actually moved, so it is not a migration —
            # undo the surrender-side accounting and redeliver plainly.
            source.tasks_stolen_away -= 1
            source.deliver(task, self.now, force=force or not source.is_active)
            return
        self.tasks_migrated += 1
        if self.telemetry is not None:
            self.telemetry.counters.inc("migration.completed")
        task.metadata["node_migrations"] = task.metadata.get("node_migrations", 0) + 1
        landing.receive_stolen(task, self.now, force=force)

    # ---------------------------------------------------------------- running

    def run(self, until: Optional[float] = None) -> ClusterResult:
        """Run the cluster to completion and return the fleet-wide result."""
        started = _wallclock.perf_counter()
        self._running = True
        for node in self.active_nodes():
            node.activate(self.now)  # already ACTIVE; fires scheduler.on_start once
        self._record_fleet_size()
        if self.telemetry is not None:
            self._start_progress()
        if self.autoscaler is not None:
            self._schedule_autoscaler_tick()
        if self.migration_policy is not None:
            self._schedule_migration_tick()
        self._start_utilization()
        self._drain(
            until if until is not None else self._loop_config.max_simulated_time
        )
        telemetry_snapshot = self._finish_run()
        wall = _wallclock.perf_counter() - started
        return ClusterResult(
            dispatcher_name=getattr(
                self.dispatcher, "name", type(self.dispatcher).__name__
            ),
            scheduler_name=self.config.scheduler,
            migration_policy_name=(
                getattr(
                    self.migration_policy,
                    "name",
                    type(self.migration_policy).__name__,
                )
                if self.migration_policy is not None
                else None
            ),
            config=self.config,
            tasks=list(self.tasks),
            node_results={
                node.node_id: node.build_result(self.now) for node in self.nodes
            },
            node_stats={
                node.node_id: {
                    "cores": float(len(node.machine)),
                    "speed_factor": node.spec.speed_factor,
                    "capacity": node.capacity,
                    "assigned": float(node.tasks_assigned),
                    "completed": float(node.tasks_completed),
                    "stolen_in": float(node.tasks_stolen_in),
                    "stolen_away": float(node.tasks_stolen_away),
                    "released": float(node.tasks_released),
                    # Chaos accounting: tasks this node lost to a failure,
                    # and whether the node itself was torn down.
                    "lost": float(node.tasks_lost),
                    "failed": 1.0 if node.state is NodeState.FAILED else 0.0,
                    # Network-model accounting: tasks that paid a wire delay
                    # landing here, and their summed ingress wait.
                    "ingressed": float(node.tasks_ingressed),
                    "ingress_wait_total": float(node.ingress_wait_total),
                    # Lifecycle timestamps for node-hour cost accounting;
                    # -1.0 marks "never happened" (kept numeric for JSON).
                    "commissioned_at": float(node.commissioned_at),
                    "activated_at": (
                        float(node.activated_at)
                        if node.activated_at is not None
                        else -1.0
                    ),
                    "retired_at": (
                        float(node.retired_at)
                        if node.retired_at is not None
                        else -1.0
                    ),
                    "uptime": node.uptime(self.now),
                    # Explicit per-spec price, or -1.0 to let the cost model
                    # derive one from capacity.
                    "price_per_hour": (
                        float(node.spec.price_per_hour)
                        if node.spec.price_per_hour is not None
                        else -1.0
                    ),
                }
                for node in self.nodes
            },
            columns=self.columns,
            series={name: list(points) for name, points in self.series.items()},
            simulated_time=self.now,
            wall_clock_seconds=wall,
            events_processed=self._events_processed,
            nodes_added=self.nodes_added,
            nodes_removed=self.nodes_removed,
            nodes_failed=self.nodes_failed,
            tasks_migrated=self.tasks_migrated,
            tasks_checkpointed=self.tasks_checkpointed,
            tasks_rejected=self.tasks_rejected,
            tasks_lost=self.tasks_lost,
            wasted_service=self.wasted_service,
            middleware_names=(
                self._middleware.names() if self._middleware is not None else []
            ),
            middleware_stats=(
                self._middleware.stats() if self._middleware is not None else {}
            ),
            telemetry=telemetry_snapshot,
            tasks_submitted=self._tasks_submitted,
        )

    # ------------------------------------------------------------- autoscaler

    def _schedule_autoscaler_tick(self) -> None:
        interval = self.autoscaler.config.check_interval

        def _tick() -> None:
            self.autoscaler.on_tick(self.now)
            if self._work_can_progress():
                self._schedule_autoscaler_tick()

        self.events.push(
            self.now + interval,
            _tick,
            priority=EventPriority.CONTROL,
            tag="autoscaler-tick",
        )

    def _schedule_migration_tick(self) -> None:
        interval = self.migration_policy.interval

        def _tick() -> None:
            self._run_migration_pass()
            if self._work_can_progress():
                self._schedule_migration_tick()

        self.events.push(
            self.now + interval,
            _tick,
            priority=EventPriority.CONTROL,
            tag="migration-tick",
        )


def simulate_cluster(
    workload,
    config: Optional[ClusterConfig] = None,
    dispatcher: Optional[Dispatcher] = None,
    autoscaler: Optional[ReactiveAutoscaler] = None,
    migration_policy: Optional[MigrationPolicy] = None,
    until: Optional[float] = None,
    telemetry=None,
    middleware=None,
    chaos=None,
    *,
    chunk: int = 8192,
    low_water: Optional[int] = None,
    metrics_cap: Optional[int] = None,
    metrics_policy: str = "reservoir",
    spill_dir: Optional[str] = None,
) -> ClusterResult:
    """One-call helper: build a cluster, route ``workload`` through it, run it.

    The cluster-level analogue of :func:`repro.simulation.engine.simulate`.
    ``workload`` is a task list, submitted up front, or a
    :class:`~repro.workload.streaming.StreamingWorkload`, whose arrivals are
    generated lazily per sim-time window and fed into the event heap
    ``chunk`` tasks at a time, refilled whenever at most ``low_water`` fed
    arrivals are still queued.  ``metrics_cap`` bounds the per-node and
    fleet columnar stores (``metrics_policy`` selects reservoir sampling
    with exact aggregates, or disk spilling under ``spill_dir``), so a
    streamed run's peak memory stays O(horizon + cap) instead of O(total
    tasks).  ``telemetry`` accepts a
    :class:`~repro.telemetry.spec.TelemetrySpec` (or a live runtime) to
    record spans/gauges for the run.  ``middleware`` accepts a
    :class:`~repro.middleware.base.MiddlewareChain` or an iterable of
    middleware instances to wrap the dispatch path; when omitted, the
    config's declarative ``middleware`` specs (if any) are built instead.
    ``chaos`` accepts a :class:`~repro.chaos.spec.ChaosSpec` (or dict) to
    enable seeded fault injection; when omitted, the config's ``chaos``
    spec (if any) is used instead.
    """
    cluster = ClusterSimulator(
        config=config,
        dispatcher=dispatcher,
        autoscaler=autoscaler,
        migration_policy=migration_policy,
        telemetry=telemetry,
        middleware=middleware,
        chaos=chaos,
        metrics_cap=metrics_cap,
        metrics_policy=metrics_policy,
        spill_dir=spill_dir,
    )
    cluster._submit_workload(workload, chunk, low_water)
    return cluster.run(until=until)
