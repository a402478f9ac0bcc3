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
from typing import List, Optional, Tuple

from repro.chaos.injector import build_injector
from repro.cluster.autoscaler import ReactiveAutoscaler
from repro.cluster.config import ClusterConfig, NodeSpec
from repro.cluster.dispatchers import Dispatcher, bound_work, normalized_load
from repro.cluster.load_index import ActiveNodeView, NodeLoadIndex
from repro.cluster.migration import Migration, MigrationPolicy
from repro.cluster.node import ClusterNode, NodeState
from repro.cluster.registry import build_migration_policy, create_dispatcher
from repro.cluster.results import ClusterResult, per_node_results
from repro.middleware.base import ADMIT_TAG, DEFER, TIMEOUT_TAG, MiddlewareChain
from repro.schedulers.base import Backlog
from repro.schedulers.registry import create_scheduler
from repro.simulation.columns import build_columns_store
from repro.simulation.engine import EventLoop, SimulationError
from repro.simulation.events import EventPriority
from repro.simulation.machine import Machine
from repro.simulation.metrics import record_series
from repro.simulation.task import Task


#: Tag of a lost task's re-admission event (payload: the task).  Unlike an
#: arrival off the cursor it was already taken in, so it is not counted
#: again; a fed arrival at the same instant goes first.
READMIT_TAG = "readmit"


class ClusterSimulator(EventLoop):
    """Event-driven fleet simulator: dispatcher + N machines on one
    :class:`EventLoop`; optional features attach to its hooks and timers."""

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
        config = config or ClusterConfig()
        super().__init__(
            build_columns_store(
                metrics_cap,
                policy=metrics_policy,
                spill_dir=spill_dir,
                seed=config.seed,
            ),
            telemetry,
        )
        self.config = config
        # Node engines share this config's time limit and sampling settings.
        self._loop_config = self.config.build_node_config()
        self.dispatcher = dispatcher or self._build_dispatcher()
        self.autoscaler = autoscaler
        self.migration_policy = migration_policy or build_migration_policy(config)
        # The middleware chain (empty when none is configured: it then wires
        # nothing) and the fault injector (None without a chaos spec).
        self._middleware = MiddlewareChain.build(middleware, config.middleware)
        self._chaos = build_injector(chaos, self)
        # Incrementally maintained active set + load index: dispatch consults
        # these instead of rescanning the fleet per arrival.
        self._load_index = NodeLoadIndex()
        self._active = ActiveNodeView(self._load_index)
        index_key = self.dispatcher.load_index_key()
        if index_key is not None:
            self._load_index.register(*index_key)
        self.nodes: List[ClusterNode] = []
        #: Fleet backlog: queued, never-run tasks on every node plus tasks
        #: on the wire to one.  Each node's scheduler and ingress queue add
        #: their deltas to it, so ``backlog.count`` reads in O(1).
        self.backlog = Backlog()
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
        #: What the attached features say about a fleet left with no node
        #: in service: chaos can wipe one out, an autoscaler can regrow one.
        self.fleet_can_be_wiped = False
        self.fleet_can_regrow = False
        # Each feature wires itself onto the hook bus and the loop's timers
        # before the first node is commissioned.  Telemetry goes first, so
        # it sees each event before the rest; the order also fixes the order
        # in which run-start timers are armed (autoscaler, then migration).
        for feature in (
            self.telemetry,
            self.autoscaler,
            self.migration_policy,
            self._middleware,
            self._chaos,
        ):
            if feature is not None:
                feature.attach(self)
        for spec in self.config.expanded_specs():
            self._create_node(NodeState.ACTIVE, spec)

    # ------------------------------------------------------------------ wiring

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

    def _create_node(
        self, state: NodeState, spec: Optional[NodeSpec] = None
    ) -> ClusterNode:
        scheduler = create_scheduler(
            self.config.scheduler, **self.config.scheduler_kwargs
        )
        scheduler.fleet_backlog = self.backlog
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
        # Wire delay a dispatched task pays to reach this node, resolved once
        # from the network model (per-spec RTT override, probe cost of the
        # installed dispatcher).  Zero keeps dispatch on the instantaneous
        # (pre-network) path.
        node.dispatch_delay = self.config.network.dispatch_delay(
            self.config.effective_rtt(spec),
            getattr(self.dispatcher, "probes_load", False),
        )
        node.load_listener = self._load_index.touch
        for hook in self.hooks.node_changed:
            hook(node, "commission", self.now)
        self.nodes.append(node)
        if state is NodeState.ACTIVE:
            self._track_active(node)
        return node

    # ---------------------------------------------------------------- series

    def record_series(self, name: str, value: float) -> None:
        """Record one point of a named fleet-level time series."""
        record_series(self.series, name, self.now, value, self.telemetry)

    def _record_change(self, name: str, value: float) -> None:
        """Record a point of ``name`` only when ``value`` differs from the
        series' last point, so read as a step function it is unchanged."""
        points = self.series.get(name)
        if not points or points[-1].value != value:
            self.record_series(name, value)

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
        if was_booting:
            for hook in self.hooks.node_changed:
                hook(node, "active", self.now)
        self._track_active(node)
        self._record_fleet_size()
        if self.waiting_tasks:
            backlog, self.waiting_tasks = self.waiting_tasks, []
            for task in backlog:
                self._dispatch(task)

    def drain_node(self, node: ClusterNode) -> None:
        """Stop dispatching to ``node``; it retires once it runs dry.

        An attached migration policy answers the ``drain`` hook with an
        immediate pass, so the node's queued tasks are stolen by the rest of
        the fleet instead of trickling out behind its running work.
        """
        node.start_draining()
        self._untrack_active(node)
        for hook in self.hooks.node_changed:
            hook(node, "drain", self.now)
        if node.state is NodeState.DRAINING and bound_work(node) == 0:
            self._retire_node(node)
        self._record_fleet_size()

    def _retire_node(self, node: ClusterNode) -> None:
        node.retire(self.now)
        self._untrack_active(node)
        self.nodes_removed += 1
        for hook in self.hooks.node_changed:
            hook(node, "retire", self.now)
        self._record_fleet_size()

    # ----------------------------------------------------------------- chaos

    def _fail_node(self, node: ClusterNode, reason: str) -> None:
        """Tear ``node`` down right now (fault injector callback).

        Every queued and running task it held forfeits its progress and
        re-enters through the ordinary ARRIVAL re-admission path (so retry
        and shedding middleware see it again); then ``node_failed`` fires,
        on which an attached autoscaler replaces the lost capacity.
        """
        if node.state.terminal:
            return
        if node.is_active:
            self._untrack_active(node)
        lost = node.fail(self.now)
        self.nodes_failed += 1
        for hook in self.hooks.node_changed:
            hook(node, reason, self.now)
        for task in lost:
            self._lose_task(task, node)
        for hook in self.hooks.node_failed:
            hook(node, self.now)
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
        for hook in self.hooks.task_lost:
            hook(task, node, self.now)
        self._readmissions += 1
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
        if self._unfinished <= 0 and not self._arrival_pending():
            return False
        if any(not node.state.terminal for node in self.nodes):
            return True
        # A chaos-wiped fleet is not the end: an attached autoscaler's next
        # tick sees the parked backlog as infinite load and regrows it.
        return self.fleet_can_be_wiped and self.fleet_can_regrow

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
                node.end_ingress()
                self._lose_task(task, node)
                return
            node.complete_ingress(task, self.now)
        elif tag == READMIT_TAG:
            self._readmissions -= 1
            task = event.payload
            for hook in self.hooks.task_arrived:
                hook(task, self.now)
            self._on_arrival(task)
        elif tag == ADMIT_TAG:
            # A deferred or retried task re-enters through the full admission
            # path so every middleware sees it again.
            task = event.payload
            for hook in self.hooks.task_resumed:
                hook(task, self.now)
            self._admit(task)
        elif tag == TIMEOUT_TAG:
            mw, task = event.payload
            mw.on_timeout(task)
        else:
            super()._dispatch_other(event)

    def _on_arrival(self, task: Task) -> None:
        # An attached middleware chain replaces this handler with _admit.
        self._dispatch(task)

    def _on_completion(self, core) -> None:
        engine = core._engine
        node = engine.node
        for task in engine._handle_completion(core):
            self._on_task_finished(node, task)

    def _admit(self, task: Task) -> None:
        """Run the middleware chain's dispatch hooks, then dispatch.

        The chain returns the first non-``None`` verdict: ``None`` admits,
        ``("reject", reason)`` drops the task before it ever reaches a node,
        ``("defer", resume_at)`` parks it on the event queue and replays the
        full admission pass at ``resume_at``.
        """
        now = self.now
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
            for hook in self.hooks.task_deferred:
                hook(task, resume, now)
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
        for hook in self.hooks.task_rejected:
            hook(task, reason, self.now)

    def release_queued(self, task: Task) -> bool:
        """Pull a still-queued ``task`` back off its node (retry path).

        Returns False when the task is not safely removable — it started
        running, finished, or is mid-flight in a migration — in which case
        the caller must leave it alone.  A released task re-enters through
        :meth:`_admit` (the ordinary event path), so a retried task can never
        be double-landed: either the release wins and the queue copy is gone,
        or the release fails and no retry copy is created.  A successful
        release fires ``task_released``: the task now backs off until it
        re-enters admission (``task_resumed``).
        """
        node_id = task.node_id
        if node_id is None or not (0 <= node_id < len(self.nodes)):
            return False
        node = self.nodes[node_id]
        if not node.release(task):
            return False
        for hook in self.hooks.task_released:
            hook(task, node, self.now)
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
                self.fleet_can_be_wiped
                or self.fleet_can_regrow
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
        now = self.clock.now
        for hook in self.hooks.task_dispatched:
            hook(task, node, now)
        if delay <= 0.0:
            # Zero-RTT network: the exact instantaneous pre-network path.
            node.deliver(task, now)
            return
        # Non-zero RTT: the task goes on the wire into the node's ingress
        # queue (counted by load signals immediately) and lands on the node's
        # scheduler after the wire delay, as its own arrival-priority event.
        node.begin_ingress(task)
        self.events.push(
            now + delay,
            None,
            priority=EventPriority.ARRIVAL,
            tag="cluster-ingress",
            payload=(node, task),
        )

    def _on_task_finished(self, node: ClusterNode, task: Task) -> None:
        node.on_task_finished(task)
        self._unfinished -= 1
        for hook in self.hooks.task_completed:
            hook(task, node, self.clock.now)
        if node.state is NodeState.DRAINING and bound_work(node) == 0:
            self._retire_node(node)

    # -------------------------------------------------------------- migration

    def _run_migration_pass(self, now: float) -> None:
        """One tick of the migration policy: plan, validate, execute.

        The tick's series (moves so far, each live node's queue depth) get
        a point only where the value changed since the series' last one.
        """
        plans = self.migration_policy.plan(self.nodes, now)
        for hook in self.hooks.migration_planned:
            hook(plans, now)
        for plan in plans:
            self._execute_migration(plan)
        record_change = self._record_change
        record_change(
            "cluster.migrations",
            float(self.tasks_migrated + self._migrations_inflight),
        )
        for node in self.nodes:
            if node.state is not NodeState.RETIRED:
                record_change(
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
        elif not source.surrender(task):
            return False
        for hook in self.hooks.task_migrating:
            hook(plan, self.now)
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
        A task that waits for a booting node or lands back on its own
        source did not move: its steal accounting is undone.
        """
        self._migrations_inflight -= 1
        landing, force = self._migration_landing(task, source, target)
        moved = landing is not None and landing is not source
        for hook in self.hooks.task_migrated:
            hook(task, moved, self.now)
        if not moved:
            source.tasks_stolen_away -= 1
            if landing is None:
                self.waiting_tasks.append(task)
            else:
                # Round trip: nothing actually moved; redeliver plainly.
                source.deliver(task, self.now, force=force or not source.is_active)
            return
        self.tasks_migrated += 1
        task.metadata["node_migrations"] = task.metadata.get("node_migrations", 0) + 1
        landing.receive_stolen(task, self.now, force=force)

    def _migration_landing(
        self, task: Task, source: ClusterNode, target: ClusterNode
    ) -> Tuple[Optional[ClusterNode], bool]:
        """Where a migrated task lands, and whether that landing is forced.

        If the target left service mid-flight, the dispatcher re-picks among
        the active nodes *other than the source*; failing that the task
        lands back on its own source, waits for a booting node (``None``),
        or force-lands on a draining survivor.
        """
        if target.is_active:
            return target, False
        active = self._active
        others = [node for node in active if node is not source]
        if others:
            return self.dispatcher.select_node(task, others), False
        if active:
            return source, False  # the only place left is where it came from
        if any(node.state is NodeState.BOOTING for node in self.nodes):
            return None, False
        survivors = [n for n in self.nodes if n.state is NodeState.DRAINING]
        if survivors:
            return min(survivors, key=lambda n: (normalized_load(n), n.node_id)), True
        if self.fleet_can_be_wiped or self.fleet_can_regrow:
            # The fleet was wiped mid-flight (failures faster than the
            # transfer): wait for the replacement/scale-up instead of dying.
            return None, False
        raise SimulationError(
            f"migrated task {task.task_id} has no surviving node to land on"
        )

    # ---------------------------------------------------------------- running

    def run(self, until: Optional[float] = None) -> ClusterResult:
        """Run the cluster to completion and return the fleet-wide result."""
        started = _wallclock.perf_counter()
        self._running = True
        for node in self.active_nodes():
            node.activate(self.now)  # already ACTIVE; fires scheduler.on_start once
        self._record_fleet_size()
        telemetry_snapshot = self._run(until)
        wall = _wallclock.perf_counter() - started
        return ClusterResult(
            dispatcher_name=getattr(
                self.dispatcher, "name", type(self.dispatcher).__name__
            ),
            scheduler_name=self.config.scheduler,
            migration_policy_name=getattr(self.migration_policy, "name", None),
            config=self.config,
            tasks=list(self.tasks),
            node_results=per_node_results(
                self.nodes, self.tasks, self.columns, self.now
            ),
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
            middleware_names=self._middleware.names(),
            middleware_stats=self._middleware.stats(),
            telemetry=telemetry_snapshot,
            tasks_submitted=self._tasks_submitted,
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
    metrics_cap: Optional[int] = None,
    metrics_policy: str = "reservoir",
    spill_dir: Optional[str] = None,
) -> ClusterResult:
    """One-call helper: build a cluster, route ``workload`` through it, run it.

    The cluster-level analogue of :func:`repro.simulation.engine.simulate`.
    ``workload`` is a task list, submitted up front, or a
    :class:`~repro.workload.streaming.StreamingWorkload`, whose arrivals are
    generated lazily per sim-time window and fed to the arrival cursor
    ``chunk`` tasks at a time.  Each finished task is recorded once, in the
    run's one columnar store, tagged with its node; per-node results are
    row selections of it, made when first read.  ``metrics_cap`` bounds
    that store (``metrics_policy`` selects reservoir sampling with exact
    aggregates, or disk spilling under ``spill_dir``), so a streamed run's
    peak memory stays O(horizon + cap) instead of O(total tasks).  Under a
    reservoir cap a node's view holds its rows of the fleet sample, so its
    percentiles are estimates; its counts, means, totals and billing are
    exact.  ``telemetry`` accepts a
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
    cluster._submit_workload(workload, chunk)
    return cluster.run(until=until)
