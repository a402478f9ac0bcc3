"""Cluster simulation result container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cost.cost_model import ClusterCostBreakdown, CostModel
from repro.simulation.columns import TaskColumns
from repro.simulation.metrics import SeriesPoint, TaskMetricsSummary
from repro.simulation.results import SimulationResult, build_result
from repro.simulation.task import Task
from repro.telemetry.runtime import TelemetrySnapshot


@dataclass
class ClusterResult:
    """Everything produced by one cluster simulation run.

    Like :class:`~repro.simulation.results.SimulationResult` this is a value
    object: per-node results plus fleet-wide aggregates, with no reference to
    the engine.
    """

    dispatcher_name: str
    scheduler_name: str
    config: ClusterConfig
    tasks: List[Task]
    node_results: Dict[int, SimulationResult]
    node_stats: Dict[int, Dict[str, float]] = field(default_factory=dict)
    series: Dict[str, List[SeriesPoint]] = field(default_factory=dict)
    migration_policy_name: "str | None" = None
    simulated_time: float = 0.0
    wall_clock_seconds: float = 0.0
    events_processed: int = 0
    nodes_added: int = 0
    nodes_removed: int = 0
    #: Nodes torn down by the fault injector (crash or revocation deadline).
    nodes_failed: int = 0
    tasks_migrated: int = 0
    #: Running tasks migrated with their progress via a checkpoint.
    tasks_checkpointed: int = 0
    #: Tasks dropped by middleware before ever reaching a node.
    tasks_rejected: int = 0
    #: Tasks a failing node was holding (each re-entered via re-admission;
    #: one task lost twice counts twice).
    tasks_lost: int = 0
    #: Service seconds of partial progress forfeited to failures.
    wasted_service: float = 0.0
    #: Ordered registry names of the run's middleware chain (empty = none).
    middleware_names: List[str] = field(default_factory=list)
    #: Per-middleware counters keyed by chain name (see ``Middleware.stats``).
    middleware_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: The run's columnar store of finished tasks (every node's, each row
    #: tagged with its ``node_id``), filled incrementally during the run;
    #: built lazily for hand-assembled results.
    columns: Optional[TaskColumns] = None
    #: Frozen telemetry of the run (``None`` unless telemetry was enabled).
    telemetry: Optional[TelemetrySnapshot] = None
    #: Arrivals the run took in (a run cut off by a time limit counts only
    #: those that arrived before the cut).  Count-based accessors read this
    #: — streaming runs leave ``tasks`` empty — and ``None`` means "not
    #: recorded — use len(tasks)".
    tasks_submitted: Optional[int] = None

    # ---------------------------------------------------------------- columns

    def task_columns(self) -> TaskColumns:
        """The columnar finished-task store backing every metric accessor."""
        if self.columns is None:
            self.columns = TaskColumns.from_tasks(self.tasks)
        return self.columns

    # ------------------------------------------------------------------ tasks

    @property
    def finished_tasks(self) -> List[Task]:
        return [t for t in self.tasks if t.is_finished]

    @property
    def total_tasks(self) -> int:
        """Tasks the run took in (works for streaming runs with no task list)."""
        return len(self.tasks) if self.tasks_submitted is None else self.tasks_submitted

    @property
    def finished_count(self) -> int:
        """Finished-task count (columnar on streaming runs)."""
        if self.tasks:
            return len(self.finished_tasks)
        return len(self.task_columns())

    @property
    def completion_ratio(self) -> float:
        total = self.total_tasks
        if not total:
            return 0.0
        return self.finished_count / total

    def summary(self) -> TaskMetricsSummary:
        """Fleet-wide task metrics (all nodes pooled)."""
        return TaskMetricsSummary.from_columns(self.task_columns())

    def turnaround_times(self) -> np.ndarray:
        return self.task_columns().turnaround()

    def response_times(self) -> np.ndarray:
        return self.task_columns().response()

    # ------------------------------------------------------------------ nodes

    @property
    def num_nodes(self) -> int:
        """Nodes ever commissioned (initial fleet, scale-ups, replacements)."""
        return len(self.node_results)

    def nodes_in_service(self) -> int:
        """Nodes neither retired nor failed when the run ended."""
        if not self.node_stats:
            return self.num_nodes
        return sum(
            1
            for stats in self.node_stats.values()
            if stats.get("retired_at", -1.0) == -1.0
        )

    def tasks_per_node(self) -> Dict[int, int]:
        """Completed invocations per node (dispatch balance)."""
        counts = {node_id: 0 for node_id in self.node_results}
        if not self.tasks and self.node_stats:
            # Streaming runs retain no task objects; the per-node lifecycle
            # stats carry the same completion counters.
            for node_id in counts:
                stats = self.node_stats.get(node_id, {})
                counts[node_id] = int(stats.get("completed", 0.0))
            return counts
        for task in self.finished_tasks:
            node_id = task.node_id
            if node_id in counts:
                counts[node_id] += 1
        return counts

    def node_summary(self, node_id: int) -> TaskMetricsSummary:
        if node_id not in self.node_results:
            raise KeyError(f"no node with id {node_id}")
        return self.node_results[node_id].summary()

    def node_capacity(self, node_id: int) -> float:
        """Service capacity of one node in baseline-core equivalents."""
        stats = self.node_stats.get(node_id)
        if stats is not None:
            return stats["capacity"]
        # Hand-built results without node_stats: fall back to the config's
        # initial fleet description (spec-aware for heterogeneous fleets).
        specs = self.config.expanded_specs()
        if 0 <= node_id < len(specs):
            return specs[node_id].capacity
        return float(self.config.cores_per_node)

    def total_capacity(self) -> float:
        """Summed capacity of every node that ever joined the fleet."""
        if not self.node_stats:
            return self.config.total_capacity()
        return sum(stats["capacity"] for stats in self.node_stats.values())

    def node_uptime(self, node_id: int) -> float:
        """Billed seconds of one node: commissioning to retirement (or end)."""
        stats = self.node_stats.get(node_id)
        if stats is not None and "uptime" in stats:
            return stats["uptime"]
        # Hand-built results without lifecycle stats: the node is assumed to
        # have lived for the whole run.
        return self.simulated_time

    def node_hours(self) -> float:
        """Total node-hours the fleet consumed (boot and drain included)."""
        node_ids = self.node_stats or self.node_results
        return sum(self.node_uptime(node_id) for node_id in node_ids) / 3600.0

    # ----------------------------------------------------------------- cost

    def cost(self, model: Optional[CostModel] = None) -> ClusterCostBreakdown:
        """Latency-vs-cost accounting: user billing plus fleet node-hours."""
        return (model or CostModel()).cluster_cost(self)

    # --------------------------------------------------------------- network

    def ingress_waits(self) -> np.ndarray:
        """Per-finished-task wire wait (seconds) under the network model.

        Tasks dispatched with zero RTT (or before the network model existed)
        contribute 0.0, so the array always has one entry per finished task.
        This materialises a per-task array (an O(tasks) walk); for
        the aggregate, :meth:`mean_ingress_wait` answers from O(nodes)
        counters instead.
        """
        return np.array(
            [task.ingress_wait for task in self.finished_tasks], dtype=float
        )

    def mean_ingress_wait(self) -> float:
        """Mean wire wait per finished task (0.0 on zero-RTT runs).

        Answered from the per-node ``ingress_wait_total`` counters (O(nodes),
        the fleet-table hot path); hand-built results without node stats
        fall back to the per-task walk.  On runs cut off by a time
        limit the counters include tasks that landed but never finished, a
        deliberate slight overcount of the wire share.
        """
        if self.node_stats:
            finished = len(self.task_columns())
            if finished == 0:
                return 0.0
            total = sum(
                stats.get("ingress_wait_total", 0.0)
                for stats in self.node_stats.values()
            )
            return total / finished
        waits = self.ingress_waits()
        return float(waits.mean()) if waits.size else 0.0

    def tasks_ingressed(self) -> int:
        """Tasks that paid a wire delay landing on some node.

        Hand-built results without node stats fall back to counting tasks
        with a positive ``ingress_wait``, mirroring
        :meth:`mean_ingress_wait` so the two never contradict each other.
        """
        if self.node_stats:
            return sum(
                int(stats.get("ingressed", 0.0))
                for stats in self.node_stats.values()
            )
        return sum(1 for task in self.tasks if task.ingress_wait > 0.0)

    # ------------------------------------------------------------- migration

    def migrations_per_node(self) -> Dict[int, int]:
        """Tasks that landed on each node via work stealing (stolen in)."""
        return {
            node_id: int(stats.get("stolen_in", 0.0))
            for node_id, stats in self.node_stats.items()
        }

    def migrated_tasks(self) -> List[Task]:
        """Tasks that crossed nodes at least once before starting."""
        return [
            task
            for task in self.tasks
            if task.annotation("node_migrations", 0) > 0
        ]

    # ------------------------------------------------------------- middleware

    def rejected_tasks(self) -> List[Task]:
        """Tasks dropped by middleware (rejection reason in metadata)."""
        return [t for t in self.tasks if t.annotation("rejected") is not None]

    # ------------------------------------------------------------------ chaos

    def lost_tasks(self) -> List[Task]:
        """Tasks that survived at least one node failure (and re-entered)."""
        return [
            task
            for task in self.tasks
            if task.annotation("node_failures", 0) > 0
        ]

    def unserved_tasks(self) -> int:
        """Tasks neither finished nor rejected when the run ended.

        On a run cut off by ``max_simulated_time`` under fault injection
        this is the headline task-loss figure: work the fleet accepted but
        never completed.  Tasks still due to arrive at the cut were never
        taken in and are not counted.
        """
        return self.total_tasks - self.finished_count - self.tasks_rejected

    # ------------------------------------------------------------- timeseries

    def series_values(self, name: str) -> List[SeriesPoint]:
        return list(self.series.get(name, []))

    # ------------------------------------------------------------------ misc

    def describe(self) -> str:
        """Short human-readable summary used by examples and the runner."""
        summary = self.summary()
        counts = self.tasks_per_node()
        spread = (
            f"{min(counts.values())}..{max(counts.values())}" if counts else "n/a"
        )
        cost = self.cost()
        lines = [
            f"dispatcher           : {self.dispatcher_name}",
            f"per-node scheduler   : {self.scheduler_name}",
            f"migration policy     : {self.migration_policy_name or 'none'}",
        ]
        if self.middleware_names:
            lines.append(
                f"middleware           : {' -> '.join(self.middleware_names)}"
                f" ({self.tasks_rejected} rejected)"
            )
        if self.nodes_failed or self.tasks_lost:
            lines.append(
                f"chaos                : {self.nodes_failed} nodes failed, "
                f"{self.tasks_lost} tasks lost, "
                f"{self.tasks_checkpointed} checkpointed, "
                f"{self.wasted_service:.2f}s wasted"
            )
        lines += [
            f"nodes (final fleet)  : {self.nodes_in_service()}"
            f" of {self.num_nodes} commissioned"
            f" (+{self.nodes_added}/-{self.nodes_removed} scaled,"
            f" {self.nodes_failed} failed)",
            f"fleet capacity       : {self.total_capacity():.1f} baseline cores",
            f"tasks (finished/all) : {self.finished_count}/{self.total_tasks}",
            f"tasks per node       : {spread}",
            f"tasks migrated       : {self.tasks_migrated}",
            f"ingress wait (mean)  : {self.mean_ingress_wait():.4f} s"
            f" ({self.tasks_ingressed()} tasks over the wire)",
            f"simulated time       : {self.simulated_time:.2f} s",
            f"node-hours consumed  : {cost.node_hours:.4f} h"
            f" (${cost.node_cost:.4f} fleet cost)",
            f"user billing         : ${cost.user_cost:.4f}"
            f" ({cost.invocations} invocations)",
            f"p50 turnaround time  : {summary.p50_turnaround:.4f} s",
            f"p99 turnaround time  : {summary.p99_turnaround:.4f} s",
            f"p50 response time    : {summary.p50_response:.4f} s",
            f"p99 response time    : {summary.p99_response:.4f} s",
        ]
        if self.telemetry is not None:
            lines.append(f"telemetry            : {self.telemetry.summary_line()}")
        return "\n".join(lines)


def per_node_results(nodes, tasks, columns: TaskColumns, simulated_time: float):
    """Per-node :class:`SimulationResult` views of one cluster run.

    A node's ``tasks`` are the finished tasks it served, found in one pass
    over ``tasks`` (empty on streamed runs).  Its ``columns`` are its rows
    of the run's store, selected when first read, so building the results
    copies no rows and reloads no spilled chunks.  A node took in what it
    finished, so its ``finished_count == total_tasks`` on both feeds.
    """
    finished_on = {node.node_id: [] for node in nodes}
    for task in tasks:
        if task.is_finished:
            finished_on[task.node_id].append(task)
    return {
        node.node_id: build_result(
            scheduler_name=getattr(
                node.scheduler, "name", type(node.scheduler).__name__
            ),
            config=node.engine.config,
            tasks=finished_on[node.node_id],
            cores=node.machine.cores,
            collector=node.engine.collector,
            columns=None,
            simulated_time=simulated_time,
            wall_clock_seconds=0.0,
            events_processed=0,
            tasks_submitted=node.tasks_completed,
            node_id=node.node_id,
            run_columns=columns,
        )
        for node in nodes
    }
