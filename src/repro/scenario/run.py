"""The single run pipeline: ``run(scenario) -> RunResult``.

This is the one entry point every experiment goes through.  It builds the
workload from the scenario's declarative reference, instantiates the
scheduler (and, for fleets, the dispatcher / migration policy / autoscaler)
from the registries, routes to the single-machine engine or the
:class:`~repro.cluster.simulator.ClusterSimulator`, and attaches the cost
report — user-facing billing for single machines, billing plus node-hours
for fleets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from repro.cluster.autoscaler import AutoscalerConfig, ReactiveAutoscaler
from repro.cluster.results import ClusterResult
from repro.cluster.simulator import simulate_cluster
from repro.cost.cost_model import ClusterCostBreakdown, CostBreakdown
from repro.scenario.scenario import Scenario
from repro.schedulers.registry import create_scheduler
from repro.simulation.columns import TaskColumns
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import simulate
from repro.simulation.metrics import TaskMetricsSummary
from repro.simulation.results import SimulationResult
from repro.simulation.task import Task


@dataclass
class RunResult:
    """Everything produced by running one scenario.

    Wraps the engine result (single-machine or cluster) together with the
    scenario that produced it, the scheduler instance (single-machine runs —
    useful for policies carrying post-run state such as the rightsizer), and
    the cost report.
    """

    scenario: Scenario
    result: Union[SimulationResult, ClusterResult]
    cost: Union[CostBreakdown, ClusterCostBreakdown]
    scheduler: Optional[object] = None

    @property
    def is_cluster(self) -> bool:
        return isinstance(self.result, ClusterResult)

    # Delegating helpers so callers rarely need to branch on the run kind.

    def summary(self) -> TaskMetricsSummary:
        return self.result.summary()

    def task_columns(self) -> TaskColumns:
        return self.result.task_columns()

    @property
    def finished_tasks(self) -> List[Task]:
        return self.result.finished_tasks

    @property
    def telemetry(self):
        """The run's telemetry snapshot (``None`` when telemetry was off)."""
        return self.result.telemetry

    @property
    def series(self):
        """The run's recorded time series (gauge samples included)."""
        return self.result.series

    def describe(self) -> str:
        header = f"scenario             : {self.scenario.name}\n" if self.scenario.name else ""
        return header + self.result.describe()


def run(
    scenario: Scenario,
    *,
    tasks: Optional[Sequence[Task]] = None,
    scheduler=None,
    sim_config: Optional[SimulationConfig] = None,
    until: Optional[float] = None,
) -> RunResult:
    """Run one scenario end to end and return its :class:`RunResult`.

    Args:
        scenario: The declarative run description.
        tasks: Programmatic task-list override; required when the scenario
            carries no workload reference (e.g. pre-expanded Firecracker
            thread tasks), bypassing the workload registry otherwise.
        scheduler: Programmatic scheduler-instance override (single-machine
            only); the declarative path builds one from the registry.
        sim_config: Programmatic engine-config override (single-machine
            only) for callers holding an already-built
            :class:`~repro.simulation.config.SimulationConfig`.
        until: Stop the simulation clock at this time (overrides the
            scenario's ``max_simulated_time``).
    """
    stream_kwargs = {}
    if scenario.stream is not None:
        # Arrivals come from a StreamingWorkload resolved through the
        # stream-source registry (or a trace CSV), fed in chunks; metrics
        # stay bounded per the spec's cap/policy.
        from repro.scenario.workloads import build_stream_source

        if tasks is not None:
            raise ValueError(
                "streaming scenarios generate arrivals lazily; explicit task "
                "lists only apply to materialised scenarios"
            )
        spec = scenario.stream
        workload = build_stream_source(scenario.workload, spec, seed=scenario.seed)
        stream_kwargs = dict(
            chunk=spec.chunk,
            low_water=spec.low_water,
            metrics_cap=spec.metrics_cap,
            metrics_policy=spec.metrics_policy,
            spill_dir=spec.spill_dir,
        )
    elif tasks is None:
        if scenario.workload is None:
            raise ValueError(
                "the scenario has no workload reference; pass explicit tasks"
            )
        workload = scenario.workload.build()
    else:
        workload = list(tasks)

    model = scenario.cost.build_model()
    if scenario.is_cluster:
        if scheduler is not None or sim_config is not None:
            raise ValueError(
                "cluster scenarios build per-node schedulers and configs from "
                "the registries; instance overrides only apply to "
                "single-machine scenarios"
            )
        autoscaler = (
            ReactiveAutoscaler(AutoscalerConfig(**scenario.autoscaler))
            if scenario.autoscaler is not None
            else None
        )
        cluster_result = simulate_cluster(
            workload,
            config=scenario.build_cluster_config(),
            autoscaler=autoscaler,
            until=until,
            telemetry=scenario.telemetry,
            **stream_kwargs,
        )
        return RunResult(
            scenario=scenario,
            result=cluster_result,
            cost=model.cluster_cost(cluster_result),
        )

    config = sim_config or scenario.build_simulation_config()
    policy = scheduler or create_scheduler(
        scenario.scheduler, **scenario.scheduler_kwargs
    )
    result = simulate(
        policy, workload, config=config, until=until,
        telemetry=scenario.telemetry, **stream_kwargs,
    )
    if hasattr(model.pricing, "price_per_gb_second"):
        cost = model.workload_cost_columns(result.task_columns())
    else:
        cost = model.workload_cost(result.finished_tasks)
    return RunResult(
        scenario=scenario,
        result=result,
        cost=cost,
        scheduler=policy,
    )
