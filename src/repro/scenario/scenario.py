"""The declarative :class:`Scenario` description.

One value object captures *everything* a run needs — workload, machine or
fleet shape, scheduler, dispatcher, migration, autoscaler, cost model and
seed — and serialises to/from plain dicts and JSON.  The single entry point
:func:`repro.scenario.run.run` turns a scenario into a
:class:`~repro.scenario.run.RunResult`, routing to the single-machine engine
or the cluster simulator automatically.

Every sub-policy is referenced *by registry name* (schedulers, dispatchers,
migration policies, workloads), so a scenario JSON file is a complete,
portable experiment description::

    {
      "workload": {"source": "two_minute", "scale": 0.1},
      "scheduler": "hybrid",
      "scheduler_kwargs": {"fifo_cores": 25, "cfs_cores": 25},
      "num_cores": 50
    }

Defaults reproduce the pre-scenario harness exactly: a single-machine
scenario builds the same :class:`~repro.simulation.config.SimulationConfig`
the experiments' ``standard_config()`` built, and a cluster scenario the
same :class:`~repro.cluster.config.ClusterConfig` the cluster experiments
built — fixed-seed runs are bit-identical either way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chaos.spec import ChaosSpec
from repro.cluster.config import ClusterConfig, NetworkSpec, NodeSpec
from repro.cost.cost_model import CostModel
from repro.cost.pricing import DEFAULT_PRICE_PER_CORE_HOUR
from repro.middleware.spec import MiddlewareEntry
from repro.simulation.config import SimulationConfig
from repro.spec import Spec, validate
from repro.telemetry.spec import TelemetrySpec
from repro.workload.streaming import StreamSpec

#: Enclave size used by the single-machine experiments (50 of the paper's 72
#: cores); the default machine shape of a scenario.
DEFAULT_NUM_CORES = 50


@dataclass(frozen=True)
class Workload(Spec):
    """Declarative reference to a registered workload.

    Attributes:
        source: Workload registry name (``"two_minute"``, ``"ten_minute"``,
            ``"firecracker"`` or any :func:`~repro.scenario.workloads.
            register_workload` addition).
        scale: Fraction of the canonical invocation count.
        params: Extra keyword arguments for the workload builder.
    """

    source: str
    scale: float = 1.0
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        validate(self)
        if not self.source:
            raise ValueError("workload source must be a non-empty name")
        if self.scale <= 0:
            raise ValueError(f"workload scale must be positive, got {self.scale!r}")

    def build(self) -> list:
        """Fresh tasks for this workload (deterministic per source/scale)."""
        from repro.scenario.workloads import create_workload

        return create_workload(self.source, scale=self.scale, **self.params)


@dataclass(frozen=True)
class CostSpec(Spec):
    """Declarative cost-model configuration carried by a scenario."""

    include_request_fee: bool = False
    bill_response_time: bool = False
    price_per_core_hour: float = DEFAULT_PRICE_PER_CORE_HOUR

    def __post_init__(self) -> None:
        validate(self)

    def build_model(self) -> CostModel:
        return CostModel(
            include_request_fee=self.include_request_fee,
            bill_response_time=self.bill_response_time,
            price_per_core_hour=self.price_per_core_hour,
        )


@dataclass(frozen=True)
class Scenario(Spec):
    """One fully declarative experiment run.

    A scenario is *single-machine* by default; setting ``num_nodes`` or
    ``node_specs`` makes it a *cluster* scenario and enables the dispatcher /
    migration / autoscaler fields.

    Attributes:
        workload: Declarative workload reference; ``None`` only for
            programmatic callers that pass explicit tasks to ``run()``.
        scheduler: Scheduler registry name (per-node scheduler on clusters).
        scheduler_kwargs: Keyword arguments for the scheduler factory.
        num_cores: Cores of the single machine (ignored on clusters).
        core_speed: Per-core service rate of the single machine.
        num_nodes: Cluster mode — initial homogeneous fleet size.
        cores_per_node: Cores per node of a homogeneous fleet.
        node_specs: Cluster mode — heterogeneous fleet description.
        dispatcher: Dispatcher registry name (cluster only).
        dispatcher_kwargs: Keyword arguments for the dispatcher factory.
        migration: Migration-policy registry name, or ``None`` (cluster only).
        migration_kwargs: Keyword arguments for the migration factory.
        autoscaler: Reactive-autoscaler config as a plain kwargs dict (see
            :class:`~repro.cluster.autoscaler.AutoscalerConfig`); ``None``
            disables autoscaling.  Cluster only.
        network: Dispatcher→node network model (see
            :class:`~repro.cluster.config.NetworkSpec`); ``None`` keeps the
            zero-RTT default (instantaneous dispatch).  Cluster only.
        middleware: Ordered dispatch-path middleware chain: registry names,
            ``{"name": ..., "params": ...}`` dicts, or
            :class:`~repro.middleware.spec.MiddlewareSpec` entries.  Empty
            (the default) keeps the exact middleware-free dispatch path.
            Cluster only.
        chaos: Fault-injection configuration (see
            :class:`~repro.chaos.spec.ChaosSpec`); ``None`` keeps the exact
            pre-chaos cluster code path.  Cluster only.
        node_boot_time: Cold-start seconds for scale-ups; ``None`` keeps the
            engine default (one Firecracker microVM boot).
        seed: Run seed; ``None`` keeps the engine default (0 for the single
            machine, 7 for clusters), preserving pre-scenario outputs.
        max_simulated_time: Hard clock stop; ``None`` runs to completion.
        record_utilization: Collect per-core utilization samples
            (single-machine runs; cluster nodes manage their own sampling).
        utilization_window: Utilization sampling window in seconds.
        cost: Cost-model configuration used for the run's cost report.
        name: Optional human-readable label carried into reports.
    """

    workload: Optional[Workload] = None
    scheduler: str = "fifo"
    scheduler_kwargs: Dict[str, Any] = field(default_factory=dict)
    # --- single-machine shape ---------------------------------------------
    num_cores: int = DEFAULT_NUM_CORES
    core_speed: float = 1.0
    # --- fleet shape (cluster mode when either is set) --------------------
    num_nodes: Optional[int] = None
    cores_per_node: int = 12
    node_specs: Optional[Tuple[NodeSpec, ...]] = None
    dispatcher: str = "round_robin"
    dispatcher_kwargs: Dict[str, Any] = field(default_factory=dict)
    migration: Optional[str] = None
    migration_kwargs: Dict[str, Any] = field(default_factory=dict)
    autoscaler: Optional[Dict[str, Any]] = None
    network: Optional[NetworkSpec] = None
    middleware: Tuple[MiddlewareEntry, ...] = ()
    chaos: Optional[ChaosSpec] = None
    node_boot_time: Optional[float] = None
    # --- run knobs ---------------------------------------------------------
    seed: Optional[int] = None
    max_simulated_time: Optional[float] = None
    record_utilization: bool = True
    utilization_window: float = 1.0
    cost: CostSpec = field(default_factory=CostSpec)
    #: Telemetry configuration (valid for single-machine and cluster runs);
    #: ``None`` subscribes no telemetry probe: the run is unchanged.
    telemetry: Optional[TelemetrySpec] = None
    #: Streaming trace replay (valid for single-machine and cluster runs);
    #: ``None`` keeps the classic materialise-everything path.  When set, the
    #: workload is fed lazily through ``submit_stream`` with the spec's chunk
    #: size and metrics cap (see :class:`~repro.workload.streaming.StreamSpec`).
    stream: Optional[StreamSpec] = None
    name: str = ""

    def __post_init__(self) -> None:
        validate(self)
        if not self.is_cluster:
            cluster_only = {
                "migration": self.migration is not None,
                "migration_kwargs": bool(self.migration_kwargs),
                "autoscaler": self.autoscaler is not None,
                "network": self.network is not None,
                "node_boot_time": self.node_boot_time is not None,
                "dispatcher": self.dispatcher != "round_robin",
                "dispatcher_kwargs": bool(self.dispatcher_kwargs),
                "middleware": bool(self.middleware),
                "chaos": self.chaos is not None,
            }
            set_fields = [name for name, is_set in cluster_only.items() if is_set]
            if set_fields:
                raise ValueError(
                    "single-machine scenarios cannot set cluster fields: "
                    + ", ".join(set_fields)
                    + " (set num_nodes or node_specs for a cluster run)"
                )
        if self.num_cores <= 0:
            raise ValueError(f"num_cores must be positive, got {self.num_cores!r}")

    # ------------------------------------------------------------------ shape

    @property
    def is_cluster(self) -> bool:
        """True when this scenario describes a fleet run."""
        return self.num_nodes is not None or self.node_specs is not None

    # ------------------------------------------------------------ engine glue

    def build_simulation_config(self) -> SimulationConfig:
        """The single-machine engine configuration this scenario describes."""
        if self.is_cluster:
            raise ValueError("cluster scenarios build a ClusterConfig instead")
        return SimulationConfig(
            num_cores=self.num_cores,
            core_speed=self.core_speed,
            max_simulated_time=self.max_simulated_time,
            record_utilization=self.record_utilization,
            utilization_window=self.utilization_window,
            seed=self.seed if self.seed is not None else 0,
        )

    def build_cluster_config(self) -> ClusterConfig:
        """The fleet configuration this scenario describes."""
        if not self.is_cluster:
            raise ValueError("single-machine scenarios build a SimulationConfig")
        kwargs: Dict[str, Any] = dict(
            cores_per_node=self.cores_per_node,
            node_specs=self.node_specs,
            scheduler=self.scheduler,
            scheduler_kwargs=dict(self.scheduler_kwargs),
            dispatcher=self.dispatcher,
            dispatcher_kwargs=dict(self.dispatcher_kwargs),
            migration=self.migration,
            migration_kwargs=dict(self.migration_kwargs),
        )
        if self.num_nodes is not None:
            kwargs["num_nodes"] = self.num_nodes
        if self.network is not None:
            kwargs["network"] = self.network
        if self.middleware:
            kwargs["middleware"] = self.middleware
        if self.chaos is not None:
            kwargs["chaos"] = self.chaos
        if self.node_boot_time is not None:
            kwargs["node_boot_time"] = self.node_boot_time
        if self.seed is not None:
            kwargs["seed"] = self.seed
        if self.max_simulated_time is not None or self.utilization_window != 1.0:
            # Per-node engines inherit the run knobs through a node config
            # sized later by ClusterConfig.build_node_config.
            kwargs["node_config"] = SimulationConfig(
                num_cores=self.cores_per_node,
                max_simulated_time=self.max_simulated_time,
                utilization_window=self.utilization_window,
                record_utilization=False,
                seed=self.seed if self.seed is not None else 7,
            )
        return ClusterConfig(**kwargs)

    # ------------------------------------------------------------------ copies

    def with_workload(self, source: str, scale: float = 1.0, **params) -> "Scenario":
        """Copy of this scenario over a different registered workload."""
        return replace(self, workload=Workload(source=source, scale=scale, params=params))

    def with_scheduler(self, name: str, **kwargs) -> "Scenario":
        """Copy of this scenario using a different scheduling policy."""
        return replace(self, scheduler=name, scheduler_kwargs=kwargs)

    def with_dispatcher(self, name: str, **kwargs) -> "Scenario":
        """Copy of this (cluster) scenario using a different dispatch policy."""
        return replace(self, dispatcher=name, dispatcher_kwargs=kwargs)

    def with_network(self, **kwargs) -> "Scenario":
        """Copy of this (cluster) scenario under a different network model."""
        return replace(self, network=NetworkSpec(**kwargs))

    def with_telemetry(self, **kwargs) -> "Scenario":
        """Copy of this scenario with telemetry enabled (spec kwargs)."""
        return replace(self, telemetry=TelemetrySpec(**kwargs))

    def with_middleware(self, *middleware) -> "Scenario":
        """Copy of this (cluster) scenario with the given middleware chain.

        Each entry may be a registry name, a ``{"name": ..., "params": ...}``
        dict, or a :class:`~repro.middleware.spec.MiddlewareSpec`.
        """
        return replace(self, middleware=middleware)

    def with_chaos(self, **kwargs) -> "Scenario":
        """Copy of this (cluster) scenario with fault injection enabled."""
        return replace(self, chaos=ChaosSpec(**kwargs))

    def with_stream(self, **kwargs) -> "Scenario":
        """Copy of this scenario replayed through the streaming path."""
        return replace(self, stream=StreamSpec(**kwargs))

    # ------------------------------------------------------------ serialising

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))
