"""Cluster configuration.

A cluster is N nodes, each a :class:`~repro.simulation.machine.Machine`
running its own per-node scheduler, fed by one dispatcher.  Fleets may be
homogeneous (``num_nodes`` x ``cores_per_node``, the PR-1 shape) or
heterogeneous: a list of :class:`NodeSpec` entries gives each node its own
core count and speed factor (big/little instances, spot vs on-demand).  The
defaults model the paper's enclave split across a small fleet: 4 nodes of 12
cores ≈ the 50-core testbed, with node cold-start delay taken from the
published Firecracker boot figure
(:class:`repro.firecracker.microvm.MicroVMSpec`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

from repro.firecracker.microvm import MicroVMSpec
from repro.simulation.config import SimulationConfig
from repro.spec import Spec, check, validate

#: Default node cold-start delay: one Firecracker microVM boot (~125 ms).
DEFAULT_NODE_BOOT_TIME = MicroVMSpec().boot_time


@dataclass(frozen=True)
class NetworkSpec(Spec):
    """Dispatcher→node network model.

    With the default (``rtt=0``) dispatch is instantaneous and the cluster
    engine is bit-identical to the network-free engine: no ingress events are
    scheduled and every task is handed to its node's scheduler at the dispatch
    decision instant.

    With a non-zero ``rtt`` a dispatched task first enters the target node's
    *ingress queue* — in flight on the wire, visible to load signals as a
    distinct ingress state — and only reaches the node's scheduler after the
    wire delay:

    * every task pays the one-way trip, ``rtt / 2``;
    * *load-probing* dispatchers (``least_loaded``, ``jsq``,
      ``power_of_two`` — any policy with
      :attr:`~repro.cluster.dispatchers.Dispatcher.probes_load`) pay
      ``probe_rtts`` extra round trips per decision, charged at the landing
      node's RTT — the cost of sampling remote queue state that
      locality-aware and oblivious policies never pay (the Sparrow-style
      late-binding tradeoff).

    Attributes:
        rtt: Dispatcher→node round-trip time in seconds (fleet-wide default;
            :attr:`NodeSpec.rtt` overrides it per node shape).
        probe_rtts: Extra round trips a load-probing dispatcher pays per
            dispatch decision.  Set to ``0.0`` to model an oracle load signal
            (piggybacked on completions) that probing gets for free.
    """

    rtt: float = 0.0
    probe_rtts: float = 1.0

    def __post_init__(self) -> None:
        validate(self)
        if self.rtt < 0:
            raise ValueError(f"rtt must be >= 0, got {self.rtt!r}")
        if self.probe_rtts < 0:
            raise ValueError(f"probe_rtts must be >= 0, got {self.probe_rtts!r}")

    def dispatch_delay(self, rtt: float, probes_load: bool) -> float:
        """Wire delay of one dispatched task (seconds).

        Args:
            rtt: Effective round-trip time to the landing node.
            probes_load: Whether the dispatching policy samples per-node load
                (and therefore pays the probe round trips).
        """
        delay = rtt * 0.5
        if probes_load:
            delay += rtt * self.probe_rtts
        return delay


@dataclass(frozen=True)
class NodeSpec(Spec):
    """Shape of one node (or ``count`` identical nodes) in the fleet.

    Attributes:
        cores: Number of cores on this node type.
        speed_factor: Per-core service rate relative to the paper's baseline
            hardware; 2.0 runs every task twice as fast.
        count: How many nodes of this type the fleet contains.
        label: Optional human-readable tag (e.g. ``"big"`` / ``"little"``)
            carried into per-node reports.
        price_per_hour: On-demand price (USD/hour) of one node of this type.
            ``None`` lets :class:`repro.cost.CostModel` derive a price from
            the node's capacity; set it explicitly to model spot discounts
            or premium instance types.
        rtt: Dispatcher→node round-trip time (seconds) for nodes of this
            type; ``None`` uses the fleet-wide
            :attr:`ClusterConfig.network` RTT.  Set it to model mixed
            placements (same-rack nodes next to remote ones).
        crash_rate: Crash-style failures per node per second for this node
            type; ``None`` uses the fleet-wide
            :attr:`~repro.chaos.spec.ChaosSpec.crash_rate`.  Only read when
            the run has a chaos spec.
        revocation_rate: Spot-style revocations per node per second for
            this node type; ``None`` uses the fleet-wide
            :attr:`~repro.chaos.spec.ChaosSpec.revocation_rate`.  Set it to
            model spot nodes next to reliable on-demand ones.
    """

    cores: int = 12
    speed_factor: float = 1.0
    count: int = 1
    label: str = ""
    price_per_hour: Optional[float] = None
    rtt: Optional[float] = None
    crash_rate: Optional[float] = None
    revocation_rate: Optional[float] = None

    def __post_init__(self) -> None:
        validate(self)
        if self.cores <= 0:
            raise ValueError(f"cores must be positive, got {self.cores!r}")
        if self.speed_factor <= 0:
            raise ValueError(
                f"speed_factor must be positive, got {self.speed_factor!r}"
            )
        if self.count <= 0:
            raise ValueError(f"count must be positive, got {self.count!r}")
        if self.price_per_hour is not None and self.price_per_hour < 0:
            raise ValueError(
                f"price_per_hour must be >= 0 when set, got {self.price_per_hour!r}"
            )
        if self.rtt is not None and self.rtt < 0:
            raise ValueError(f"rtt must be >= 0 when set, got {self.rtt!r}")
        if self.crash_rate is not None and self.crash_rate < 0:
            raise ValueError(
                f"crash_rate must be >= 0 when set, got {self.crash_rate!r}"
            )
        if self.revocation_rate is not None and self.revocation_rate < 0:
            raise ValueError(
                f"revocation_rate must be >= 0 when set, got "
                f"{self.revocation_rate!r}"
            )

    @property
    def capacity(self) -> float:
        """Service capacity in baseline-core equivalents (cores x speed)."""
        return self.cores * self.speed_factor

    def singleton(self) -> "NodeSpec":
        """This spec for exactly one node (``count`` collapsed to 1)."""
        if self.count == 1:
            return self
        return replace(self, count=1)


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs shared by every cluster simulation run.

    Attributes:
        num_nodes: Number of nodes alive when the simulation starts.  When
            ``node_specs`` is given this is derived from the specs and any
            explicitly passed value is ignored.
        cores_per_node: Cores on each node of a homogeneous fleet; ignored
            when ``node_specs`` is given.
        node_specs: Optional heterogeneous fleet description.  Each entry
            contributes ``spec.count`` nodes with ``spec.cores`` cores running
            at ``spec.speed_factor``; node ids are assigned in list order.
        scheduler: Registry name of the per-node scheduling policy.
        scheduler_kwargs: Extra keyword arguments for the scheduler factory.
        dispatcher: Registry name of the cluster-level dispatch policy.
        dispatcher_kwargs: Extra keyword arguments for the dispatcher factory.
        migration: Registry name of the inter-node migration policy (e.g.
            ``"work_stealing"``); ``None`` disables task migration.
        migration_kwargs: Extra keyword arguments for the migration factory.
        node_boot_time: Seconds between a scale-up decision and the new node
            accepting work (cold-start delay).
        network: Dispatcher→node network model (RTT + probe cost); the
            default zero-RTT spec keeps dispatch instantaneous and the run
            bit-identical to the network-free engine.
        middleware: Declarative dispatch-path middleware chain: a tuple of
            :class:`~repro.middleware.spec.MiddlewareSpec` entries (registry
            names, dicts, or specs — coerced on construction) applied in
            order to every arriving task.  Empty (the default) keeps the
            dispatch path bit-identical to the middleware-free engine.
        chaos: Fault-injection configuration
            (:class:`~repro.chaos.spec.ChaosSpec`, or a dict coerced to
            one); ``None`` (the default) keeps the cluster on the exact
            pre-chaos code path.
        seed: Seed for every randomized dispatcher (and, via an isolated
            derived stream, the chaos injector); two runs with the same
            config and workload are bit-identical.
        node_config: Per-node simulation configuration; when omitted a
            default config sized to each node's spec is used (with
            utilization recording off — the fleet has its own series).
    """

    num_nodes: int = 4
    cores_per_node: int = 12
    node_specs: Optional[Tuple[NodeSpec, ...]] = None
    scheduler: str = "fifo"
    scheduler_kwargs: Dict[str, object] = field(default_factory=dict)
    dispatcher: str = "round_robin"
    dispatcher_kwargs: Dict[str, object] = field(default_factory=dict)
    migration: Optional[str] = None
    migration_kwargs: Dict[str, object] = field(default_factory=dict)
    node_boot_time: float = DEFAULT_NODE_BOOT_TIME
    network: NetworkSpec = field(default_factory=NetworkSpec)
    middleware: Tuple[object, ...] = ()
    chaos: Optional[object] = None
    seed: int = 7
    node_config: Optional[SimulationConfig] = None

    def __post_init__(self) -> None:
        if self.node_specs is not None:
            specs = tuple(self.node_specs)
            if not specs:
                raise ValueError("node_specs must not be empty when given")
            for spec in specs:
                if not isinstance(spec, NodeSpec):
                    raise TypeError(
                        f"node_specs entries must be NodeSpec, got {spec!r}"
                    )
            object.__setattr__(self, "node_specs", specs)
            # num_nodes is derived from the specs for heterogeneous fleets.
            object.__setattr__(
                self, "num_nodes", sum(spec.count for spec in specs)
            )
        if self.num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {self.num_nodes!r}")
        if self.cores_per_node <= 0:
            raise ValueError(
                f"cores_per_node must be positive, got {self.cores_per_node!r}"
            )
        if self.node_boot_time < 0:
            raise ValueError(
                f"node_boot_time must be >= 0, got {self.node_boot_time!r}"
            )
        if not isinstance(self.network, NetworkSpec):
            raise TypeError(
                f"network must be a NetworkSpec, got {self.network!r}"
            )
        if self.middleware:
            # Imported lazily: repro.middleware pulls in the registry's
            # built-ins, which must never import cluster modules at import
            # time — keeping the dependency one-way (cluster -> middleware).
            from repro.middleware.spec import MiddlewareSpec

            object.__setattr__(
                self,
                "middleware",
                tuple(MiddlewareSpec.coerce(m) for m in self.middleware),
            )
        if self.chaos is not None:
            # Same lazy-import rule as middleware: repro.chaos depends on
            # cluster modules, so the dependency stays one-way at import time.
            from repro.chaos.spec import ChaosSpec

            object.__setattr__(self, "chaos", check(self.chaos, ChaosSpec, "chaos"))

    # ------------------------------------------------------------------ fleet

    @property
    def is_heterogeneous(self) -> bool:
        """True when the fleet mixes node shapes (or uses explicit specs)."""
        return self.node_specs is not None

    def expanded_specs(self) -> Tuple[NodeSpec, ...]:
        """One :class:`NodeSpec` per initial node, in node-id order."""
        if self.node_specs is None:
            # Homogeneous fleets honour a user node_config's core_speed, so
            # the specs (and the capacities derived from them) must match.
            speed = (
                self.node_config.core_speed
                if self.node_config is not None
                else 1.0
            )
            return tuple(
                NodeSpec(cores=self.cores_per_node, speed_factor=speed)
                for _ in range(self.num_nodes)
            )
        return tuple(
            spec.singleton() for spec in self.node_specs for _ in range(spec.count)
        )

    def scale_up_spec(self) -> NodeSpec:
        """Shape of nodes added beyond the initial fleet (autoscaler growth).

        Heterogeneous fleets grow with their *first* listed spec — put the
        node type the autoscaler should add at the head of ``node_specs``.
        """
        return self.expanded_specs()[0]

    def total_capacity(self) -> float:
        """Initial fleet capacity in baseline-core equivalents."""
        return sum(spec.capacity for spec in self.expanded_specs())

    def effective_rtt(self, spec: Optional[NodeSpec]) -> float:
        """Dispatcher→node RTT for one node: its spec's override, else the
        fleet-wide network default."""
        if spec is not None and spec.rtt is not None:
            return spec.rtt
        return self.network.rtt

    def build_node_config(self, spec: Optional[NodeSpec] = None) -> SimulationConfig:
        """Simulation config for one node's machine and engine.

        Args:
            spec: Shape of the node; defaults to the homogeneous
                ``cores_per_node`` spec for backwards compatibility.
        """
        if spec is None:
            spec = NodeSpec(cores=self.cores_per_node)
        if self.node_config is not None:
            config = self.node_config
            updates = {}
            if config.num_cores != spec.cores:
                updates["num_cores"] = spec.cores
            # Heterogeneous specs own the per-node speed; homogeneous fleets
            # keep whatever core_speed the user's node_config asks for.
            if (
                self.node_specs is not None
                and config.core_speed != spec.speed_factor
            ):
                updates["core_speed"] = spec.speed_factor
            return replace(config, **updates) if updates else config
        return SimulationConfig(
            num_cores=spec.cores,
            core_speed=spec.speed_factor,
            record_utilization=False,
            seed=self.seed,
        )

    # ------------------------------------------------------------------ copies

    def with_dispatcher(self, name: str, **kwargs) -> "ClusterConfig":
        """Copy of this config using a different dispatch policy."""
        return replace(self, dispatcher=name, dispatcher_kwargs=kwargs)

    def with_migration(self, name: Optional[str], **kwargs) -> "ClusterConfig":
        """Copy of this config using a different migration policy."""
        return replace(self, migration=name, migration_kwargs=kwargs)

    def with_nodes(self, num_nodes: int) -> "ClusterConfig":
        """Copy of this config with a different initial fleet size.

        Only meaningful for homogeneous fleets; with ``node_specs`` set the
        fleet size is derived from the specs.
        """
        return replace(self, num_nodes=num_nodes)

    def with_node_specs(self, specs: Sequence[NodeSpec]) -> "ClusterConfig":
        """Copy of this config describing a heterogeneous fleet."""
        return replace(self, node_specs=tuple(specs))

    def with_network(self, **kwargs) -> "ClusterConfig":
        """Copy of this config with a different network model."""
        return replace(self, network=NetworkSpec(**kwargs))

    def with_middleware(self, *entries) -> "ClusterConfig":
        """Copy of this config with the given middleware chain.

        Each entry may be a registry name, a ``{"name": ..., "params": ...}``
        dict, or a :class:`~repro.middleware.spec.MiddlewareSpec`.
        """
        return replace(self, middleware=tuple(entries))

    def with_chaos(self, **kwargs) -> "ClusterConfig":
        """Copy of this config with fault injection enabled (spec kwargs)."""
        from repro.chaos.spec import ChaosSpec

        return replace(self, chaos=ChaosSpec(**kwargs))
