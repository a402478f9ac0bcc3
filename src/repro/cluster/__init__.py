"""Multi-node cluster simulation: dispatchers, migration, autoscaling.

The paper studies scheduling on one machine; this package scales the same
discrete-event substrate to a *fleet*.  A :class:`ClusterSimulator` drives N
:class:`~repro.cluster.node.ClusterNode` s — each a full machine running its
own per-node scheduler from :mod:`repro.schedulers.registry` — off one shared
event loop (the same :class:`~repro.simulation.engine.EventLoop` a
standalone :class:`~repro.simulation.engine.Simulator` runs on).  Fleets may be heterogeneous: a list of
:class:`NodeSpec` s gives each node its own core count and speed factor
(big/little instances, spot vs on-demand), and the load-aware dispatchers
normalise queue depth by node capacity.  Arriving invocations are routed by
a pluggable dispatch policy (random, round-robin, least-loaded,
join-shortest-queue, power-of-two-choices, consistent hashing on the
function id), a pluggable migration policy (work stealing) periodically lets
cool or draining nodes pull queued tasks from hot neighbours, and an
optional reactive autoscaler adds/removes nodes with Firecracker cold-start
delays.  A :class:`NetworkSpec` adds a dispatcher→node RTT: dispatched tasks
sit in per-node *ingress queues* while on the wire (counted by load
signals), and load-probing dispatchers pay an extra probe round trip — the
Sparrow-style late-binding tradeoff that lets locality-aware policies show
their latency advantage.  The default zero-RTT model is bit-identical to
instantaneous dispatch.

Quick example::

    from repro.cluster import ClusterConfig, NodeSpec, simulate_cluster
    from repro.workload.generator import paper_workload_10min

    config = ClusterConfig(
        node_specs=[NodeSpec(cores=24, count=2),          # on-demand "big"
                    NodeSpec(cores=8, speed_factor=0.8, count=4)],  # spot
        scheduler="fifo", dispatcher="jsq", migration="work_stealing",
    )
    result = simulate_cluster(paper_workload_10min(limit=5000), config=config)
    print(result.describe())

:func:`simulate_cluster` takes a task list or a
:class:`~repro.workload.streaming.StreamingWorkload`; a streamed workload is
fed in chunks with bounded metrics (``chunk``, ``low_water``,
``metrics_cap``, ``metrics_policy``, ``spill_dir``).
"""

from repro.cluster.autoscaler import AutoscalerConfig, ReactiveAutoscaler
from repro.cluster.config import (
    ClusterConfig,
    DEFAULT_NODE_BOOT_TIME,
    NetworkSpec,
    NodeSpec,
)
from repro.cluster.dispatchers import (
    ConsistentHashDispatcher,
    Dispatcher,
    JoinShortestQueueDispatcher,
    LeastLoadedDispatcher,
    PowerOfTwoDispatcher,
    RandomDispatcher,
    RoundRobinDispatcher,
    function_key,
)
from repro.cluster.migration import (
    DEFAULT_MIGRATION_DELAY,
    DEFAULT_MIGRATION_INTERVAL,
    Migration,
    MigrationPolicy,
    WorkStealingPolicy,
)
from repro.cluster.node import ClusterNode, NodeState
from repro.cluster.registry import (
    available_dispatchers,
    available_migration_policies,
    create_dispatcher,
    create_migration_policy,
    register_dispatcher,
    register_migration_policy,
)
from repro.cluster.results import ClusterResult
from repro.cluster.simulator import ClusterSimulator, simulate_cluster

__all__ = [
    "AutoscalerConfig",
    "ReactiveAutoscaler",
    "ClusterConfig",
    "NetworkSpec",
    "NodeSpec",
    "DEFAULT_NODE_BOOT_TIME",
    "DEFAULT_MIGRATION_DELAY",
    "DEFAULT_MIGRATION_INTERVAL",
    "Dispatcher",
    "RandomDispatcher",
    "RoundRobinDispatcher",
    "LeastLoadedDispatcher",
    "JoinShortestQueueDispatcher",
    "PowerOfTwoDispatcher",
    "ConsistentHashDispatcher",
    "function_key",
    "Migration",
    "MigrationPolicy",
    "WorkStealingPolicy",
    "ClusterNode",
    "NodeState",
    "available_dispatchers",
    "available_migration_policies",
    "create_dispatcher",
    "create_migration_policy",
    "register_dispatcher",
    "register_migration_policy",
    "ClusterResult",
    "ClusterSimulator",
    "simulate_cluster",
]
