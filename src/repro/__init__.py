"""repro — reproduction of "In Serverless, OS Scheduler Choice Costs Money".

Public API
==========

The package is organised as one subpackage per subsystem (see ``DESIGN.md``),
but the most common entry points are re-exported here:

* workload construction: :func:`repro.workload.generator.paper_workload_2min`
  and friends,
* schedulers: :class:`repro.core.HybridScheduler` plus the baselines in
  :mod:`repro.schedulers`,
* running a simulation: :func:`repro.simulation.engine.simulate` (and
  :func:`repro.cluster.simulate_cluster` for a fleet), each taking a task
  list or a :class:`~repro.workload.streaming.StreamingWorkload`,
* cost accounting: :class:`repro.cost.CostModel`.

Quick example::

    from repro import simulate, HybridScheduler, paper_workload_2min
    from repro.cost import CostModel

    tasks = paper_workload_2min(limit=2000)
    result = simulate(HybridScheduler(), tasks)
    print(result.describe())
    print(CostModel().workload_cost(result.finished_tasks))

Scenario
========

:mod:`repro.scenario` is the declarative front door: one
:class:`~repro.scenario.scenario.Scenario` (workload + machine/fleet shape +
scheduler + dispatcher + migration + autoscaler + cost model + seed,
JSON-serialisable) and one :func:`~repro.scenario.run.run` pipeline that
routes it to the right engine and attaches a cost report::

    from repro import Scenario, Workload, run_scenario

    result = run_scenario(Scenario(workload=Workload("two_minute", scale=0.1),
                                   scheduler="hybrid"))
    print(result.describe())

Cluster
=======

:mod:`repro.cluster` scales the same substrate to a multi-node fleet: a
:class:`~repro.cluster.ClusterSimulator` drives N machines (each with its own
per-node scheduler from the registry) off one shared event loop, routes
invocations through a pluggable dispatch policy (random, round-robin,
least-loaded, join-shortest-queue, power-of-two-choices, consistent hashing
on the function id), and optionally grows/shrinks the fleet with a reactive
autoscaler paying Firecracker-style cold-start delays::

    from repro import paper_workload_10min
    from repro.cluster import ClusterConfig, simulate_cluster

    config = ClusterConfig(num_nodes=4, cores_per_node=24,
                           scheduler="fifo", dispatcher="power_of_two")
    print(simulate_cluster(paper_workload_10min(), config=config).describe())
"""

from repro.cluster import (
    ClusterConfig,
    ClusterResult,
    ClusterSimulator,
    available_dispatchers,
    create_dispatcher,
    simulate_cluster,
)
from repro.core import HybridConfig, HybridScheduler
from repro.scenario import RunResult, Scenario, Workload
from repro.scenario import run as run_scenario
from repro.schedulers import (
    CFSScheduler,
    EDFScheduler,
    FIFOPreemptScheduler,
    FIFOScheduler,
    RoundRobinScheduler,
    ShinjukuScheduler,
    SJFScheduler,
    SRTFScheduler,
    available_schedulers,
    create_scheduler,
)
from repro.simulation import Machine, SimulationConfig, SimulationResult, Simulator, Task
from repro.simulation.engine import simulate
from repro.telemetry import TelemetrySpec, chrome_trace, write_chrome_trace
from repro.workload.generator import (
    build_workload,
    paper_workload_2min,
    paper_workload_10min,
    scaled_workload,
)

__version__ = "1.0.0"

__all__ = [
    "ClusterConfig",
    "ClusterResult",
    "ClusterSimulator",
    "available_dispatchers",
    "create_dispatcher",
    "simulate_cluster",
    "HybridConfig",
    "HybridScheduler",
    "RunResult",
    "Scenario",
    "Workload",
    "run_scenario",
    "CFSScheduler",
    "EDFScheduler",
    "FIFOPreemptScheduler",
    "FIFOScheduler",
    "RoundRobinScheduler",
    "ShinjukuScheduler",
    "SJFScheduler",
    "SRTFScheduler",
    "available_schedulers",
    "create_scheduler",
    "Machine",
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
    "Task",
    "simulate",
    "TelemetrySpec",
    "chrome_trace",
    "write_chrome_trace",
    "build_workload",
    "paper_workload_2min",
    "paper_workload_10min",
    "scaled_workload",
    "__version__",
]
