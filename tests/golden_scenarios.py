"""Golden scenarios shared by the equivalence suite and the capture script.

Four representative workloads exercise every accounting path the
virtual-time core model replaced, plus the hybrid's core rightsizing:

* ``cfs_high_mp`` — one CFS machine driven far into multiprogramming, so
  per-event cost is dominated by fair-share accounting (the tentpole's O(n)
  → O(log n) hot path) and the load balancer migrates tasks between cores.
* ``hybrid_fig12`` — the paper's 25/25 hybrid configuration on the 2-minute
  trace: dedicated FIFO cores, preemption-limit timers, migration charges
  into the CFS group.
* ``hetero_cluster_stealing`` — the 2x24 + 4x8 big/little fleet under
  capacity-normalised JSQ with work-stealing migration: shared event queue,
  per-node engines, steals re-keying queued work across nodes.
* ``hybrid_rightsizing`` — the 25/25 hybrid with the adaptive (p95) limit
  and Fig. 8 rightsizing on: cores move between the FIFO and CFS groups
  both ways, draining, redistributing and rebalancing running tasks.

The fixture ``tests/golden/golden_metrics.json`` was captured from the
pre-virtual-time (eager, O(n)-sync) engine at commit ``bf121a5``
(``hybrid_rightsizing`` was added later, captured at commit ``8ffd8e6``
before the hybrid scheduler stopped routing through an emulated enclave);
the suite in ``test_golden_equivalence.py`` asserts the rewritten engine
reproduces those numbers within 1e-9.

``tests/golden/golden_columns.json`` holds, per scenario, the SHA-256 of
its finished-task columns (``task_columns().data.tobytes()``), captured at
commit ``c2d0c5c`` before the event-loop hot path was rewritten: a run
matches it only when every finished task's row is bit-identical.
``cluster_faults`` is the all-features fleet of :mod:`golden_telemetry`
(RTT, checkpointed stealing, autoscaler, crash and spot chaos and a
four-stage middleware chain), pinned at commit ``5d5fe8e`` before the
fleet features moved onto loop hooks.

Regenerate (only when intentionally changing simulation semantics) with::

    PYTHONPATH=src python tests/golden_scenarios.py --capture
    PYTHONPATH=src python tests/golden_scenarios.py --capture-columns
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Callable, Dict

import numpy as np

from repro.cluster import ClusterConfig, NodeSpec, simulate_cluster
from repro.core.hybrid import HybridScheduler
from repro.experiments.common import (
    paper_hybrid_config,
    two_minute_workload,
)
from repro.schedulers.cfs import CFSScheduler
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import simulate
from repro.simulation.metrics import TaskMetricsSummary
from repro.simulation.task import Task

from golden_telemetry import run_cluster_faults

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "golden_metrics.json")
COLUMNS_PATH = os.path.join(os.path.dirname(__file__), "golden", "golden_columns.json")

#: Absolute/relative tolerance required by the equivalence suite.
TOLERANCE = 1e-9


def _summary_metrics(summary: TaskMetricsSummary, prefix: str = "") -> Dict[str, float]:
    data = summary.as_dict()
    return {f"{prefix}{key}": float(value) for key, value in data.items()}


def _machine_metrics(result) -> Dict[str, float]:
    """Summary, preemptions, simulated time and finished count of one machine run."""
    metrics = _summary_metrics(result.summary())
    metrics["total_preemptions"] = float(result.total_preemptions())
    metrics["simulated_time"] = float(result.simulated_time)
    metrics["finished"] = float(len(result.finished_tasks))
    return metrics


def _high_mp_tasks(count: int = 320, seed: int = 1234) -> list:
    """A seeded burst: ``count`` tasks land within 2 s on a 4-core machine."""
    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.uniform(0.0, 2.0, size=count))
    services = rng.lognormal(mean=-1.5, sigma=1.0, size=count)
    return [
        Task(task_id=i, arrival_time=float(arrivals[i]), service_time=float(services[i]))
        for i in range(count)
    ]


def run_cfs_high_mp():
    return simulate(
        CFSScheduler(),
        _high_mp_tasks(),
        config=SimulationConfig(num_cores=4, record_utilization=False),
    )


def run_hybrid_fig12():
    return simulate(HybridScheduler(paper_hybrid_config()), two_minute_workload(0.2))


def _rightsizing_run():
    config = (
        paper_hybrid_config()
        .with_adaptive_limit(95, window=100)
        .with_rightsizing(True)
    )
    scheduler = HybridScheduler(config)
    return scheduler, simulate(scheduler, two_minute_workload(0.2))


def run_hetero_cluster_stealing():
    config = ClusterConfig(
        node_specs=(
            NodeSpec(cores=24, count=2, label="big"),
            NodeSpec(cores=8, count=4, label="little"),
        ),
        scheduler="fifo",
        dispatcher="jsq",
        migration="work_stealing",
    )
    return simulate_cluster(two_minute_workload(0.1), config=config)


def scenario_cfs_high_mp() -> Dict[str, float]:
    return _machine_metrics(run_cfs_high_mp())


def scenario_hybrid_fig12() -> Dict[str, float]:
    return _machine_metrics(run_hybrid_fig12())


def scenario_hybrid_rightsizing() -> Dict[str, float]:
    scheduler, result = _rightsizing_run()
    metrics = _machine_metrics(result)
    metrics["core_migrations"] = float(scheduler.rightsizer.migration_count)
    metrics["tasks_preempted_to_cfs"] = float(scheduler.tasks_preempted_to_cfs)
    return metrics


def scenario_hetero_cluster_stealing() -> Dict[str, float]:
    result = run_hetero_cluster_stealing()
    metrics = _summary_metrics(TaskMetricsSummary.from_tasks(result.tasks))
    metrics["tasks_migrated"] = float(result.tasks_migrated)
    metrics["simulated_time"] = float(result.simulated_time)
    for node_id, stats in sorted(result.node_stats.items()):
        metrics[f"node{node_id}.assigned"] = float(stats["assigned"])
        metrics[f"node{node_id}.completed"] = float(stats["completed"])
        metrics[f"node{node_id}.stolen_in"] = float(stats["stolen_in"])
        metrics[f"node{node_id}.stolen_away"] = float(stats["stolen_away"])
    return metrics


SCENARIOS: Dict[str, Callable[[], Dict[str, float]]] = {
    "cfs_high_mp": scenario_cfs_high_mp,
    "hybrid_fig12": scenario_hybrid_fig12,
    "hetero_cluster_stealing": scenario_hetero_cluster_stealing,
    "hybrid_rightsizing": scenario_hybrid_rightsizing,
}

#: The same scenarios as runs whose finished-task columns are hashed.
RUNS: Dict[str, Callable[[], object]] = {
    "cfs_high_mp": run_cfs_high_mp,
    "hybrid_fig12": run_hybrid_fig12,
    "hetero_cluster_stealing": run_hetero_cluster_stealing,
    "hybrid_rightsizing": lambda: _rightsizing_run()[1],
    "cluster_faults": run_cluster_faults,
}


def columns_digest(result) -> str:
    """SHA-256 of every finished-task row: equal only for bit-identical runs."""
    return hashlib.sha256(result.task_columns().data.tobytes()).hexdigest()


def load_golden_columns() -> Dict[str, str]:
    with open(COLUMNS_PATH) as handle:
        return json.load(handle)


def load_golden() -> Dict[str, Dict[str, float]]:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def assert_close(
    scenario: str, golden: Dict[str, float], observed: Dict[str, float]
) -> None:
    """Assert every golden metric is reproduced within :data:`TOLERANCE`."""
    missing = sorted(set(golden) - set(observed))
    assert not missing, f"{scenario}: metrics missing from the run: {missing}"
    mismatches = []
    for key in sorted(golden):
        want, got = golden[key], observed[key]
        if not math.isclose(want, got, rel_tol=TOLERANCE, abs_tol=TOLERANCE):
            mismatches.append(f"{key}: golden={want!r} observed={got!r}")
    assert not mismatches, f"{scenario}: metrics diverged:\n" + "\n".join(mismatches)


def _write(path: str, data: Dict[str, object]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def capture() -> None:
    _write(GOLDEN_PATH, {name: run() for name, run in SCENARIOS.items()})


def capture_columns() -> None:
    _write(COLUMNS_PATH, {name: columns_digest(run()) for name, run in RUNS.items()})


if __name__ == "__main__":
    import sys

    if "--capture" in sys.argv:
        capture()
    elif "--capture-columns" in sys.argv:
        capture_columns()
    else:
        for name, run in SCENARIOS.items():
            print(name, json.dumps(run(), indent=2, sort_keys=True))
