"""Golden scenarios shared by the equivalence suite and the capture script.

Three representative workloads exercise every accounting path the
virtual-time core model replaced:

* ``cfs_high_mp`` — one CFS machine driven far into multiprogramming, so
  per-event cost is dominated by fair-share accounting (the tentpole's O(n)
  → O(log n) hot path) and the load balancer migrates tasks between cores.
* ``hybrid_fig12`` — the paper's 25/25 hybrid configuration on the 2-minute
  trace: dedicated FIFO cores, preemption-limit timers, migration charges
  into the CFS group.
* ``hetero_cluster_stealing`` — the 2x24 + 4x8 big/little fleet under
  capacity-normalised JSQ with work-stealing migration: shared event queue,
  per-node engines, steals re-keying queued work across nodes.

The fixture ``tests/golden/golden_metrics.json`` was captured from the
pre-virtual-time (eager, O(n)-sync) engine at commit ``bf121a5``; the suite
in ``test_golden_equivalence.py`` asserts the rewritten engine reproduces
those numbers within 1e-9.

Regenerate (only when intentionally changing simulation semantics) with::

    PYTHONPATH=src python tests/golden_scenarios.py --capture
"""

from __future__ import annotations

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

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "golden_metrics.json")

#: Absolute/relative tolerance required by the equivalence suite.
TOLERANCE = 1e-9


def _summary_metrics(summary: TaskMetricsSummary, prefix: str = "") -> Dict[str, float]:
    data = summary.as_dict()
    return {f"{prefix}{key}": float(value) for key, value in data.items()}


def _high_mp_tasks(count: int = 320, seed: int = 1234) -> list:
    """A seeded burst: ``count`` tasks land within 2 s on a 4-core machine."""
    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.uniform(0.0, 2.0, size=count))
    services = rng.lognormal(mean=-1.5, sigma=1.0, size=count)
    return [
        Task(task_id=i, arrival_time=float(arrivals[i]), service_time=float(services[i]))
        for i in range(count)
    ]


def scenario_cfs_high_mp() -> Dict[str, float]:
    result = simulate(
        CFSScheduler(),
        _high_mp_tasks(),
        config=SimulationConfig(num_cores=4, record_utilization=False),
    )
    metrics = _summary_metrics(result.summary())
    metrics["total_preemptions"] = float(result.total_preemptions())
    metrics["simulated_time"] = float(result.simulated_time)
    metrics["finished"] = float(len(result.finished_tasks))
    return metrics


def scenario_hybrid_fig12() -> Dict[str, float]:
    result = simulate(
        HybridScheduler(paper_hybrid_config()), two_minute_workload(0.2)
    )
    metrics = _summary_metrics(result.summary())
    metrics["total_preemptions"] = float(result.total_preemptions())
    metrics["simulated_time"] = float(result.simulated_time)
    metrics["finished"] = float(len(result.finished_tasks))
    return metrics


def scenario_hetero_cluster_stealing() -> Dict[str, float]:
    config = ClusterConfig(
        node_specs=(
            NodeSpec(cores=24, count=2, label="big"),
            NodeSpec(cores=8, count=4, label="little"),
        ),
        scheduler="fifo",
        dispatcher="jsq",
        migration="work_stealing",
    )
    result = simulate_cluster(two_minute_workload(0.1), config=config)
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
}


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


def capture() -> None:
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    golden = {name: run() for name, run in SCENARIOS.items()}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--capture" in sys.argv:
        capture()
    else:
        for name, run in SCENARIOS.items():
            print(name, json.dumps(run(), indent=2, sort_keys=True))
