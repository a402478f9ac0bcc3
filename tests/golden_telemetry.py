"""Golden telemetry runs shared by the trace-equivalence test and its capture.

Two traced runs pin the exact trace the simulator records:

* ``standalone_hybrid`` — the paper's 25/25 hybrid machine on a small
  2-minute trace, with tracing and gauge sampling on;
* ``cluster_faults`` — a small fleet with a non-zero RTT, checkpointed work
  stealing, a reactive autoscaler, crash and revocation chaos, and the
  ``rate_limit -> admission -> timeout_retry -> slo_tracker`` middleware
  chain, so every span, instant, counter and gauge family the telemetry
  layer knows is recorded at least once.

For each run the fixture ``tests/golden/golden_telemetry.json`` stores
sha256 digests of the spans, instants, process and track names, the sorted
counters and the series, next to their sizes.  The test in
``test_golden_telemetry.py`` asserts a fresh run reproduces every digest.

Regenerate (only when intentionally changing what the trace records) with::

    PYTHONPATH=src python tests/golden_telemetry.py --capture
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Callable, Dict

from repro.cluster import ClusterConfig, simulate_cluster
from repro.cluster.autoscaler import AutoscalerConfig, ReactiveAutoscaler
from repro.cluster.config import NetworkSpec
from repro.core.hybrid import HybridScheduler
from repro.experiments.common import paper_hybrid_config, two_minute_workload
from repro.middleware.admission import AdmissionControlMiddleware
from repro.middleware.rate_limit import RateLimitMiddleware
from repro.middleware.retry import TimeoutRetryMiddleware
from repro.middleware.slo import SLOTrackerMiddleware
from repro.simulation.engine import simulate
from repro.telemetry import TelemetrySpec

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "golden_telemetry.json"
)


def run_standalone_hybrid():
    return simulate(
        HybridScheduler(paper_hybrid_config()),
        two_minute_workload(0.1),
        telemetry=TelemetrySpec(trace=True, sample_interval=1.0),
    )


def run_cluster_faults():
    config = ClusterConfig(
        num_nodes=4,
        cores_per_node=4,
        scheduler="fifo",
        dispatcher="jsq",
        network=NetworkSpec(rtt=0.01),
        migration="work_stealing",
        migration_kwargs={"interval": 0.1, "checkpoint": True},
        chaos={
            "crash_rate": 0.02,
            "revocation_rate": 0.08,
            "warning": 0.003,
            "max_failures": 6,
        },
        seed=11,
    )
    autoscaler = ReactiveAutoscaler(
        AutoscalerConfig(
            min_nodes=3, max_nodes=6, check_interval=0.5, cooldown=1.0
        )
    )
    middleware = [
        RateLimitMiddleware(rate=8.0, mode="delay"),
        AdmissionControlMiddleware(max_queue_depth=8),
        TimeoutRetryMiddleware(timeout=0.5, max_retries=1),
        SLOTrackerMiddleware(),
    ]
    return simulate_cluster(
        two_minute_workload(0.05),
        config=config,
        autoscaler=autoscaler,
        middleware=middleware,
        telemetry=TelemetrySpec(trace=True, sample_interval=1.0),
    )


RUNS: Dict[str, Callable[[], object]] = {
    "standalone_hybrid": run_standalone_hybrid,
    "cluster_faults": run_cluster_faults,
}


def _sha(value) -> str:
    # json.dumps writes floats with repr, which round-trips exactly.
    text = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def trace_parts(result) -> Dict[str, object]:
    """The recorded telemetry of one result as JSON-friendly values."""
    snapshot = result.telemetry
    return {
        "spans": [list(span) for span in snapshot.spans],
        "instants": [list(instant) for instant in snapshot.instants],
        "process_names": sorted(snapshot.process_names.items()),
        "track_names": sorted(
            [pid, tid, label]
            for (pid, tid), label in snapshot.track_names.items()
        ),
        "counters": sorted(snapshot.counters.items()),
        "series": [
            [name, [[point.time, point.value] for point in result.series[name]]]
            for name in sorted(result.series)
        ],
    }


def fingerprint(result) -> Dict[str, object]:
    """Digest and size of every recorded telemetry part of one result."""
    return {
        name: {"sha256": _sha(value), "size": len(value)}
        for name, value in trace_parts(result).items()
    }


def load_golden() -> Dict[str, Dict[str, object]]:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def capture() -> None:
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    golden = {name: fingerprint(run()) for name, run in RUNS.items()}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--capture" in sys.argv:
        capture()
    else:
        for name, run in RUNS.items():
            print(name, json.dumps(fingerprint(run()), indent=2, sort_keys=True))
