#!/usr/bin/env python
"""Peak-RSS benchmarks for the streaming trace-replay path (BENCH_9.json).

Each bench must run in a *fresh* process: ``ru_maxrss`` is a lifetime
high-water mark, so measuring two configurations in one interpreter would
let the first run's peak mask the second.  ``check_perf_regression.py``
therefore launches this script once per bench name and parses the one-line
JSON result from stdout::

    PYTHONPATH=src python benchmarks/memory_bench.py stream_cluster_1m
    {"name": "stream_cluster_1m", "tasks": 1000000, "seconds": ..., "peak_rss_mb": ...}

Benches:

* ``stream_cluster_1m`` — the acceptance run: one million invocations
  replayed through ``simulate_cluster`` (chunked arrivals, capped
  reservoir metrics) over a 16x8 fifo+jsq fleet.  Peak RSS is O(horizon +
  cap), independent of the task count.
* ``stream_cluster_100k`` / ``materialised_100k`` — the same fleet fed the
  same first 100k invocations lazily vs fully materialised: the before/after
  pair behind the "streaming uses a fraction of the materialised footprint"
  claim recorded in BENCH_9.json.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def _peak_rss_mb() -> float:
    """Lifetime peak resident set of this process, in MiB.

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; this repo's CI is
    Linux, and the divisor only affects the absolute figure, not the gated
    ratio, so the Linux convention is assumed.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: The replay trace behind every bench: a 3-hour, 400-function synthetic
#: Azure trace whose extraction yields ~1.12M invocations — the 1M bench
#: stops at an even million via the source's limit.
TRACE_MINUTES = 180
TRACE_FUNCTIONS = 400
MILLION = 1_000_000

#: Reservoir cap of the streaming benches: 100k sampled rows for CDFs while
#: count/mean/total/billing aggregates stay exact.
METRICS_CAP = 100_000


def _buckets():
    from repro.workload.azure import AzureTraceConfig, generate_trace
    from repro.workload.calibration import default_calibration_table
    from repro.workload.extraction import ExtractionPipeline

    trace = generate_trace(
        AzureTraceConfig(
            num_functions=TRACE_FUNCTIONS, minutes=TRACE_MINUTES, seed=42
        )
    )
    pipeline = ExtractionPipeline(calibration=default_calibration_table())
    return pipeline.run(trace)


def _fleet_config():
    from repro.cluster.config import ClusterConfig

    return ClusterConfig(
        num_nodes=16,
        cores_per_node=8,
        scheduler="fifo",
        dispatcher="jsq",
    )


def _source(limit: int):
    from repro.workload.streaming import BucketStreamSource

    return BucketStreamSource(_buckets(), minutes=TRACE_MINUTES, seed=7, limit=limit)


def run_stream(limit: int) -> int:
    from repro.cluster.simulator import simulate_cluster

    result = simulate_cluster(
        _source(limit),
        config=_fleet_config(),
        chunk=8192,
        metrics_cap=METRICS_CAP,
    )
    assert result.finished_count == limit, result.finished_count
    assert not result.tasks  # no task objects retained
    return result.finished_count


def run_materialised(limit: int) -> int:
    from repro.cluster.simulator import simulate_cluster

    tasks = _source(limit).materialise()
    result = simulate_cluster(tasks, config=_fleet_config())
    assert len(result.finished_tasks) == limit
    return len(result.finished_tasks)


BENCHES = {
    "stream_cluster_1m": lambda: run_stream(MILLION),
    "stream_cluster_100k": lambda: run_stream(100_000),
    "materialised_100k": lambda: run_materialised(100_000),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench", choices=sorted(BENCHES))
    args = parser.parse_args()

    started = time.perf_counter()
    tasks = BENCHES[args.bench]()
    seconds = time.perf_counter() - started
    print(
        json.dumps(
            {
                "name": args.bench,
                "tasks": tasks,
                "seconds": round(seconds, 3),
                "peak_rss_mb": round(_peak_rss_mb(), 1),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
