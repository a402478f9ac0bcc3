"""Hot-path microbenchmark workloads.

Shared by ``test_bench_hotpath.py`` (pytest-benchmark timings), the CI
perf-smoke gate (``check_perf_regression.py``) and the ``BENCH_3.json`` /
``BENCH_4.json`` baseline captures.  Two workloads target the two hot paths
the virtual-time refactor rewrote:

* **engine** — one CFS machine at multiprogramming level *mp* per core:
  every event used to touch all ``mp`` tasks on the core (O(n) sync + O(n)
  next-completion scan); virtual time makes both O(log n).
* **dispatcher** — a JSQ cluster of *n* single-core nodes: every arrival
  used to scan all ``n`` nodes; the incrementally maintained load index
  makes the pick O(log n).
* **dispatcher_rtt** — the same JSQ cluster under a non-zero-RTT
  :class:`~repro.cluster.config.NetworkSpec` (the ``BENCH_5.json`` case):
  every dispatch now routes through a per-node ingress queue — one extra
  arrival-priority event plus two load-index touches per task — which is
  the dispatch-with-delay hot path this bench gates.

A third family targets result aggregation (the ``BENCH_4.json`` columnar
refactor): summarising N finished tasks via the pre-refactor per-metric
Python lists (**metrics_list**) vs reading the incrementally filled columnar
store (**metrics_columnar**).

**engine_mp512_traced** (the ``BENCH_6.json`` case) re-runs the MP-512
engine bench with full telemetry on — lifecycle spans plus a periodic gauge
sampler — to pin the tracing-on cost; the telemetry-*off* overhead is gated
by re-checking the plain ``engine_mp512`` / ``dispatcher_rtt_512nodes``
benches against the same file.

**dispatcher_mw_512nodes** (the ``BENCH_7.json`` case) runs the 512-node
RTT bench through a two-middleware chain (a never-rejecting admission cap
plus an SLO tracker) to pin the middleware-*on* dispatch cost; the
middleware-*off* path is gated by re-checking ``engine_mp512`` and
``dispatcher_rtt_512nodes`` against their BENCH_5/6 baselines, asserting an
empty chain adds nothing.

**dispatcher_chaos_512nodes** (the ``BENCH_8.json`` case) runs the 512-node
RTT bench with seeded spot revocations and work stealing enabled — nodes
drain, queued work is rescued, kills land mid-run — to pin the chaos-*on*
dispatch cost; the chaos-*off* path is gated by re-checking ``engine_mp512``
and ``dispatcher_rtt_512nodes`` against the same baselines, asserting an
absent injector adds nothing.

Workloads are seeded and deterministic so timings measure the engine, not
the workload draw.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, Tuple

import numpy as np

from repro.cluster import ClusterConfig, NetworkSpec, simulate_cluster
from repro.schedulers.cfs import CFSScheduler
from repro.simulation.columns import TaskColumns
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import simulate
from repro.simulation.task import Task

#: Multiprogramming levels (tasks per core) swept by the engine microbench.
ENGINE_MP_LEVELS = (1, 8, 64, 512)

#: Fleet sizes swept by the dispatcher microbench.
DISPATCHER_NODE_COUNTS = (4, 64, 512)

ENGINE_CORES = 4
TOTAL_WORK_PER_CORE = 2.0  # seconds of service per core, split across mp tasks


def engine_tasks(mp: int, cores: int = ENGINE_CORES) -> list:
    """``mp * cores`` tasks all arriving in one burst (peak multiprogramming).

    Service times ramp linearly (spread ~2x) so completions interleave and
    the next-completion structure is genuinely exercised rather than hit by
    one simultaneous batch.
    """
    count = mp * cores
    base = TOTAL_WORK_PER_CORE / (mp * 1.5)
    return [
        Task(
            task_id=i,
            arrival_time=i * 1e-7,
            service_time=base * (1.0 + i / count),
        )
        for i in range(count)
    ]


def run_engine_bench(mp: int, cores: int = ENGINE_CORES):
    """One CFS run at multiprogramming level ``mp``; returns the result."""
    result = simulate(
        CFSScheduler(),
        engine_tasks(mp, cores),
        config=SimulationConfig(num_cores=cores, record_utilization=False),
    )
    assert len(result.finished_tasks) == mp * cores
    return result


def dispatcher_tasks(num_nodes: int, per_node: int = 4) -> list:
    """Short tasks arriving fast enough to keep most nodes loaded."""
    count = num_nodes * per_node
    service = 0.05
    spacing = service / (2.0 * num_nodes)
    return [
        Task(task_id=i, arrival_time=i * spacing, service_time=service)
        for i in range(count)
    ]


def run_dispatcher_bench(num_nodes: int):
    """One JSQ cluster run over ``num_nodes`` single-core nodes."""
    config = ClusterConfig(
        num_nodes=num_nodes,
        cores_per_node=1,
        scheduler="fifo",
        dispatcher="jsq",
    )
    result = simulate_cluster(dispatcher_tasks(num_nodes), config=config)
    assert len(result.tasks) == num_nodes * 4
    return result


#: Wire RTT of the dispatch-with-delay bench: small against the 0.05 s
#: service time so the run stays load-shaped like the zero-RTT bench while
#: every task crosses an ingress queue.
DISPATCHER_RTT = 0.01


def run_dispatcher_rtt_bench(num_nodes: int):
    """One JSQ cluster run with a non-zero dispatcher→node RTT."""
    config = ClusterConfig(
        num_nodes=num_nodes,
        cores_per_node=1,
        scheduler="fifo",
        dispatcher="jsq",
        network=NetworkSpec(rtt=DISPATCHER_RTT),
    )
    result = simulate_cluster(dispatcher_tasks(num_nodes), config=config)
    assert len(result.tasks) == num_nodes * 4
    assert result.tasks_ingressed() == num_nodes * 4
    return result


def run_dispatcher_mw_bench(num_nodes: int):
    """The RTT dispatcher bench through a middleware chain (mw-on cost).

    Admission with an unreachable cap plus an SLO tracker: every task pays
    one ``on_dispatch`` sweep (a fleet backlog scan) and one ``on_complete``
    hook — the heaviest observation-only chain shape — without any verdict
    changing the run.
    """
    from repro.middleware import AdmissionControlMiddleware, SLOTrackerMiddleware

    config = ClusterConfig(
        num_nodes=num_nodes,
        cores_per_node=1,
        scheduler="fifo",
        dispatcher="jsq",
        network=NetworkSpec(rtt=DISPATCHER_RTT),
    )
    result = simulate_cluster(
        dispatcher_tasks(num_nodes),
        config=config,
        middleware=[
            AdmissionControlMiddleware(max_queue_depth=10**9),
            SLOTrackerMiddleware(target=60.0),
        ],
    )
    assert len(result.finished_tasks) == num_nodes * 4
    assert result.tasks_rejected == 0
    return result


def run_dispatcher_chaos_bench(num_nodes: int):
    """The RTT dispatcher bench with seeded revocations (chaos-on cost).

    Spot-style revocations with a short warning window over the same fleet
    and workload as the plain RTT bench, with work stealing rescuing the
    drained nodes' backlogs.  The budget keeps the fleet large enough that
    the run stays load-shaped like the chaos-off bench while every chaos
    code path (warnings, drains, rescue passes, kills, lost-task
    re-admission) is exercised at the 512-node scale.
    """
    from repro.chaos import ChaosSpec

    config = ClusterConfig(
        num_nodes=num_nodes,
        cores_per_node=1,
        scheduler="fifo",
        dispatcher="jsq",
        network=NetworkSpec(rtt=DISPATCHER_RTT),
        migration="work_stealing",
        migration_kwargs={"interval": 0.05},
        chaos=ChaosSpec(revocation_rate=0.2, warning=0.05, max_failures=16),
    )
    result = simulate_cluster(dispatcher_tasks(num_nodes), config=config)
    assert len(result.tasks) == num_nodes * 4
    assert result.completion_ratio == 1.0
    assert result.nodes_failed > 0
    return result


def run_engine_traced_bench(mp: int = 512, cores: int = ENGINE_CORES):
    """The MP-512 engine bench with full telemetry on (the tracing-on cost).

    Spans for every queue wait and run slice plus a 0.05 s gauge sampler —
    the worst case for tracing overhead, since CFS at high multiprogramming
    preempts constantly and every slice becomes a span.  The telemetry-*off*
    cost of the same run is the plain ``engine_mp512`` bench: the off path
    is gated separately so instrumentation stays free when disabled.
    """
    from repro.telemetry import TelemetrySpec

    result = simulate(
        CFSScheduler(),
        engine_tasks(mp, cores),
        config=SimulationConfig(num_cores=cores, record_utilization=False),
        telemetry=TelemetrySpec(sample_interval=0.05),
    )
    assert len(result.finished_tasks) == mp * cores
    assert result.telemetry is not None and result.telemetry.span_count > 0
    return result


def run_object_churn(count: int = 50_000) -> int:
    """Allocation churn for the ``__slots__`` satellite: tasks + queue events."""
    from repro.simulation.events import EventQueue

    queue = EventQueue()
    for i in range(count):
        task = Task(task_id=i, arrival_time=float(i), service_time=1.0)
        queue.push(task.arrival_time, None, tag="arrival", payload=task)
    popped = 0
    while queue.pop() is not None:
        popped += 1
    return popped


# --------------------------------------------------------------------------
# Metrics-aggregation microbench (list-based vs columnar)
# --------------------------------------------------------------------------

#: Finished-task counts swept by the metrics microbench.
METRICS_TASK_COUNTS = (10_000, 100_000)


def metrics_tasks(count: int) -> list:
    """``count`` deterministic finished tasks (no engine run needed)."""
    tasks = []
    for i in range(count):
        arrival = i * 1e-3
        service = 0.05 + (i % 97) * 0.01
        task = Task(task_id=i, arrival_time=arrival, service_time=service)
        task.mark_running(arrival + 0.002 + (i % 7) * 1e-4, core_id=i % 48)
        task.account_service(service)
        task.mark_finished(arrival + 0.002 + service)
        tasks.append(task)
    return tasks


#: (tasks, prefilled columnar store) per size, built once: the store is what
#: the collector has already accumulated by the end of a run, so the timed
#: region measures *aggregation*, which is exactly what ``from_tasks``
#: re-did from scratch per summary before the columnar refactor.
_METRICS_FIXTURES: Dict[int, tuple] = {}


def _metrics_fixture(count: int) -> tuple:
    if count not in _METRICS_FIXTURES:
        tasks = metrics_tasks(count)
        _METRICS_FIXTURES[count] = (tasks, TaskColumns.from_tasks(tasks))
    return _METRICS_FIXTURES[count]


def _list_based_summary(tasks: list) -> dict:
    """The pre-columnar aggregation path, preserved for the before/after.

    One Python list (and array conversion) per metric, exactly as
    ``TaskMetricsSummary.from_tasks`` + the result accessors built them
    before the columnar store.
    """
    finished = [t for t in tasks if t.is_finished]
    execution = np.array([t.execution_time for t in finished])
    response = np.array([t.response_time for t in finished])
    turnaround = np.array([t.turnaround_time for t in finished])
    return {
        "count": len(finished),
        "mean_execution": float(execution.mean()),
        "p99_execution": float(np.percentile(execution, 99)),
        "p99_response": float(np.percentile(response, 99)),
        "p99_turnaround": float(np.percentile(turnaround, 99)),
        "total_execution": float(execution.sum()),
        "total_service": float(sum(t.service_time for t in finished)),
        "makespan": float(max(t.completion_time for t in finished)),
    }


def run_metrics_list(count: int) -> dict:
    """List-based aggregation over ``count`` finished tasks."""
    tasks, _ = _metrics_fixture(count)
    return _list_based_summary(tasks)


def run_metrics_columnar(count: int):
    """Columnar aggregation over the same ``count`` finished tasks."""
    _, columns = _metrics_fixture(count)
    summary = columns.summary()
    assert summary.count == count
    return summary


#: Repeats for the CI-gated columnar bench: one 100k aggregation is ~5 ms,
#: too noise-sensitive for a blocking 25% threshold on shared runners, so
#: the gate times this many back-to-back aggregations (~50 ms of work).
METRICS_GATE_REPEATS = 10


def run_metrics_columnar_gate(count: int = 100_000):
    """``METRICS_GATE_REPEATS`` columnar aggregations (the perf-smoke gate)."""
    summary = None
    for _ in range(METRICS_GATE_REPEATS):
        summary = run_metrics_columnar(count)
    return summary


def _metrics_label(count: int) -> str:
    return f"{count // 1000}k"


# --------------------------------------------------------------------------
# Streaming trace-replay bench (the BENCH_9.json case)
# --------------------------------------------------------------------------

#: Tasks fed by the gated streaming bench (~250 ms of work).
STREAM_BENCH_TASKS = 5_000

#: Extracted trace buckets, built once: the extraction pipeline is the same
#: for streaming and materialised runs, so the timed region measures arrival
#: generation + chunked feeding + the capped columnar store — the three
#: layers the streaming refactor added.
_STREAM_BUCKETS: list = []


def _stream_buckets() -> list:
    if not _STREAM_BUCKETS:
        from repro.workload.azure import AzureTraceConfig, generate_trace
        from repro.workload.calibration import default_calibration_table
        from repro.workload.extraction import ExtractionPipeline

        trace = generate_trace(
            AzureTraceConfig(num_functions=400, minutes=12, seed=42)
        )
        pipeline = ExtractionPipeline(calibration=default_calibration_table())
        _STREAM_BUCKETS.extend(pipeline.run(trace))
    return _STREAM_BUCKETS


def run_stream_cluster_bench(limit: int = STREAM_BENCH_TASKS):
    """One streaming cluster replay: lazy arrivals, chunked feeding, capped
    reservoir metrics — the full bounded-memory path at a CI-sized scale."""
    from repro.cluster.simulator import simulate_cluster
    from repro.workload.streaming import BucketStreamSource

    source = BucketStreamSource(_stream_buckets(), minutes=12, seed=7, limit=limit)
    config = ClusterConfig(
        num_nodes=8,
        cores_per_node=4,
        scheduler="fifo",
        dispatcher="jsq",
    )
    result = simulate_cluster(
        source, config=config, chunk=1024, metrics_cap=2048
    )
    assert result.finished_count == limit
    assert not result.tasks  # streaming runs retain no task objects
    return result


#: The BENCH_10 reference sweep: 16 single-machine points (4 core counts x
#: 4 schedulers) over the quarter-scale two-minute workload — the shipped
#: ``scenarios/reference_sweep.json``.  Each point is a few hundred
#: milliseconds of simulation, big enough to amortise pool startup, so the
#: jobs=4 run measures genuine fan-out speedup rather than fork overhead.
REFERENCE_SWEEP_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    os.pardir,
    "scenarios",
    "reference_sweep.json",
)


def run_sweep_bench(jobs: int = 1):
    """The reference 16-point sweep through ``run_sweep`` at ``jobs`` workers."""
    from repro.sweep import SweepSpec, run_sweep

    with open(REFERENCE_SWEEP_PATH) as handle:
        spec = SweepSpec.from_json(handle.read())
    table = run_sweep(spec, jobs=jobs)
    assert len(table.rows) == 16
    return table


BENCHES: Dict[str, Callable[[], object]] = {
    **{f"engine_mp{mp}": (lambda mp=mp: run_engine_bench(mp)) for mp in ENGINE_MP_LEVELS},
    **{
        f"dispatcher_{n}nodes": (lambda n=n: run_dispatcher_bench(n))
        for n in DISPATCHER_NODE_COUNTS
    },
    **{
        f"dispatcher_rtt_{n}nodes": (lambda n=n: run_dispatcher_rtt_bench(n))
        for n in DISPATCHER_NODE_COUNTS
    },
    "engine_mp512_traced": run_engine_traced_bench,
    "dispatcher_mw_512nodes": lambda: run_dispatcher_mw_bench(512),
    "dispatcher_chaos_512nodes": lambda: run_dispatcher_chaos_bench(512),
    "object_churn": run_object_churn,
    **{
        f"metrics_list_{_metrics_label(n)}": (lambda n=n: run_metrics_list(n))
        for n in METRICS_TASK_COUNTS
    },
    **{
        f"metrics_columnar_{_metrics_label(n)}": (lambda n=n: run_metrics_columnar(n))
        for n in METRICS_TASK_COUNTS
    },
    "metrics_columnar_100k_x10": run_metrics_columnar_gate,
    "stream_cluster_5k": run_stream_cluster_bench,
    "sweep_16pt_serial": lambda: run_sweep_bench(jobs=1),
    "sweep_16pt_jobs4": lambda: run_sweep_bench(jobs=4),
}


def time_bench(name: str, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall-clock seconds for one named bench."""
    fn = BENCHES[name]
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def calibration_units() -> float:
    """Seconds for a fixed pure-Python workload on this host.

    Dividing bench timings by this figure yields host-independent
    "calibration units", which is what the committed baseline stores — a
    25% regression gate on raw wall-clock would trip on any slower CI
    runner.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(2_000_000):
            acc += i & 7
        best = min(best, time.perf_counter() - start)
    assert acc >= 0
    return best


def measure_all(repeats: int = 3) -> Tuple[Dict[str, float], float]:
    """(seconds per bench, calibration seconds) for this host."""
    cal = calibration_units()
    return {name: time_bench(name, repeats) for name in BENCHES}, cal
