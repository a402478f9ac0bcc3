"""Declarative workload registry.

Scenarios name their workload instead of holding task lists, so a scenario
serialised to JSON can be re-run anywhere.  The canonical paper workloads
(the 2-minute and 10-minute Azure-like traces and the Firecracker invocation
subset) are registered here; experiments and users can register additional
sources with :func:`register_workload`.

Builders return *fresh* :class:`~repro.simulation.task.Task` lists on every
call (tasks carry mutable bookkeeping); the immutable columnar workload items
behind them are cached, so repeated runs of the same scenario are cheap and —
the generators being seeded — bit-identical.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Optional

from repro.simulation.task import Task
from repro.workload.azure import AzureTraceConfig, generate_trace
from repro.workload.calibration import default_calibration_table
from repro.workload.extraction import ExtractionPipeline
from repro.workload.generator import (
    PAPER_FIRECRACKER_INVOCATIONS,
    PAPER_TWO_MINUTE_INVOCATIONS,
    WorkloadGenerator,
    WorkloadItems,
    WorkloadSpec,
    items_to_tasks,
)
from repro.workload.streaming import (
    BucketStreamSource,
    StreamingWorkload,
    csv_stream_source,
    trace_stream_source,
)

WorkloadBuilder = Callable[..., List[Task]]

_WORKLOADS: Dict[str, WorkloadBuilder] = {}


def register_workload(
    name: str, builder: WorkloadBuilder, *, overwrite: bool = False
) -> None:
    """Register a workload builder under ``name``.

    Args:
        name: Registry key (e.g. ``"two_minute"``).
        builder: Callable returning a fresh task list; must accept a
            ``scale`` keyword (fraction of the canonical invocation count).
        overwrite: Allow replacing an existing registration.
    """
    key = name.lower()
    if key in _WORKLOADS and not overwrite:
        raise ValueError(f"workload {name!r} is already registered")
    _WORKLOADS[key] = builder


def available_workloads() -> List[str]:
    """Names of every registered workload, sorted."""
    return sorted(_WORKLOADS)


class StreamOnlySourceError(ValueError):
    """A scenario names a stream source but has no ``stream`` section."""


class UnknownWorkloadError(KeyError):
    """A scenario's ``workload.source`` names no registered workload."""

    def __str__(self) -> str:  # KeyError would quote the message
        return str(self.args[0])


def create_workload(name: str, **params) -> List[Task]:
    """Build a fresh task list for a registered workload."""
    key = name.lower()
    if key not in _WORKLOADS:
        if key in _STREAM_SOURCES:
            raise StreamOnlySourceError(
                f"workload.source {name!r} is a stream source: add a `stream` "
                "section to the scenario (or pass --stream-chunk) to replay it"
            )
        raise UnknownWorkloadError(
            f"workload.source names unknown workload {name!r}; available: "
            f"{', '.join(available_workloads())}"
        )
    return _WORKLOADS[key](**params)


# ---------------------------------------------------------------------------
# Canonical paper workloads
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _workload_items(minutes: int, limit: Optional[int]) -> WorkloadItems:
    """Cache workload items (immutable columns); tasks are rebuilt per run."""
    trace = generate_trace(AzureTraceConfig(minutes=max(minutes, 2)))
    pipeline = ExtractionPipeline(calibration=default_calibration_table())
    buckets = pipeline.run(trace)
    generator = WorkloadGenerator(buckets)
    return generator.generate_items(WorkloadSpec(minutes=minutes, limit=limit))


def scaled_limit(base: int, scale: float) -> int:
    """Scale an invocation count, keeping at least a small viable workload."""
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    return max(200, int(round(base * scale)))


def two_minute_workload(scale: float = 1.0) -> List[Task]:
    """Fresh tasks for the paper's 12,442-invocation (~2 minute) workload."""
    limit = scaled_limit(PAPER_TWO_MINUTE_INVOCATIONS, scale)
    return items_to_tasks(_workload_items(2, limit))


def ten_minute_workload(scale: float = 1.0) -> List[Task]:
    """Fresh tasks for the paper's 10-minute workload (utilization studies)."""
    items = _workload_items(10, None)
    if scale < 1.0:
        keep = scaled_limit(len(items), scale)
        items = items[:keep]
    return items_to_tasks(items)


def two_minute_items(scale: float = 1.0) -> WorkloadItems:
    limit = scaled_limit(PAPER_TWO_MINUTE_INVOCATIONS, scale)
    return _workload_items(2, limit)


def firecracker_invocations(scale: float = 1.0) -> List[Task]:
    """First invocations of the 10-minute workload used for Firecracker runs."""
    limit = scaled_limit(PAPER_FIRECRACKER_INVOCATIONS, scale)
    return items_to_tasks(_workload_items(10, None)[:limit])


register_workload("two_minute", two_minute_workload)
register_workload("ten_minute", ten_minute_workload)
register_workload("firecracker", firecracker_invocations)


# ---------------------------------------------------------------------------
# Shaped variants (the scenarios/ library)
# ---------------------------------------------------------------------------
#
# These reshape the canonical traces by warping arrival times with a strictly
# increasing map g(t) (task order, counts and service times are untouched, so
# summaries stay comparable across shapes) or by assigning fair-share
# weights.  All randomness is seeded — the builders are bit-identical across
# processes, which the sweep executor's determinism contract relies on.


def _warp_arrivals(tasks: List[Task], warp: Callable[[float], float]) -> List[Task]:
    """Apply a strictly increasing time warp to every arrival in place."""
    for task in tasks:
        task.arrival_time = warp(task.arrival_time)
    tasks.sort(key=lambda task: (task.arrival_time, task.task_id))
    return tasks


def bursty_workload(
    scale: float = 1.0,
    period: float = 30.0,
    burst_fraction: float = 0.2,
) -> List[Task]:
    """Two-minute trace compressed into cyclic arrival bursts.

    Each ``period``-second cycle's arrivals land inside its first
    ``burst_fraction`` — a piecewise-linear monotone warp, so the mean
    arrival rate is unchanged but the instantaneous rate peaks at
    ``1 / burst_fraction`` times the trace's.
    """
    if not 0.0 < burst_fraction <= 1.0:
        raise ValueError(
            f"burst_fraction must be in (0, 1], got {burst_fraction!r}"
        )
    if period <= 0:
        raise ValueError(f"period must be positive, got {period!r}")

    def warp(t: float) -> float:
        cycle, offset = divmod(t, period)
        return cycle * period + offset * burst_fraction

    return _warp_arrivals(two_minute_workload(scale), warp)


def diurnal_workload(
    scale: float = 1.0,
    amplitude: float = 0.8,
    cycles: float = 2.0,
) -> List[Task]:
    """Ten-minute trace reshaped into smooth peak/trough load cycles.

    Arrival times are warped by ``g(t) = t - (A*T / 2*pi*c) * sin(2*pi*c*t/T)``
    with span ``T``, amplitude ``A`` and ``c`` cycles: ``g'(t)`` ranges over
    ``[1 - A, 1 + A]``, so the instantaneous arrival rate swings by the same
    factor while ``g`` stays strictly increasing (``A < 1``) and total span
    is preserved (``g(0) = 0``, ``g(T) = T``).
    """
    if not 0.0 <= amplitude < 1.0:
        raise ValueError(f"amplitude must be in [0, 1), got {amplitude!r}")
    if cycles <= 0:
        raise ValueError(f"cycles must be positive, got {cycles!r}")
    import math

    tasks = ten_minute_workload(scale)
    span = max((task.arrival_time for task in tasks), default=0.0)
    if span <= 0.0 or amplitude == 0.0:
        return tasks
    omega = 2.0 * math.pi * cycles / span

    def warp(t: float) -> float:
        return t - (amplitude / omega) * math.sin(omega * t)

    return _warp_arrivals(tasks, warp)


def priority_tiered_workload(
    scale: float = 1.0,
    high_fraction: float = 0.1,
    high_weight: float = 4.0,
    seed: int = 31,
) -> List[Task]:
    """Two-minute trace with a seeded high-priority tier.

    A ``high_fraction`` slice of tasks (chosen by a seeded per-task draw, so
    membership is stable across runs and worker processes) gets fair-share
    weight ``high_weight``; the rest keep weight 1.0.  Meaningful under
    weight-aware schedulers (``cfs``, ``hybrid``).
    """
    if not 0.0 <= high_fraction <= 1.0:
        raise ValueError(
            f"high_fraction must be in [0, 1], got {high_fraction!r}"
        )
    if high_weight <= 0:
        raise ValueError(f"high_weight must be positive, got {high_weight!r}")
    import random

    rng = random.Random(seed)
    tasks = two_minute_workload(scale)
    for task in tasks:
        if rng.random() < high_fraction:
            task.weight = high_weight
    return tasks


register_workload("bursty", bursty_workload)
register_workload("diurnal", diurnal_workload)
register_workload("priority_tiered", priority_tiered_workload)


# ---------------------------------------------------------------------------
# Streaming sources
# ---------------------------------------------------------------------------
#
# Streaming builders return a StreamingWorkload (lazy per-minute batches,
# bounded memory) instead of a task list.  They use window-local RNG streams
# (see repro.workload.streaming), so a streaming source's materialise() is
# its own equivalence reference — not byte-identical to the sequential
# ``two_minute``/``ten_minute`` task lists above, which stay untouched.

StreamSourceBuilder = Callable[..., StreamingWorkload]

_STREAM_SOURCES: Dict[str, StreamSourceBuilder] = {}

#: Canonical invocation count of the large-scale replay source (``azure_day``
#: at scale 1.0): a full million invocations.
AZURE_DAY_INVOCATIONS = 1_000_000


def register_stream_source(
    name: str, builder: StreamSourceBuilder, *, overwrite: bool = False
) -> None:
    """Register a streaming-workload builder under ``name``.

    Builders must accept a ``scale`` keyword and return a fresh
    :class:`~repro.workload.streaming.StreamingWorkload`.
    """
    key = name.lower()
    if key in _STREAM_SOURCES and not overwrite:
        raise ValueError(f"stream source {name!r} is already registered")
    _STREAM_SOURCES[key] = builder


def available_stream_sources() -> List[str]:
    """Names of every registered streaming source, sorted."""
    return sorted(_STREAM_SOURCES)


def create_stream_source(name: str, **params) -> StreamingWorkload:
    """Build a fresh streaming source from the registry."""
    key = name.lower()
    if key not in _STREAM_SOURCES:
        raise KeyError(
            f"unknown stream source {name!r}; available: "
            + ", ".join(available_stream_sources())
        )
    return _STREAM_SOURCES[key](**params)


@lru_cache(maxsize=8)
def _trace_buckets(minutes: int, num_functions: int, seed: int) -> tuple:
    """Cache extracted buckets (immutable); sources are rebuilt per run."""
    trace = generate_trace(
        AzureTraceConfig(
            num_functions=num_functions, minutes=max(minutes, 2), seed=seed
        )
    )
    pipeline = ExtractionPipeline(calibration=default_calibration_table())
    return tuple(pipeline.run(trace))


def two_minute_stream(scale: float = 1.0, seed: int = 7) -> StreamingWorkload:
    """Streaming analogue of the 2-minute workload."""
    limit = scaled_limit(PAPER_TWO_MINUTE_INVOCATIONS, scale)
    buckets = list(_trace_buckets(2, 2000, 42))
    return BucketStreamSource(buckets, minutes=2, seed=seed, limit=limit)


def ten_minute_stream(scale: float = 1.0, seed: int = 7) -> StreamingWorkload:
    """Streaming analogue of the 10-minute workload."""
    buckets = list(_trace_buckets(10, 2000, 42))
    source = BucketStreamSource(buckets, minutes=10, seed=seed)
    if scale < 1.0:
        limit = scaled_limit(source.total_hint(), scale)
        source = BucketStreamSource(buckets, minutes=10, seed=seed, limit=limit)
    return source


def azure_day_stream(scale: float = 1.0, seed: int = 7) -> StreamingWorkload:
    """Large-scale replay source: ~1M invocations over a 3-hour trace."""
    limit = scaled_limit(AZURE_DAY_INVOCATIONS, scale)
    buckets = list(_trace_buckets(180, 400, 42))
    return BucketStreamSource(buckets, minutes=180, seed=seed, limit=limit)


register_stream_source("two_minute", two_minute_stream)
register_stream_source("ten_minute", ten_minute_stream)
register_stream_source("azure_day", azure_day_stream)


def build_stream_source(workload, stream, seed: Optional[int] = None):
    """Resolve a scenario's (workload, stream) pair to a streaming source.

    A :class:`~repro.workload.streaming.StreamSpec` carrying ``trace_csv``
    replays that CSV file; otherwise the workload's ``source`` name is looked
    up in the stream-source registry.
    """
    if stream.trace_csv is not None:
        kwargs = {} if seed is None else {"seed": seed}
        return csv_stream_source(stream.trace_csv, **kwargs)
    if workload is None:
        raise ValueError(
            "streaming scenarios need a workload source name or a trace_csv"
        )
    params = dict(workload.params)
    if seed is not None:
        params.setdefault("seed", seed)
    return create_stream_source(workload.source, scale=workload.scale, **params)
