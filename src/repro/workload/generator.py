"""Workload generation (§V-B "Workload Generation").

From the downscaled trace buckets, the generator computes per-minute
inter-arrival times (each bucket's invocations arrive at regular intervals
within their minute), merges and sorts all invocations, and emits them as
:class:`WorkloadItems` (four sorted columns) or as
:class:`~repro.simulation.task.Task` objects.

Convenience builders reproduce the two workloads the paper uses:

* :func:`paper_workload_2min` — the first 12,442 invocations (~2 minutes),
  used for all headline comparisons.
* :func:`paper_workload_10min` — the first 10 minutes, used for the
  utilization / rightsizing studies and the Firecracker runs.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from math import inf
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.simulation.task import Task
from repro.spec import Spec, validate
from repro.workload.azure import AzureTraceConfig, SyntheticAzureTrace, generate_trace
from repro.workload.calibration import CalibrationTable, default_calibration_table
from repro.workload.extraction import ExtractionPipeline, TraceBucket

#: The checks one workload item and a whole column share: ``(field, test,
#: rule)``.  Each test takes a number or a numpy array; comparisons are False
#: for NaN, so non-finite values fail too.
_ITEM_CHECKS = (
    ("arrival_time", lambda v: (0.0 <= v) & (v < inf), "finite, >= 0"),
    ("duration", lambda v: (0.0 < v) & (v < inf), "positive and finite"),
    ("memory_mb", lambda v: v > 0, "positive"),
)


@dataclass(frozen=True)
class WorkloadItem:
    """One line of the workload file: when to launch which Fibonacci call."""

    arrival_time: float
    fibonacci_n: int
    duration: float
    memory_mb: int

    def __post_init__(self) -> None:
        for name, test, rule in _ITEM_CHECKS:
            value = getattr(self, name)
            if not test(value):
                raise ValueError(f"{name} must be {rule}, got {value!r}")


class WorkloadItems(SequenceABC):
    """Workload items held as four columns, one Python tuple per field.

    The constructor takes the ``arrival_time``, ``fibonacci_n``, ``duration``
    and ``memory_mb`` columns (arrays or sequences of equal length), runs
    :class:`WorkloadItem`'s checks once per column, with the same messages,
    and keeps the values as Python floats and ints.  Indexing and iteration
    yield :class:`WorkloadItem` objects built on demand; a slice is another
    ``WorkloadItems`` over the same value objects.  :func:`items_to_tasks`
    reads :attr:`columns` directly, so no per-item object is kept and every
    task list built from one ``WorkloadItems`` shares its float objects.
    """

    __slots__ = ("columns",)

    def __init__(self, arrival_time, fibonacci_n, duration, memory_mb) -> None:
        arrays = {
            "arrival_time": np.asarray(arrival_time),
            "fibonacci_n": np.asarray(fibonacci_n),
            "duration": np.asarray(duration),
            "memory_mb": np.asarray(memory_mb),
        }
        lengths = {name: len(array) for name, array in arrays.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"workload columns differ in length: {lengths}")
        for name, test, rule in _ITEM_CHECKS:
            values = arrays[name]
            bad = np.flatnonzero(~test(values))
            if bad.size:
                raise ValueError(f"{name} must be {rule}, got {values[bad[0]].item()!r}")
        #: ``(arrival_time, fibonacci_n, duration, memory_mb)`` tuples.
        self.columns = tuple(tuple(array.tolist()) for array in arrays.values())

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            part = object.__new__(WorkloadItems)
            part.columns = tuple(column[index] for column in self.columns)
            return part
        return WorkloadItem(*(column[index] for column in self.columns))

    def __iter__(self) -> Iterator[WorkloadItem]:
        return map(WorkloadItem, *self.columns)


@dataclass(frozen=True)
class WorkloadSpec(Spec):
    """What slice of the trace to turn into a workload."""

    minutes: int = 2
    limit: Optional[int] = None
    seed: int = 7
    duration_jitter: float = 0.0

    def __post_init__(self) -> None:
        validate(self)
        if self.minutes <= 0:
            raise ValueError(f"minutes must be positive, got {self.minutes!r}")
        if self.limit is not None and self.limit <= 0:
            raise ValueError(f"limit must be positive when set, got {self.limit!r}")
        if not 0 <= self.duration_jitter < 1:
            raise ValueError(
                f"duration_jitter must be in [0, 1), got {self.duration_jitter!r}"
            )


def bucket_cell(
    bucket: TraceBucket, minute: int, rng, duration_jitter: float
) -> Optional[Tuple[np.ndarray, ...]]:
    """One bucket's invocations in one minute as column arrays (None if idle).

    Arrivals are evenly spaced within the minute.  ``rng`` is a Generator or
    a seed for one, built only for a busy cell.  It draws every memory size,
    then (with jitter) every duration factor: the same draws in the same
    order as drawing one invocation at a time.
    """
    count = bucket.invocations_in_minute(minute)
    if count <= 0:
        return None
    rng = np.random.default_rng(rng)
    memory = rng.choice(
        np.array(bucket.memory_sizes_mb or [128]),
        size=count,
        p=np.array(bucket.memory_weights or [1.0]),
    ).astype(np.int64, copy=False)
    if duration_jitter > 0:
        factor = 1.0 + rng.uniform(-duration_jitter, duration_jitter, size=count)
        duration = bucket.duration * factor
    else:
        duration = np.full(count, float(bucket.duration))
    arrival = minute * 60.0 + np.arange(count) * (60.0 / count)
    return arrival, np.full(count, bucket.fibonacci_n, dtype=np.int64), duration, memory


def sorted_columns(
    cells: Iterable[Optional[tuple]], limit: Optional[int] = None
) -> List[np.ndarray]:
    """Merge cells into ``[arrival_time, fibonacci_n, duration, memory_mb]`` arrays.

    Rows are sorted by ``(arrival_time, fibonacci_n)`` with ties in cell order
    (``np.lexsort`` is stable) and cut at ``limit``.
    """
    cells = [cell for cell in cells if cell is not None]
    if not cells:
        return [np.empty(0)] * 4
    columns = [np.concatenate(column) for column in zip(*cells)]
    order = np.lexsort((columns[1], columns[0]))[:limit]
    return [column[order] for column in columns]


class WorkloadGenerator:
    """Turns trace buckets into sorted, columnar workload items or tasks."""

    def __init__(self, buckets: Sequence[TraceBucket]) -> None:
        if not buckets:
            raise ValueError("the workload generator needs at least one trace bucket")
        self.buckets = list(buckets)

    # ------------------------------------------------------------------ items

    def generate_items(self, spec: WorkloadSpec) -> WorkloadItems:
        """Workload items for the first ``spec.minutes`` minutes, as columns."""
        rng = np.random.default_rng(spec.seed)
        cells = (
            bucket_cell(bucket, minute, rng, spec.duration_jitter)
            for bucket in self.buckets
            for minute in range(spec.minutes)
        )
        return WorkloadItems(*sorted_columns(cells, spec.limit))

    def generate_tasks(self, spec: WorkloadSpec) -> List[Task]:
        """Generate :class:`Task` objects ready to submit to a simulator."""
        return items_to_tasks(self.generate_items(spec))

    # ------------------------------------------------------------- statistics

    def duration_percentile(self, percentile: float, minutes: Optional[int] = None) -> float:
        """Invocation-weighted duration percentile of the generated workload.

        The paper's fixed FIFO limit (1,633 ms) is the 90th percentile of its
        sampled workload; this helper lets experiments derive the same kind
        of limit from the generated workload.
        """
        durations = []
        weights = []
        for bucket in self.buckets:
            counts = bucket.per_minute_counts
            if minutes is not None:
                counts = counts[:minutes]
            weight = float(np.asarray(counts).sum())
            if weight > 0:
                durations.append(bucket.duration)
                weights.append(weight)
        if not durations:
            raise ValueError("no invocations in the requested window")
        order = np.argsort(durations)
        durations_arr = np.array(durations)[order]
        weights_arr = np.array(weights)[order]
        cumulative = np.cumsum(weights_arr) / weights_arr.sum()
        index = int(np.searchsorted(cumulative, percentile / 100.0))
        index = min(index, len(durations_arr) - 1)
        return float(durations_arr[index])


def rows_to_tasks(rows: Iterable[tuple], first_task_id: int = 0) -> List[Task]:
    """Tasks from sorted ``(arrival_time, fibonacci_n, duration, memory_mb)`` rows.

    Ids follow row order from ``first_task_id``.  Each task's ``function_id``
    names the serverless function it is an invocation of (same Fibonacci
    argument and memory size ⇒ same function); locality-aware cluster
    dispatchers route on it so repeat invocations land on the same node.
    All invocations of one function share one ``name`` and one
    ``function_id`` string.  No task gets a metadata dict here: the first
    write (node delivery, retries, checkpointing) allocates its own.
    """
    labels: Dict[tuple, tuple] = {}
    tasks: List[Task] = []
    for task_id, (arrival, fibonacci_n, duration, memory_mb) in enumerate(rows, first_task_id):
        label = labels.get((fibonacci_n, memory_mb))
        if label is None:
            name = f"fib({fibonacci_n})"
            label = labels[fibonacci_n, memory_mb] = (name, f"{name}/{memory_mb}mb")
        tasks.append(
            Task(task_id, arrival, duration, memory_mb, label[0], fibonacci_n,
                 function_id=label[1])
        )
    return tasks


def items_to_tasks(items: Sequence[WorkloadItem]) -> List[Task]:
    """Convert workload items into simulator tasks (ids follow arrival order).

    :class:`WorkloadItems` are read column by column, without building an
    item per row.
    """
    if isinstance(items, WorkloadItems):
        return rows_to_tasks(zip(*items.columns))
    return rows_to_tasks(
        (item.arrival_time, item.fibonacci_n, item.duration, item.memory_mb)
        for item in items
    )


# --------------------------------------------------------------------------
# Convenience builders matching the paper's workloads
# --------------------------------------------------------------------------

#: Number of invocations in the paper's two-minute workload.
PAPER_TWO_MINUTE_INVOCATIONS = 12_442

#: Number of microVMs the paper's server fits for the Firecracker experiment.
PAPER_FIRECRACKER_INVOCATIONS = 2_952


def build_workload(
    minutes: int,
    limit: Optional[int] = None,
    trace_config: Optional[AzureTraceConfig] = None,
    calibration: Optional[CalibrationTable] = None,
    downscale_factor: float = 100.0,
    seed: int = 7,
) -> List[Task]:
    """Full pipeline: synthesise trace → extract buckets → generate tasks."""
    trace_cfg = trace_config or AzureTraceConfig(minutes=max(minutes, 2))
    trace = generate_trace(trace_cfg)
    pipeline = ExtractionPipeline(
        calibration=calibration or default_calibration_table(),
        downscale_factor=downscale_factor,
    )
    buckets = pipeline.run(trace)
    generator = WorkloadGenerator(buckets)
    return generator.generate_tasks(WorkloadSpec(minutes=minutes, limit=limit, seed=seed))


def paper_workload_2min(
    limit: int = PAPER_TWO_MINUTE_INVOCATIONS, seed: int = 7
) -> List[Task]:
    """The first ~12,442 invocations (≈ 2 minutes) — the headline workload."""
    trace_cfg = AzureTraceConfig(minutes=2)
    return build_workload(minutes=2, limit=limit, trace_config=trace_cfg, seed=seed)


def paper_workload_10min(limit: Optional[int] = None, seed: int = 7) -> List[Task]:
    """The first 10 minutes — used for utilization and Firecracker studies."""
    trace_cfg = AzureTraceConfig(minutes=10)
    return build_workload(minutes=10, limit=limit, trace_config=trace_cfg, seed=seed)


def scaled_workload(
    num_tasks: int,
    minutes: int = 2,
    seed: int = 7,
    num_cores_hint: int = 50,
) -> List[Task]:
    """A smaller workload with the same shape, for tests and quick examples.

    The trace volume is scaled so that roughly ``num_tasks`` invocations fall
    in the requested window, keeping the duration mix and burstiness of the
    full workload while staying fast enough for unit tests.
    """
    if num_tasks <= 0:
        raise ValueError(f"num_tasks must be positive, got {num_tasks!r}")
    target = num_tasks * 100
    trace_cfg = AzureTraceConfig(
        minutes=max(minutes, 2),
        num_functions=max(50, min(2000, num_tasks)),
        target_invocations_first_two_minutes=max(200, int(target * 2 / max(minutes, 2))),
    )
    return build_workload(
        minutes=minutes, limit=num_tasks, trace_config=trace_cfg, seed=seed
    )
