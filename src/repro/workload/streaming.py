"""Streaming arrival sources for trace replay at the million-invocation scale.

The classic path (:class:`~repro.workload.generator.WorkloadGenerator`)
materialises every invocation as a :class:`~repro.simulation.task.Task` up
front, which puts a full Azure-trace day out of reach on ordinary hardware.
This module provides the lazy alternative:

* :class:`StreamingWorkload` — the protocol the simulators' ``submit_stream``
  accepts: tasks are produced in per-sim-time-window batches, so only a
  bounded horizon of arrivals ever exists at once.
* :class:`BucketStreamSource` — replays the extraction pipeline's
  :class:`~repro.workload.extraction.TraceBucket` rows one trace minute at a
  time.  Each ``(bucket, minute)`` cell draws from its own seeded RNG stream,
  so the emitted tasks do not depend on chunk sizes or how far the consumer
  has read — ``materialise()`` and any chunking of ``batches()`` yield the
  exact same workload.
* :func:`load_invocation_csv` / :func:`csv_stream_source` — ingestion of the
  real Azure per-minute invocation-count CSV format (``HashOwner, HashApp,
  HashFunction, Trigger, "1", "2", ..., "1440"``), through pandas when it is
  installed and a stdlib ``csv`` fallback otherwise.
* :class:`StreamSpec` — the JSON-serialisable knobs (chunk size, metrics
  cap/policy, trace CSV) a :class:`~repro.scenario.scenario
  .Scenario` carries to opt a run into the streaming path.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

try:  # pragma: no cover - exercised only where pandas is installed
    import pandas as _pd
except ImportError:  # pragma: no cover - the stdlib fallback is the tested path
    _pd = None

from repro.simulation.task import Task
from repro.spec import Spec, validate
from repro.workload.azure import AzureTraceConfig, FunctionProfile, SyntheticAzureTrace
from repro.workload.calibration import CalibrationTable, default_calibration_table
from repro.workload.extraction import ExtractionPipeline, TraceBucket
from repro.workload.generator import WorkloadSpec, bucket_cell, rows_to_tasks, sorted_columns

#: Metrics-cap policies understood by :func:`repro.simulation.columns
#: .build_columns_store` (validated here so a bad spec fails at parse time).
METRICS_POLICIES = ("reservoir", "spill")


class StreamingWorkload:
    """Protocol for lazy arrival sources (duck-typed; subclassing optional).

    ``batches()`` yields lists of :class:`Task` in globally non-decreasing
    ``arrival_time`` order; a batch may be empty (an idle window).  Each call
    to ``batches()`` starts an independent replay producing fresh ``Task``
    objects (tasks are mutable run state, so one iterator's tasks must never
    be reused by another run).
    """

    def total_hint(self) -> Optional[int]:
        """Total task count if cheaply known, else ``None``."""
        raise NotImplementedError

    def batches(self) -> Iterator[List[Task]]:
        """Yield per-window task batches in arrival order."""
        raise NotImplementedError

    def materialise(self) -> List[Task]:
        """The whole workload as one list — the reference for equivalence."""
        return list(itertools.chain.from_iterable(self.batches()))


@dataclass(frozen=True)
class StreamSpec(Spec):
    """How a :class:`~repro.scenario.scenario.Scenario` replays a stream.

    ``chunk`` is how many tasks the arrival cursor holds at a time (see
    ``submit_stream``); ``metrics_cap``/``metrics_policy``/``spill_dir``
    bound the columnar metrics store; ``trace_csv`` replaces the scenario's
    registered workload with a real Azure invocation-count CSV.
    """

    chunk: int = 8192
    metrics_cap: Optional[int] = None
    metrics_policy: str = "reservoir"
    spill_dir: Optional[str] = None
    trace_csv: Optional[str] = None

    def __post_init__(self) -> None:
        validate(self)
        if self.chunk <= 0:
            raise ValueError(f"chunk must be positive, got {self.chunk!r}")
        if self.metrics_cap is not None and self.metrics_cap <= 0:
            raise ValueError(
                f"metrics_cap must be positive when set, got {self.metrics_cap!r}"
            )
        if self.metrics_policy not in METRICS_POLICIES:
            raise ValueError(
                f"unknown metrics_policy {self.metrics_policy!r}; "
                f"expected one of {METRICS_POLICIES}"
            )


class StreamFeed:
    """Re-chunks a source's per-window batches into fixed-size arrival chunks.

    The simulators own one of these per streaming run, as the source of
    their arrival cursor: ``next_chunk()`` returns the next ``chunk`` tasks
    across as many source windows as needed (idle windows yield empty
    batches and are skipped).  ``exhausted`` flips once a chunk comes up
    short, the source being done.
    """

    __slots__ = ("chunk", "exhausted", "fed", "_tasks")

    def __init__(self, source: StreamingWorkload, chunk: int) -> None:
        if chunk <= 0:
            raise ValueError(f"chunk must be positive, got {chunk!r}")
        self.chunk = chunk
        self.exhausted = False
        self.fed = 0
        self._tasks = itertools.chain.from_iterable(source.batches())

    def next_chunk(self) -> List[Task]:
        """Up to ``self.chunk`` tasks in arrival order; ``[]`` when done."""
        out = list(itertools.islice(self._tasks, self.chunk))
        self.fed += len(out)
        self.exhausted = len(out) < self.chunk
        return out


class BucketStreamSource(StreamingWorkload):
    """Replays trace buckets minute-by-minute with window-local RNG streams.

    Within minute *m* every bucket's invocations arrive at regular intervals
    in ``[60m, 60(m+1))`` (the §V-B arrival model), so sorting each window by
    ``(arrival_time, fibonacci_n)`` and concatenating windows in minute order
    reproduces the classic generator's global sort.  Memory sizes and
    duration jitter are drawn from ``default_rng((seed, fibonacci_n,
    minute))`` — a dedicated stream per window cell — so the draw for any
    task is independent of how much of the stream has been consumed.
    """

    def __init__(
        self,
        buckets: Sequence[TraceBucket],
        minutes: int,
        seed: int = 7,
        limit: Optional[int] = None,
        duration_jitter: float = 0.0,
    ) -> None:
        if not buckets:
            raise ValueError("a stream source needs at least one trace bucket")
        # Same checks (and messages) as the classic generator's spec.
        WorkloadSpec(minutes=minutes, limit=limit, seed=seed, duration_jitter=duration_jitter)
        self.buckets = list(buckets)
        self.minutes = minutes
        self.seed = seed
        self.limit = limit
        self.duration_jitter = duration_jitter

    # ------------------------------------------------------------- protocol

    def total_hint(self) -> Optional[int]:
        total = ExtractionPipeline.total_invocations(self.buckets, self.minutes)
        if self.limit is not None:
            return min(self.limit, total)
        return total

    def batches(self) -> Iterator[List[Task]]:
        emitted = 0
        for minute in range(self.minutes):
            left = None if self.limit is None else self.limit - emitted
            window = self._window_tasks(minute, emitted, left)
            emitted += len(window)
            yield window
            if emitted == self.limit:
                return

    # ------------------------------------------------------------ internals

    def _window_tasks(
        self, minute: int, first_task_id: int, limit: Optional[int]
    ) -> List[Task]:
        cells = (
            bucket_cell(
                bucket, minute, (self.seed, bucket.fibonacci_n, minute), self.duration_jitter
            )
            for bucket in self.buckets
        )
        # Rows of Python values, zipped lazily: no list of row tuples is kept.
        rows = zip(*(column.tolist() for column in sorted_columns(cells, limit)))
        return rows_to_tasks(rows, first_task_id)


def trace_stream_source(
    trace: SyntheticAzureTrace,
    calibration: Optional[CalibrationTable] = None,
    downscale_factor: float = 100.0,
    seed: int = 7,
    limit: Optional[int] = None,
    minutes: Optional[int] = None,
    duration_jitter: float = 0.0,
) -> BucketStreamSource:
    """Extraction pipeline → streaming source, for any synthetic/ingested trace."""
    pipeline = ExtractionPipeline(
        calibration=calibration or default_calibration_table(),
        downscale_factor=downscale_factor,
    )
    buckets = pipeline.run(trace)
    return BucketStreamSource(
        buckets,
        minutes=trace.minutes if minutes is None else min(minutes, trace.minutes),
        seed=seed,
        limit=limit,
        duration_jitter=duration_jitter,
    )


# --------------------------------------------------------------------------
# Azure per-minute invocation-count CSV ingestion
# --------------------------------------------------------------------------

#: Optional per-function columns recognised alongside the count columns.
#: ``AverageDuration`` is in seconds (the raw Azure duration table is a
#: separate file in milliseconds — convert when joining externally).
DURATION_COLUMN = "AverageDuration"
MEMORY_COLUMN = "MemoryMB"

#: Defaults drawn per function (seeded) when the CSV has no duration/memory
#: columns: a lognormal duration in seconds and the paper's memory ladder.
_DEFAULT_MEMORY_SIZES = (128, 256, 512, 1024)
_DEFAULT_MEMORY_WEIGHTS = (0.5, 0.25, 0.15, 0.1)


class TraceFormatError(ValueError):
    """A trace file that is not an Azure invocation-count CSV."""


def _default_profile_draws(seed: int, index: int) -> tuple:
    rng = np.random.default_rng((seed, index))
    duration = float(np.clip(rng.lognormal(mean=-1.0, sigma=1.2), 0.001, 300.0))
    memory_mb = int(
        rng.choice(np.array(_DEFAULT_MEMORY_SIZES), p=np.array(_DEFAULT_MEMORY_WEIGHTS))
    )
    return duration, memory_mb


def _rows_to_profiles(
    header: Sequence[str], rows: Iterator[Dict[str, str]], seed: int
) -> tuple:
    """(profiles, minutes) from dict-rows of the invocation-count format."""
    count_columns = sorted((c for c in header if c.strip().isdigit()), key=int)
    if not count_columns:
        raise TraceFormatError(
            "not an Azure invocation-count CSV: no numeric per-minute columns "
            '("1", "2", ...) in the header'
        )
    minutes = int(count_columns[-1])
    profiles: List[FunctionProfile] = []
    for index, row in enumerate(rows):
        counts = np.zeros(minutes, dtype=np.float64)
        for column in count_columns:
            value = row.get(column)
            if value not in (None, ""):
                try:
                    counts[int(column) - 1] = float(value)
                except ValueError:
                    raise TraceFormatError(
                        f"function row {index + 1}, minute column {column!r}: "
                        f"count {value!r} is not a number"
                    ) from None
        duration, memory_mb = _default_profile_draws(seed, index)
        raw_duration = row.get(DURATION_COLUMN)
        if raw_duration not in (None, ""):
            duration = float(raw_duration)
        raw_memory = row.get(MEMORY_COLUMN)
        if raw_memory not in (None, ""):
            memory_mb = int(float(raw_memory))
        profiles.append(
            FunctionProfile(
                function_id=index,
                average_duration=duration,
                memory_mb=memory_mb,
                per_minute_counts=counts,
            )
        )
    if not profiles:
        raise TraceFormatError("the invocation-count CSV has no function rows")
    return profiles, minutes


def load_invocation_csv(path: str, seed: int = 42) -> SyntheticAzureTrace:
    """Ingest an Azure per-minute invocation-count CSV as a replayable trace.

    The format is the public trace's ``invocations_per_function_md.anon``
    shape: identity columns (``HashOwner``/``HashApp``/``HashFunction``/
    ``Trigger``), then one column per minute of the day named ``"1"`` ..
    ``"1440"`` holding invocation counts.  Optional ``AverageDuration``
    (seconds) and ``MemoryMB`` columns override the seeded default draws.
    Reads through pandas when available, else the stdlib ``csv`` module.
    """
    if _pd is not None:  # pragma: no cover - pandas path, absent in CI image
        frame = _pd.read_csv(path)
        header = [str(c) for c in frame.columns]
        rows = (
            {str(k): ("" if _pd.isna(v) else str(v)) for k, v in record.items()}
            for record in frame.to_dict(orient="records")
        )
        profiles, minutes = _rows_to_profiles(header, rows, seed)
    else:
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None:
                raise TraceFormatError(f"empty invocation-count CSV: {path}")
            profiles, minutes = _rows_to_profiles(reader.fieldnames, iter(reader), seed)
    config = AzureTraceConfig(
        num_functions=len(profiles), minutes=max(minutes, 2), seed=seed
    )
    return SyntheticAzureTrace(config, profiles)


def csv_stream_source(
    path: str,
    seed: int = 7,
    limit: Optional[int] = None,
    minutes: Optional[int] = None,
    calibration: Optional[CalibrationTable] = None,
    downscale_factor: float = 1.0,
) -> BucketStreamSource:
    """CSV file → streaming source (counts replayed as-is by default).

    Unlike the synthetic pipeline (which divides by 100 like the paper),
    ingested counts default to ``downscale_factor=1.0``: a real trace slice
    is usually already the volume the caller wants to replay.
    """
    trace = load_invocation_csv(path, seed=seed)
    return trace_stream_source(
        trace,
        calibration=calibration,
        downscale_factor=downscale_factor,
        seed=seed,
        limit=limit,
        minutes=minutes,
    )


__all__ = [
    "METRICS_POLICIES",
    "BucketStreamSource",
    "StreamFeed",
    "StreamSpec",
    "StreamingWorkload",
    "TraceFormatError",
    "csv_stream_source",
    "load_invocation_csv",
    "trace_stream_source",
]
