"""Columnar task-metrics store.

``TaskMetricsSummary.from_tasks`` used to rebuild one Python list per metric
(execution / response / turnaround) every time a result was summarised; on
fleet-scale runs that is hundreds of thousands of attribute lookups and list
appends per aggregation.  :class:`TaskColumns` keeps the same per-task facts
in one numpy structured array that a run's
:class:`~repro.simulation.engine.EventLoop` fills *incrementally* as tasks
finish, so result aggregation is O(1) allocations: summaries, percentiles,
CDFs and CSV export all read (views of) the same columns.

One store serves a whole run.  Each row carries the id of the cluster node
the task finished on (:data:`NO_NODE` on a standalone machine), so per-node
views are row selections of the one store rather than second copies.

Appends land in a row buffer of plain tuples, which is converted into the
structured array once it holds :data:`_FLUSH_ROWS` rows and on every read.
The buffer is bounded so a long run never holds all its finished rows as
Python tuples at once (about 130 B a row against 88 B in the array), and
the conversion never needs both copies of every row side by side.

The store records tasks in completion order.  Percentile/mean statistics are
order-independent (within float rounding), and consumers that need a stable
per-task ordering (CSV export) sort by ``task_id``.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import fields, replace
from typing import DefaultDict, List, Optional, Sequence

import numpy as np

from repro.simulation.task import TaskState

#: Sentinel for "task never ran on a core" in the ``last_core`` column.
NO_CORE = -1
#: Sentinel for "finished on a standalone machine" in the ``node_id`` column.
NO_NODE = -1

_FINISHED = TaskState.FINISHED

#: One row per finished task.  Times are seconds on the simulation clock.
TASK_COLUMNS_DTYPE = np.dtype(
    [
        ("task_id", np.int64),
        ("arrival", np.float64),
        ("service", np.float64),
        ("first_run", np.float64),
        ("completion", np.float64),
        ("memory_mb", np.int64),
        ("weight", np.float64),
        ("preemptions", np.int64),
        ("migrations", np.int64),
        ("last_core", np.int64),
        ("node_id", np.int64),
    ]
)

#: Initial capacity of an incrementally filled store.
_INITIAL_CAPACITY = 256

#: Rows the tuple buffer holds before ``append`` converts it into the
#: structured array.  Large enough that the per-call cost of the numpy
#: conversion is spread thin, small enough to keep the buffer under 1 MB.
_FLUSH_ROWS = 4096

#: Reservoir slots drawn per numpy call once a reservoir is past its cap.
#: ``rng.integers(0, highs)`` over an array of consecutive bounds yields the
#: same values as one scalar ``rng.integers(0, high)`` call per bound, so
#: the block size never changes which rows are kept.
_SLOT_BLOCK = 256


class TaskColumns:
    """Growable structured-array store of finished-task metrics.

    Appends land in a row buffer of plain tuples (sub-µs on the completion
    hot path — structured-array row writes are ~10x more expensive) and are
    flushed into the structured array in one vectorised conversion when the
    buffer reaches :data:`_FLUSH_ROWS` rows or the store is read, so the
    buffer never holds more than one chunk.  Every accessor returns a numpy
    view/array, never a Python list.
    """

    __slots__ = ("_data", "_size", "_pending")

    def __init__(self, capacity: int = 0) -> None:
        self._data = np.empty(max(int(capacity), 0), dtype=TASK_COLUMNS_DTYPE)
        self._size = 0
        self._pending: List[tuple] = []

    # ------------------------------------------------------------------ fill

    def _grow_to(self, needed: int) -> None:
        capacity = len(self._data)
        if needed <= capacity:
            return
        new_capacity = max(needed, capacity * 2, _INITIAL_CAPACITY)
        data = np.empty(new_capacity, dtype=TASK_COLUMNS_DTYPE)
        data[: self._size] = self._data[: self._size]
        self._data = data

    def append(self, task, node_id: int = NO_NODE) -> None:
        """Record one finished task, tagged with the node it finished on."""
        if task.state is not _FINISHED:
            raise ValueError(f"task {task.task_id} is not finished")
        last_core = task.last_core
        pending = self._pending
        pending.append(
            (
                task.task_id,
                task.arrival_time,
                task.service_time,
                task.first_run_time,
                task.completion_time,
                task.memory_mb,
                task.weight,
                task.preemptions,
                task.migrations,
                NO_CORE if last_core is None else last_core,
                node_id,
            )
        )
        if len(pending) >= _FLUSH_ROWS:
            self._flush()

    def _flush(self) -> None:
        """Convert buffered rows into the structured array (one C-level pass)."""
        pending = self._pending
        if not pending:
            return
        rows = np.array(pending, dtype=TASK_COLUMNS_DTYPE)
        self._pending = []
        self._grow_to(self._size + len(rows))
        self._data[self._size : self._size + len(rows)] = rows
        self._size += len(rows)

    @classmethod
    def from_tasks(cls, tasks: Sequence) -> "TaskColumns":
        """Build a store from a task list, keeping finished tasks only."""
        columns = cls()
        for task in tasks:
            if task.is_finished:
                columns.append(task)
        return columns

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> "TaskColumns":
        """A store over ``rows``, which it takes over without copying.

        Pass an array nothing else writes to, such as a boolean selection.
        """
        columns = cls()
        columns._data = np.asarray(rows, dtype=TASK_COLUMNS_DTYPE)
        columns._size = len(rows)
        return columns

    # ----------------------------------------------------------------- access

    def __len__(self) -> int:
        return self._size + len(self._pending)

    def __bool__(self) -> bool:
        return bool(self._size or self._pending)

    @property
    def data(self) -> np.ndarray:
        """Structured-array view over the filled rows (no copy once flushed)."""
        self._flush()
        return self._data[: self._size]

    def column(self, name: str) -> np.ndarray:
        """One raw column as a numpy view (no copy)."""
        return self.data[name]

    # Derived metric columns, matching the Task property definitions:
    # execution = completion - first_run, response = first_run - arrival,
    # turnaround = completion - arrival.

    def execution(self) -> np.ndarray:
        data = self.data
        return data["completion"] - data["first_run"]

    def response(self) -> np.ndarray:
        data = self.data
        return data["first_run"] - data["arrival"]

    def turnaround(self) -> np.ndarray:
        data = self.data
        return data["completion"] - data["arrival"]

    def metric(self, name: str) -> np.ndarray:
        """One derived metric column by name (execution/response/turnaround)."""
        derived = {
            "execution": self.execution,
            "response": self.response,
            "turnaround": self.turnaround,
        }
        if name in derived:
            return derived[name]()
        if name not in (TASK_COLUMNS_DTYPE.names or ()):
            raise KeyError(
                f"unknown metric {name!r}; expected a derived metric "
                f"{sorted(derived)} or a raw column {list(TASK_COLUMNS_DTYPE.names)}"
            )
        return np.array(self.column(name), copy=True)

    def sorted_by_task_id(self) -> np.ndarray:
        """Filled rows sorted by task id (stable per-task ordering for export)."""
        data = self.data
        return data[np.argsort(data["task_id"], kind="stable")]

    def node_view(self, node_id: int) -> "TaskColumns":
        """A read-only store over the rows of one cluster node (a copy)."""
        rows = self.data
        return TaskColumns.from_rows(rows[rows["node_id"] == node_id])

    def summary(self):
        """Aggregate statistics over the stored tasks (columnar fast path)."""
        # Deferred import: metrics.py imports this module.
        from repro.simulation.metrics import TaskMetricsSummary

        return TaskMetricsSummary.from_columns(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaskColumns(size={self._size}, capacity={len(self._data)})"


class _Totals:
    """Exact running aggregates of the tasks a reservoir has seen."""

    __slots__ = (
        "count",
        "execution",
        "response",
        "turnaround",
        "service",
        "exec_gb",
        "turn_gb",
        "makespan",
    )

    def __init__(self) -> None:
        self.count = 0
        self.execution = self.response = self.turnaround = 0.0
        self.service = self.exec_gb = self.turn_gb = self.makespan = 0.0

    def add(self, execution, response, turnaround, service, memory_gb, completion):
        self.count += 1
        self.execution += execution
        self.response += response
        self.turnaround += turnaround
        self.service += service
        self.exec_gb += execution * memory_gb
        self.turn_gb += turnaround * memory_gb
        if completion > self.makespan:
            self.makespan = completion


class ReservoirTaskColumns(TaskColumns):
    """Row-capped store: exact streaming aggregates + a uniform sample.

    Counts, means, totals, makespan and billing aggregates are maintained
    exactly in O(1) state as tasks finish, for the whole store and for each
    ``node_id`` (O(nodes) state); the row array holds a seeded
    uniform reservoir sample (Vitter's algorithm R) of at most ``cap`` rows,
    which percentile/CDF consumers read transparently.  ``len()`` reports
    the *true* task count, not the sample size.  With ``cap >= N`` nothing
    is ever evicted, so the store degrades to a plain :class:`TaskColumns`.
    Past the cap, replacement slots are drawn :data:`_SLOT_BLOCK` at a time.
    """

    __slots__ = (
        "cap",
        "_rng",
        "_slots",
        "_slots_base",
        "_totals",
        "_node_totals",
    )

    def __init__(self, cap: int, seed: int = 0) -> None:
        if cap <= 0:
            raise ValueError(f"cap must be positive, got {cap!r}")
        super().__init__()
        self.cap = int(cap)
        self._rng = np.random.default_rng(seed)
        #: Pre-drawn replacement slots for rows ``_slots_base`` onwards.
        self._slots: List[int] = []
        self._slots_base = 0
        self._totals = _Totals()
        self._node_totals: DefaultDict[int, _Totals] = defaultdict(_Totals)

    def append(self, task, node_id: int = NO_NODE) -> None:
        if task.state is not _FINISHED:
            raise ValueError(f"task {task.task_id} is not finished")
        arrival = task.arrival_time
        first_run = task.first_run_time
        completion = task.completion_time
        execution = completion - first_run
        turnaround = completion - arrival
        memory_gb = task.memory_mb / 1024.0
        response = first_run - arrival
        service = task.service_time
        totals = self._totals
        index = totals.count
        totals.add(execution, response, turnaround, service, memory_gb, completion)
        self._node_totals[node_id].add(
            execution, response, turnaround, service, memory_gb, completion
        )
        cap = self.cap
        if index >= cap:
            offset = index - self._slots_base
            if offset >= len(self._slots):
                self._slots = self._rng.integers(
                    0, np.arange(index + 1, index + 1 + _SLOT_BLOCK)
                ).tolist()
                self._slots_base = index
                offset = 0
            slot = self._slots[offset]
            if slot >= cap:
                return
        last_core = task.last_core
        row = (
            task.task_id,
            arrival,
            service,
            first_run,
            completion,
            task.memory_mb,
            task.weight,
            task.preemptions,
            task.migrations,
            NO_CORE if last_core is None else last_core,
            node_id,
        )
        if index < cap:
            pending = self._pending
            pending.append(row)
            if len(pending) >= _FLUSH_ROWS:
                self._flush()
        else:
            self._flush()
            self._data[slot] = row

    def __len__(self) -> int:
        return self._totals.count

    def __bool__(self) -> bool:
        return self._totals.count > 0

    def sample_size(self) -> int:
        """Rows actually retained (= ``min(len(self), cap)``)."""
        return self._size + len(self._pending)

    def node_view(self, node_id: int) -> "ReservoirTaskColumns":
        """One node's share of the sample, with its exact aggregates (read-only)."""
        view = ReservoirTaskColumns(self.cap)
        view._data = super().node_view(node_id).data
        view._size = len(view._data)
        view._totals = self._node_totals.get(node_id, _Totals())
        return view

    def _exact_summary(self):
        """Percentiles of the sample; exact count, means, totals and makespan.

        A node view none of whose tasks is in the sample has no percentile
        estimate, so its percentiles are NaN.
        """
        from repro.simulation.metrics import TaskMetricsSummary

        summary = TaskMetricsSummary.from_columns(TaskColumns.from_rows(self.data))
        totals = self._totals
        count = totals.count
        if count == 0:
            return summary
        if not self.sample_size():
            percentiles = [f.name for f in fields(summary) if f.name[0] == "p"]
            summary = replace(summary, **dict.fromkeys(percentiles, np.nan))
        return replace(
            summary,
            count=count,
            mean_execution=totals.execution / count,
            mean_response=totals.response / count,
            mean_turnaround=totals.turnaround / count,
            total_execution=totals.execution,
            total_service=totals.service,
            makespan=totals.makespan,
        )

    def _exact_billing(self) -> tuple:
        """``(count, exec_s, turnaround_s, exec_gb_s, turnaround_gb_s)``.

        Exact billing aggregates for :meth:`repro.cost.cost_model.CostModel
        .workload_cost_columns` — summing the sample rows would under-bill
        by roughly ``cap / count``.
        """
        totals = self._totals
        return (
            totals.count,
            totals.execution,
            totals.turnaround,
            totals.exec_gb,
            totals.turn_gb,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReservoirTaskColumns(seen={len(self)}, cap={self.cap}, "
            f"sample={self.sample_size()})"
        )


class SpillTaskColumns(TaskColumns):
    """Cap-bounded in-memory tail with full history spilled to ``.npy`` chunks.

    Every ``cap`` rows the in-memory block is written to a chunk file in the
    store's private spill directory; accessors transparently rehydrate the
    full concatenated history, so summaries/CDFs/export stay *exact* past
    the cap at the price of re-reading the chunks (a one-shot cost at
    result-reporting time — appends never touch the spilled files).
    """

    __slots__ = ("cap", "_dir", "_owns_dir", "_chunks", "_spilled", "_cache")

    def __init__(self, cap: int, spill_dir: Optional[str] = None) -> None:
        import os
        import tempfile

        if cap <= 0:
            raise ValueError(f"cap must be positive, got {cap!r}")
        super().__init__()
        self.cap = int(cap)
        if spill_dir is not None:
            os.makedirs(spill_dir, exist_ok=True)
        # A private subdirectory even inside a caller-supplied dir: several
        # runs' stores may share one spill_dir.
        self._dir = tempfile.mkdtemp(prefix="task-columns-", dir=spill_dir)
        self._owns_dir = True
        self._chunks: List[str] = []
        self._spilled = 0
        self._cache: Optional[np.ndarray] = None

    def append(self, task, node_id: int = NO_NODE) -> None:
        self._cache = None
        super().append(task, node_id)
        if self._size + len(self._pending) >= self.cap:
            self._spill()

    def _spill(self) -> None:
        import os

        self._flush()
        if self._size == 0:
            return
        path = os.path.join(self._dir, f"chunk-{len(self._chunks):06d}.npy")
        np.save(path, self._data[: self._size])
        self._chunks.append(path)
        self._spilled += self._size
        self._size = 0

    @property
    def data(self) -> np.ndarray:
        self._flush()
        if not self._chunks:
            return self._data[: self._size]
        if self._cache is None:
            parts = [np.load(path) for path in self._chunks]
            parts.append(self._data[: self._size].copy())
            self._cache = np.concatenate(parts)
        return self._cache

    def node_view(self, node_id: int) -> TaskColumns:
        """One node's rows, selected a chunk at a time (never the whole history)."""
        self._flush()
        blocks = itertools.chain(map(np.load, self._chunks), [self._data[: self._size]])
        return TaskColumns.from_rows(
            np.concatenate([rows[rows["node_id"] == node_id] for rows in blocks])
        )

    def __len__(self) -> int:
        return self._spilled + self._size + len(self._pending)

    def __bool__(self) -> bool:
        return len(self) > 0

    def close(self) -> None:
        """Delete the spill files and directory (idempotent)."""
        import shutil

        if self._owns_dir:
            self._owns_dir = False
            shutil.rmtree(self._dir, ignore_errors=True)
        self._chunks = []

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown timing
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpillTaskColumns(rows={len(self)}, cap={self.cap}, "
            f"chunks={len(self._chunks)})"
        )


def build_columns_store(
    cap: Optional[int] = None,
    policy: str = "reservoir",
    spill_dir: Optional[str] = None,
    seed: int = 0,
):
    """Plain, reservoir-capped or spilling store depending on ``cap``/``policy``."""
    if cap is None:
        return TaskColumns()
    if policy == "reservoir":
        return ReservoirTaskColumns(cap, seed=seed)
    if policy == "spill":
        return SpillTaskColumns(cap, spill_dir=spill_dir)
    raise ValueError(
        f"unknown metrics policy {policy!r}; expected 'reservoir' or 'spill'"
    )

