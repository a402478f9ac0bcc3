"""Columnar task-metrics store.

``TaskMetricsSummary.from_tasks`` used to rebuild one Python list per metric
(execution / response / turnaround) every time a result was summarised; on
fleet-scale runs that is hundreds of thousands of attribute lookups and list
appends per aggregation.  :class:`TaskColumns` keeps the same per-task facts
in one numpy structured array that the
:class:`~repro.simulation.metrics.MetricsCollector` fills *incrementally* as
tasks finish, so result aggregation is O(1) allocations: summaries,
percentiles, CDFs and CSV export all read (views of) the same columns.

The store records tasks in completion order.  Percentile/mean statistics are
order-independent (within float rounding), and consumers that need a stable
per-task ordering (CSV export) sort by ``task_id``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

#: Sentinel for "task never ran on a core" in the ``last_core`` column.
NO_CORE = -1

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
    ]
)

#: Initial capacity of an incrementally filled store.
_INITIAL_CAPACITY = 256

#: Reservoir slots drawn per numpy call once a reservoir is past its cap.
#: ``rng.integers(0, highs)`` over an array of consecutive bounds yields the
#: same values as one scalar ``rng.integers(0, high)`` call per bound, so
#: the block size never changes which rows are kept.
_SLOT_BLOCK = 256


class TaskColumns:
    """Growable structured-array store of finished-task metrics.

    Appends land in a row buffer of plain tuples (sub-µs on the completion
    hot path — structured-array row writes are ~10x more expensive) and are
    flushed into the structured array in one vectorised conversion on first
    read; reads between completions therefore stay cheap and every accessor
    returns a numpy view/array, never a Python list.
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

    def append(self, task) -> None:
        """Record one finished task (called by the collector per completion)."""
        if not task.is_finished:
            raise ValueError(f"task {task.task_id} is not finished")
        last_core = task.last_core
        self._pending.append(
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
            )
        )

    def extend(self, tasks: Iterable) -> None:
        for task in tasks:
            self.append(task)

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
        columns.extend(t for t in tasks if t.is_finished)
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

    def summary(self):
        """Aggregate statistics over the stored tasks (columnar fast path)."""
        # Deferred import: metrics.py imports this module.
        from repro.simulation.metrics import TaskMetricsSummary

        return TaskMetricsSummary.from_columns(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaskColumns(size={self._size}, capacity={len(self._data)})"


class ReservoirTaskColumns(TaskColumns):
    """Row-capped store: exact streaming aggregates + a uniform sample.

    Counts, means, totals, makespan and billing aggregates are maintained
    exactly in O(1) state as tasks finish; the row array holds a seeded
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
        "_seen",
        "_sum_execution",
        "_sum_response",
        "_sum_turnaround",
        "_sum_service",
        "_sum_exec_gb",
        "_sum_turn_gb",
        "_makespan",
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
        self._seen = 0
        self._sum_execution = 0.0
        self._sum_response = 0.0
        self._sum_turnaround = 0.0
        self._sum_service = 0.0
        self._sum_exec_gb = 0.0
        self._sum_turn_gb = 0.0
        self._makespan = 0.0

    def append(self, task) -> None:
        if not task.is_finished:
            raise ValueError(f"task {task.task_id} is not finished")
        arrival = task.arrival_time
        first_run = task.first_run_time
        completion = task.completion_time
        execution = completion - first_run
        turnaround = completion - arrival
        memory_gb = task.memory_mb / 1024.0
        index = self._seen
        self._seen = index + 1
        self._sum_execution += execution
        self._sum_response += first_run - arrival
        self._sum_turnaround += turnaround
        self._sum_service += task.service_time
        self._sum_exec_gb += execution * memory_gb
        self._sum_turn_gb += turnaround * memory_gb
        if completion > self._makespan:
            self._makespan = completion
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
            task.service_time,
            first_run,
            completion,
            task.memory_mb,
            task.weight,
            task.preemptions,
            task.migrations,
            NO_CORE if last_core is None else last_core,
        )
        if index < cap:
            self._pending.append(row)
        else:
            self._flush()
            self._data[slot] = row

    def __len__(self) -> int:
        return self._seen

    def __bool__(self) -> bool:
        return self._seen > 0

    def sample_size(self) -> int:
        """Rows actually retained (= ``min(len(self), cap)``)."""
        return self._size + len(self._pending)

    def _exact_summary(self):
        """Summary from the exact accumulators + sample percentiles."""
        from repro.simulation.metrics import TaskMetricsSummary

        count = self._seen
        if count == 0:
            return TaskMetricsSummary.from_columns(TaskColumns())
        p50e, p90e, p99e = np.percentile(self.execution(), (50, 90, 99))
        p50r, p90r, p99r = np.percentile(self.response(), (50, 90, 99))
        p50t, p90t, p99t = np.percentile(self.turnaround(), (50, 90, 99))
        return TaskMetricsSummary(
            count=count,
            mean_execution=self._sum_execution / count,
            mean_response=self._sum_response / count,
            mean_turnaround=self._sum_turnaround / count,
            p50_execution=float(p50e),
            p50_response=float(p50r),
            p50_turnaround=float(p50t),
            p90_execution=float(p90e),
            p90_response=float(p90r),
            p90_turnaround=float(p90t),
            p99_execution=float(p99e),
            p99_response=float(p99r),
            p99_turnaround=float(p99t),
            total_execution=self._sum_execution,
            total_service=self._sum_service,
            makespan=self._makespan,
        )

    def _exact_billing(self) -> tuple:
        """``(count, exec_s, turnaround_s, exec_gb_s, turnaround_gb_s)``.

        Exact billing aggregates for :meth:`repro.cost.cost_model.CostModel
        .workload_cost_columns` — summing the sample rows would under-bill
        by roughly ``cap / count``.
        """
        return (
            self._seen,
            self._sum_execution,
            self._sum_turnaround,
            self._sum_exec_gb,
            self._sum_turn_gb,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReservoirTaskColumns(seen={self._seen}, cap={self.cap}, "
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
        # stores (fleet + per node) may share one spill_dir.
        self._dir = tempfile.mkdtemp(prefix="task-columns-", dir=spill_dir)
        self._owns_dir = True
        self._chunks: List[str] = []
        self._spilled = 0
        self._cache: Optional[np.ndarray] = None

    def append(self, task) -> None:
        self._cache = None
        super().append(task)
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


def merge_columns(parts: Sequence[TaskColumns]) -> TaskColumns:
    """Concatenate several stores (per-node results into a fleet view).

    Capped stores contribute the rows they actually retain (a reservoir's
    sample, a spill store's full rehydrated history), so ``part.data`` is
    read rather than trusting ``len(part)`` — the two differ past a cap.
    """
    datas = [part.data for part in parts]
    merged = TaskColumns(capacity=sum(len(rows) for rows in datas))
    for rows in datas:
        size = len(rows)
        if size:
            merged._grow_to(merged._size + size)
            merged._data[merged._size : merged._size + size] = rows
            merged._size += size
    return merged
