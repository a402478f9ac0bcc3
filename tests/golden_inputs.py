"""Golden workload inputs shared by the input-equivalence tests and the capture script.

Each case builds one generated workload and hashes its rows: the
``(arrival_time, fibonacci_n, duration, memory_mb)`` values of every item
(or task) together with the Python type of each value.  Floats are hashed
through ``repr``, which round-trips exactly, so a digest matches only when
every row is bit-identical and every value has the same type.

* ``ten_minute_seed42`` / ``ten_minute_seed7`` — ``generate_items`` over the
  10-minute trace at trace seeds 42 and 7 (the benchmark's inputs).
* ``two_minute_limit`` — the paper's 2-minute workload cut at 12,442 items.
* ``two_minute_jitter`` — a ``duration_jitter=0.1`` spec, which draws one
  uniform per invocation after the memory draws.
* ``stream_limit_in_minute`` — ``BucketStreamSource.batches()`` over two
  minutes with a ``limit`` that falls inside the second minute; its rows
  also carry each task's id, name and ``function_id``.
* ``stream_jitter`` — the same stream, uncut, with ``duration_jitter=0.1``
  drawn from each window cell's own RNG stream.

``tests/golden/golden_inputs.json`` was captured at commit ``9472670``,
before item and task building were vectorised.  Regenerate (only when
intentionally changing generated workloads) with::

    PYTHONPATH=src python tests/golden_inputs.py --capture
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Callable, Dict, Iterable

from repro.workload.azure import AzureTraceConfig, generate_trace
from repro.workload.calibration import default_calibration_table
from repro.workload.extraction import ExtractionPipeline
from repro.workload.generator import (
    PAPER_TWO_MINUTE_INVOCATIONS,
    WorkloadGenerator,
    WorkloadSpec,
)
from repro.workload.streaming import BucketStreamSource

INPUTS_PATH = os.path.join(os.path.dirname(__file__), "golden", "golden_inputs.json")


def _buckets(minutes: int, seed: int = 42) -> list:
    trace = generate_trace(AzureTraceConfig(minutes=minutes, seed=seed))
    return ExtractionPipeline(calibration=default_calibration_table()).run(trace)


def rows_digest(rows: Iterable[tuple]) -> str:
    """SHA-256 over each row's values and their Python types."""
    digest = hashlib.sha256()
    for row in rows:
        values = ",".join(repr(value) for value in row)
        types = ",".join(type(value).__name__ for value in row)
        digest.update(f"{values};{types}\n".encode())
    return digest.hexdigest()


def _item_rows(items) -> Iterable[tuple]:
    return (
        (item.arrival_time, item.fibonacci_n, item.duration, item.memory_mb)
        for item in items
    )


def _items(minutes: int, seed: int, **spec) -> str:
    generator = WorkloadGenerator(_buckets(max(minutes, 2), seed))
    return rows_digest(
        _item_rows(generator.generate_items(WorkloadSpec(minutes=minutes, **spec)))
    )


def _stream_rows(**options) -> str:
    source = BucketStreamSource(_buckets(2), minutes=2, seed=7, **options)
    return rows_digest(
        (
            task.arrival_time,
            task.fibonacci_n,
            task.service_time,
            task.memory_mb,
            task.task_id,
            task.name,
            task.function_id,
        )
        for batch in source.batches()
        for task in batch
    )


CASES: Dict[str, Callable[[], str]] = {
    "ten_minute_seed42": lambda: _items(10, 42),
    "ten_minute_seed7": lambda: _items(10, 7),
    "two_minute_limit": lambda: _items(2, 42, limit=PAPER_TWO_MINUTE_INVOCATIONS),
    "two_minute_jitter": lambda: _items(2, 42, duration_jitter=0.1),
    "stream_limit_in_minute": lambda: _stream_rows(limit=9_000),
    "stream_jitter": lambda: _stream_rows(duration_jitter=0.1),
}


def load_golden_inputs() -> Dict[str, str]:
    with open(INPUTS_PATH) as handle:
        return json.load(handle)


def capture() -> None:
    digests = {name: build() for name, build in sorted(CASES.items())}
    with open(INPUTS_PATH, "w") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} input digests to {INPUTS_PATH}")


if __name__ == "__main__":
    import sys

    if "--capture" in sys.argv:
        capture()
    else:
        print(__doc__)
