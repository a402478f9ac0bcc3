"""Workload substrate: Azure-like FaaS trace synthesis and workload generation.

The paper drives every experiment with the Microsoft Azure 2019 FaaS trace
(Shahrad et al., ATC'20).  That dataset is not redistributable here, so this
package provides a *synthetic trace generator* reproducing the aggregate
properties the paper relies on (duration CDF with ~80 % of invocations below
one second, >90 % of functions under 400 MB, bursty per-minute arrival
counts), plus the paper's full §V-B extraction pipeline:

1. calibrate Fibonacci arguments against function durations
   (:mod:`repro.workload.calibration`),
2. merge/clean/bucket the duration and invocation tables and downscale by 100
   (:mod:`repro.workload.extraction`),
3. compute per-minute inter-arrival times and emit the workload file
   (:mod:`repro.workload.generator`).

The output is a list of :class:`~repro.simulation.task.Task` objects ready to
be submitted to any scheduler.
"""

from repro.workload.azure import AzureTraceConfig, SyntheticAzureTrace, generate_trace
from repro.workload.calibration import (
    CalibrationTable,
    DeterministicCalibration,
    MeasuredCalibration,
)
from repro.workload.extraction import ExtractionPipeline, TraceBucket
from repro.workload.fibonacci import fibonacci, fibonacci_recursive_cost
from repro.workload.generator import (
    WorkloadGenerator,
    WorkloadItem,
    WorkloadItems,
    WorkloadSpec,
)
from repro.workload.memory import MemoryDistribution
from repro.workload.streaming import (
    BucketStreamSource,
    StreamFeed,
    StreamSpec,
    StreamingWorkload,
    csv_stream_source,
    load_invocation_csv,
    trace_stream_source,
)
from repro.workload.trace_io import load_workload_csv, save_workload_csv

__all__ = [
    "BucketStreamSource",
    "StreamFeed",
    "StreamSpec",
    "StreamingWorkload",
    "csv_stream_source",
    "load_invocation_csv",
    "trace_stream_source",
    "AzureTraceConfig",
    "SyntheticAzureTrace",
    "generate_trace",
    "CalibrationTable",
    "DeterministicCalibration",
    "MeasuredCalibration",
    "ExtractionPipeline",
    "TraceBucket",
    "fibonacci",
    "fibonacci_recursive_cost",
    "WorkloadGenerator",
    "WorkloadItem",
    "WorkloadItems",
    "WorkloadSpec",
    "MemoryDistribution",
    "load_workload_csv",
    "save_workload_csv",
]
