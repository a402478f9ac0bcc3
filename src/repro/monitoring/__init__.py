"""CPU utilization monitoring.

The paper runs a psutil-based daemon that writes per-core utilization into
shared memory; the hybrid scheduler reads it back and compares the windowed
average utilization of the FIFO and CFS core groups to drive rightsizing
(§VI-C).  This package reproduces that split:

* :class:`~repro.monitoring.shared_memory.UtilizationStore` — the
  "shared-memory" ring buffer of per-core samples,
* :class:`~repro.monitoring.sampler.UtilizationSampler` — the daemon side,
  sampling simulated cores,
* :class:`~repro.monitoring.monitor.GroupUtilizationMonitor` — the scheduler
  side, computing windowed per-group averages.
"""

from repro.monitoring.monitor import GroupUtilizationMonitor
from repro.monitoring.sampler import UtilizationSampler
from repro.monitoring.shared_memory import UtilizationSampleRecord, UtilizationStore

__all__ = [
    "GroupUtilizationMonitor",
    "UtilizationSampler",
    "UtilizationSampleRecord",
    "UtilizationStore",
]
