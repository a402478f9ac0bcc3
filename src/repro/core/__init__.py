"""The paper's primary contribution: the hybrid FIFO+CFS scheduler.

The hybrid scheduler splits a machine's cores into two CPU core groups
(the paper deploys it as a ghOSt policy; the simulator calls it directly):

* a **FIFO group** running short tasks to completion from a centralized
  global queue, and
* a **CFS group** absorbing the long tail: any task that exceeds the FIFO
  *preemption time limit* is preempted and migrated there.

Two control mechanisms keep the provider side healthy (§IV-B):

* :class:`~repro.core.time_limit.AdaptivePercentileTimeLimit` adapts the FIFO
  time limit to a percentile of the most recent task durations, and
* :class:`~repro.core.rightsizing.RightsizingController` migrates cores
  between the two groups when their utilization diverges.
"""

from repro.core.config import HybridConfig
from repro.core.hybrid import HybridScheduler
from repro.core.rightsizing import RightsizingController, RightsizingEvent
from repro.core.time_limit import (
    AdaptivePercentileTimeLimit,
    FixedTimeLimit,
    TimeLimitPolicy,
)
# The hybrid scheduler is reachable through the scheduler registry under
# "hybrid" alongside the baselines: repro.schedulers.registry registers a
# kwargs factory for it, so declarative scenarios configure it with plain
# JSON values instead of a HybridConfig instance.

__all__ = [
    "HybridConfig",
    "HybridScheduler",
    "RightsizingController",
    "RightsizingEvent",
    "AdaptivePercentileTimeLimit",
    "FixedTimeLimit",
    "TimeLimitPolicy",
]
