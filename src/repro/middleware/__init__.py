"""Dispatch-path middleware: stackable policy around the cluster's seams.

The cluster's dispatch path used to be a hardcoded sequence; this package
makes it a composable pipeline.  A :class:`MiddlewareChain` held by
:class:`~repro.cluster.simulator.ClusterSimulator` runs ordered
:class:`Middleware` hooks at three seams; the last two are hooks on the
run's lifecycle-hook bus, which the chain subscribes to only when some
middleware observes them, so the no-middleware path is the exact
pre-middleware code path:

* ``on_dispatch`` — before the dispatcher picks a node; the hook may accept,
  reject (:func:`~repro.middleware.base.reject`) or defer
  (:func:`~repro.middleware.base.defer`) the task;
* ``on_land`` — the task reached a node's scheduler;
* ``on_complete`` — the task finished.

Five built-ins ship behind a registry mirroring schedulers/dispatchers, so
a ``Scenario`` declares its stack as JSON (see
:class:`~repro.middleware.spec.MiddlewareSpec`)::

    "middleware": [
      {"name": "admission", "params": {"max_queue_depth": 256}},
      {"name": "rate_limit", "params": {"rate": 50, "mode": "delay"}},
      {"name": "timeout_retry", "params": {"timeout": 5}},
      {"name": "deadline_shed", "params": {"relative_deadline": 30}},
      "slo_tracker"
    ]

The cluster publishes what middleware decides on the same bus, and the
telemetry probe records it: rejections and deferrals as instants on the
control plane's middleware lane, retry backoff as spans.  The SLO tracker
registers its attainment gauge with the cluster's telemetry.
"""

from repro.middleware.admission import AdmissionControlMiddleware
from repro.middleware.base import (
    ADMIT_TAG,
    DEFER,
    REJECT,
    TIMEOUT_TAG,
    Middleware,
    MiddlewareChain,
    Verdict,
    defer,
    reject,
)
from repro.middleware.rate_limit import RateLimitMiddleware, TokenBucket
from repro.middleware.registry import (
    available_middlewares,
    create_middleware,
    register_middleware,
)
from repro.middleware.retry import TimeoutRetryMiddleware
from repro.middleware.shedding import DeadlineShedMiddleware
from repro.middleware.slo import SLOTrackerMiddleware
from repro.middleware.spec import MiddlewareSpec

__all__ = [
    "ADMIT_TAG",
    "DEFER",
    "REJECT",
    "TIMEOUT_TAG",
    "AdmissionControlMiddleware",
    "DeadlineShedMiddleware",
    "Middleware",
    "MiddlewareChain",
    "MiddlewareSpec",
    "RateLimitMiddleware",
    "SLOTrackerMiddleware",
    "TimeoutRetryMiddleware",
    "TokenBucket",
    "Verdict",
    "available_middlewares",
    "create_middleware",
    "defer",
    "register_middleware",
    "reject",
]
