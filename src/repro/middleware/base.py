"""Middleware ABC and the ordered chain the cluster runs it through.

A middleware intercepts three seams of a task's cluster lifecycle.  Two of
them are hooks on the run's lifecycle-hook bus
(:mod:`repro.simulation.hooks`), which the telemetry probe observes too:

* ``on_dispatch`` — the admission decision, *before* the dispatcher picks a
  node.  The only hook with a say: it may accept (return ``None``), reject
  the task outright (:func:`reject`), or defer the decision to a later
  simulated time (:func:`defer`).  Every admission attempt flows through it
  — the first arrival, a deferred resume, and a retry re-enqueue — so
  stacked policies see retries as ordinary dispatch decisions.
* ``on_land`` — the task reached a node's scheduler (initial delivery,
  ingress landing after a wire delay, or a migration landing): the
  ``task_landed`` hook.
* ``on_complete`` — the task finished on its node: the ``task_completed``
  hook.

Hooks are observation-plus-veto only: middleware never mutates queues or
nodes directly.  The one sanctioned side door is
:meth:`~repro.cluster.simulator.ClusterSimulator.release_queued`, which the
retry middleware uses to pull a still-queued task back through the ordinary
event path (and which refuses tasks that already started or are mid-flight
on the migration lane, so a retried task can never land twice).

The chain is *ordered*: ``on_dispatch`` runs front to back and the first
non-``None`` verdict wins (a later middleware never sees a task an earlier
one dropped); ``on_land`` / ``on_complete`` / ``on_reject`` (the
``task_rejected`` hook) are broadcast to every middleware that overrides
them.  The chain subscribes to a bus hook only when some middleware
overrides it, so a chain of pure dispatch policies adds nothing to the
landing and completion paths.
"""

from __future__ import annotations

from abc import ABC
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.simulation.hooks import bind_cluster

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import ClusterNode
    from repro.cluster.simulator import ClusterSimulator
    from repro.simulation.task import Task

#: Event tag of a deferred/retried admission: the payload task re-enters the
#: chain through :meth:`ClusterSimulator._admit` when the event fires.
ADMIT_TAG = "middleware-admit"

#: Event tag of a retry timeout; payload is ``(middleware, task)``.
TIMEOUT_TAG = "middleware-timeout"

#: Verdict actions (first tuple element) understood by the cluster.
REJECT = "reject"
DEFER = "defer"

#: A dispatch verdict: ``None`` accepts; otherwise ``(action, argument)``.
Verdict = Optional[Tuple[str, object]]


def reject(reason: str) -> Verdict:
    """Verdict dropping the task at the dispatch boundary.

    ``reason`` (conventionally the middleware's registry name) lands in the
    task's ``metadata["rejected"]`` and the rejection counter/instant names.
    """
    return (REJECT, reason)


def defer(resume_at: float) -> Verdict:
    """Verdict parking the task until ``resume_at`` (absolute sim time).

    The cluster re-runs the *whole* chain when the task resumes, so an
    earlier middleware still gets its say on the delayed admission.
    """
    return (DEFER, resume_at)


class Middleware(ABC):
    """One stackable dispatch-path policy.

    Subclasses override any subset of the hooks; the base implementations
    are no-ops and overriding none of them is legal (if pointless).  State
    needed at hook time (the cluster and its telemetry) is reached through
    :attr:`chain`, assigned when the chain attaches to its cluster.
    """

    #: Registry name; also the default rejection reason and stats key.
    name: str = "middleware"

    #: The owning chain; ``None`` until :meth:`bind`.
    chain: Optional["MiddlewareChain"] = None

    def bind(self, chain: "MiddlewareChain") -> None:
        """Attach to a chain (and through it the cluster).

        Called once per run before any task arrives; override to cache
        lookups or register gauges, and call ``super().bind(chain)`` first.
        An instance serves one chain: binding it to a second one raises.
        """
        bind_cluster(self, chain, "chain")

    # ------------------------------------------------------------------ hooks

    def on_dispatch(self, task: "Task", now: float) -> Verdict:
        """Admission decision for one task; ``None`` accepts."""
        return None

    def on_land(self, task: "Task", node: "ClusterNode", now: float) -> None:
        """The task reached ``node``'s scheduler."""

    def on_complete(self, task: "Task", node: "ClusterNode", now: float) -> None:
        """The task finished on ``node``."""

    def on_reject(self, task: "Task", reason: str, now: float) -> None:
        """Some middleware (possibly this one) dropped the task."""

    # ------------------------------------------------------------------ misc

    def stats(self) -> Dict[str, float]:
        """Numeric end-of-run stats, surfaced in the cluster result."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class MiddlewareChain:
    """Ordered middleware stack held by one :class:`ClusterSimulator`
    (possibly empty: then it attaches nothing).

    Hook dispatch is precomputed per hook kind: only middlewares that
    actually override a hook are called, and the chain subscribes to the
    cluster's hook bus only for the hooks some middleware overrides, so
    observation-only stacks cost nothing on the paths they ignore.
    """

    def __init__(self, middlewares: Iterable[Middleware]) -> None:
        self.middlewares: List[Middleware] = list(middlewares)
        for mw in self.middlewares:
            if not isinstance(mw, Middleware):
                raise TypeError(f"middleware entries must be Middleware, got {mw!r}")
        self.cluster: Optional["ClusterSimulator"] = None
        base = Middleware
        self._dispatch_hooks = [
            mw for mw in self.middlewares
            if type(mw).on_dispatch is not base.on_dispatch
        ]
        self._land_hooks = [
            mw for mw in self.middlewares if type(mw).on_land is not base.on_land
        ]
        self._complete_hooks = [
            mw for mw in self.middlewares
            if type(mw).on_complete is not base.on_complete
        ]
        self._reject_hooks = [
            mw for mw in self.middlewares if type(mw).on_reject is not base.on_reject
        ]

    # ----------------------------------------------------------------- wiring

    def attach(self, cluster: "ClusterSimulator") -> None:
        """Wire onto ``cluster``: point every middleware at it, put the
        admission pass in front of dispatch and subscribe the observed
        hooks.  An empty chain wires nothing (the middleware-free path)."""
        bind_cluster(self, cluster)
        if not self.middlewares:
            return
        for mw in self.middlewares:
            mw.bind(self)
        # Chosen once here: each arrival goes straight to the admission pass.
        cluster._on_arrival = cluster._admit
        hooks = cluster.hooks
        if self._land_hooks:
            hooks.subscribe("task_landed", self.on_land)
        if self._complete_hooks:
            hooks.subscribe("task_completed", self.on_complete)
        if self._reject_hooks:
            hooks.subscribe("task_rejected", self.notify_reject)

    def names(self) -> List[str]:
        """Middleware registry names in chain order."""
        return [mw.name for mw in self.middlewares]

    # ------------------------------------------------------------------ hooks

    def on_dispatch(self, task: "Task", now: float) -> Verdict:
        """First non-``None`` verdict wins; ``None`` admits the task."""
        for mw in self._dispatch_hooks:
            verdict = mw.on_dispatch(task, now)
            if verdict is not None:
                return verdict
        return None

    def on_land(self, task: "Task", node: "ClusterNode", now: float) -> None:
        for mw in self._land_hooks:
            mw.on_land(task, node, now)

    def on_complete(self, task: "Task", node: "ClusterNode", now: float) -> None:
        for mw in self._complete_hooks:
            mw.on_complete(task, node, now)

    def notify_reject(self, task: "Task", reason: str, now: float) -> None:
        for mw in self._reject_hooks:
            mw.on_reject(task, reason, now)

    # ------------------------------------------------------------------ stats

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per-middleware stats keyed by name (``name#i`` on duplicates)."""
        result: Dict[str, Dict[str, float]] = {}
        for index, mw in enumerate(self.middlewares):
            stats = mw.stats()
            if not stats:
                continue
            key = mw.name if mw.name not in result else f"{mw.name}#{index}"
            result[key] = dict(stats)
        return result

    def __len__(self) -> int:
        return len(self.middlewares)

    @classmethod
    def build(cls, middleware, specs) -> "MiddlewareChain":
        """Coerce a constructor argument to a chain: a prebuilt chain, an
        iterable of middleware instances, or ``None`` to build ``specs``
        (the config's declarative entries)."""
        if isinstance(middleware, cls):
            return middleware
        if middleware is None:
            middleware = [spec.build() for spec in specs]
        return cls(middleware)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MiddlewareChain({' -> '.join(self.names()) or 'empty'})"
