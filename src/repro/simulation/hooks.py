"""The run's lifecycle-hook bus.

Every simulator fires one named hook per task or node state change, and
the features on a run (the telemetry probe, and on a fleet the autoscaler,
migration policy, middleware chain and fault injector) subscribe callbacks
to the hooks they care about.  The bus holds one tuple of callbacks per hook,
so a call site is a loop over a tuple that is empty when nothing listens::

    for hook in self.hooks.task_started:
        hook(self, task, core, self.now)

The :class:`~repro.simulation.engine.EventLoop` owns its run's bus; engines
and cluster nodes read the tuples from the loop they run on at call time.
"""

from __future__ import annotations

from typing import Callable, Dict

#: Hook name -> its arguments; ``now`` is the simulated time and
#: ``engine.node`` the cluster node (``None`` on a standalone machine).
HOOKS: Dict[str, str] = {
    # Fired once as ``run()`` starts: features arm their periodic timers.
    "run_started": "now",
    # Machine hooks, fired by a MachineEngine or the node delivering to it.
    "task_queued": "engine, task, now",  # waits in the machine's queue
    "task_started": "engine, task, core, now",
    "task_stopped": "engine, task, preempted, now",  # runnable if preempted
    "task_finished": "engine, task, now",
    # Admission hooks.
    "task_arrived": "task, now",
    "task_resumed": "task, now",  # a deferred or retried task re-enters
    "task_deferred": "task, resume_at, now",
    "task_rejected": "task, reason, now",
    # Fleet hooks, fired by the cluster.
    "task_dispatched": "task, node, now",
    "task_landed": "task, node, now",  # the node's scheduler took the task
    "task_completed": "task, node, now",  # the fleet accounted the finish
    "task_released": "task, node, now",  # retry pulled it off its queue
    "task_lost": "task, node, now",  # a node failure took it; re-admitted
    "migration_planned": "plans, now",
    "task_migrating": "plan, now",
    # ``moved`` is False when the task went back to its source or waits
    # for a booting node.
    "task_migrated": "task, moved, now",
    # ``what``: "commission" (created, booting or active), "active"
    # (booted), "drain", "retire", "warn" (spot revocation warning),
    # "escape" (a warned node drained dry in time), or the failure reason
    # ("crash", "revocation") when the node was torn down.
    "node_changed": "node, what, now",
    # A torn-down node's lost tasks were all re-admitted (fired after the
    # failure's ``node_changed`` and ``task_lost`` hooks).
    "node_failed": "node, now",
    "autoscaled": "action, load, now",
}


class HookBus:
    """One tuple of subscriber callbacks per hook; all empty by default."""

    __slots__ = tuple(HOOKS)

    def __init__(self) -> None:
        for name in HOOKS:
            setattr(self, name, ())

    def subscribe(self, hook: str, callback: Callable) -> None:
        """Append ``callback`` to ``hook``'s subscribers (called in order)."""
        if hook not in HOOKS:
            raise ValueError(f"unknown hook {hook!r}; known: {', '.join(HOOKS)}")
        setattr(self, hook, getattr(self, hook) + (callback,))


def bind_cluster(feature, cluster, attr: str = "cluster") -> None:
    """Point ``feature.<attr>`` at ``cluster`` (or at what stands for it,
    such as a middleware's chain); a fleet feature serves one cluster."""
    bound = getattr(feature, attr, None)
    if bound is not None and bound is not cluster:
        raise ValueError(
            f"this {type(feature).__name__} is already attached to another "
            "cluster; build one per cluster"
        )
    setattr(feature, attr, cluster)
