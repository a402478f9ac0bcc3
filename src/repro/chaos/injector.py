"""Seeded stochastic fault injector driven off the shared event queue.

The injector arms every node the cluster commissions (it subscribes to the
``node_changed`` hook): for each enabled
revocation process (crash / spot) it draws one exponential inter-arrival
from its **own** random stream — ``random.Random(f"chaos-{seed}")``,
isolated from workload generation and randomized dispatchers so enabling
faults never perturbs the rest of the run — and pushes one control-priority
event at the drawn time.  A node fails at most once; draws land on the
cluster's single event queue, so failures interleave deterministically with
arrivals, completions and control ticks.

Crash events tear the node down on the spot
(:meth:`~repro.cluster.simulator.ClusterSimulator._fail_node`).  Spot
revocations emit a warning, put the node into DRAINING (triggering an
immediate migration-rescue pass under deadline pressure) and schedule the
teardown ``warning`` seconds later; a node that drains dry in time escapes
with its work rescued.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from repro.chaos.spec import ChaosSpec
from repro.cluster.node import ClusterNode, NodeState
from repro.simulation.events import EventPriority
from repro.spec import check


class ChaosInjector:
    """Per-run fault injector bound to one cluster."""

    def __init__(self, spec: ChaosSpec, cluster) -> None:
        self.spec = spec
        self.cluster = cluster
        #: Isolated stream: chaos draws must not perturb workload generation
        #: or randomized dispatchers (seed-stream isolation).  A zero-rate
        #: spec draws nothing at all, so the run is bit-identical to
        #: chaos-off.
        self.rng = random.Random(f"chaos-{cluster.config.seed}")
        self.crashes = 0
        self.revocations = 0
        self.escapes = 0
        self._failures_fired = 0

    def attach(self, cluster) -> None:
        """Wire onto ``cluster``: arm every node it commissions (initial
        fleet, scale-ups, replacements).  Chaos can wipe out the fleet."""
        cluster.fleet_can_be_wiped = True
        cluster.hooks.subscribe("node_changed", self._on_node_changed)

    def _on_node_changed(self, node: ClusterNode, what: str, now: float) -> None:
        if what == "commission":
            self.arm(node)

    # ----------------------------------------------------------------- rates

    def node_rates(self, node: ClusterNode) -> Tuple[float, float]:
        """(crash_rate, revocation_rate) for one node: spec override, else
        the fleet-wide spec default."""
        spec = node.spec
        crash = spec.crash_rate if spec.crash_rate is not None else self.spec.crash_rate
        revoke = (
            spec.revocation_rate
            if spec.revocation_rate is not None
            else self.spec.revocation_rate
        )
        return crash, revoke

    # ---------------------------------------------------------------- arming

    def arm(self, node: ClusterNode) -> None:
        """Draw this node's failure times and schedule them.

        One draw per enabled process, in a fixed order (crash first), so the
        stream consumption — and therefore every later draw — is a pure
        function of node-creation order.  Whichever event fires first wins;
        the loser sees a terminal node and does nothing.
        """
        crash_rate, revocation_rate = self.node_rates(node)
        now = self.cluster.now
        if crash_rate > 0.0:
            self.cluster.events.push(
                now + self.rng.expovariate(crash_rate),
                lambda n=node: self._fire_crash(n),
                priority=EventPriority.CONTROL,
                tag=f"chaos-crash-{node.node_id}",
            )
        if revocation_rate > 0.0:
            self.cluster.events.push(
                now + self.rng.expovariate(revocation_rate),
                lambda n=node: self._fire_revocation(n),
                priority=EventPriority.CONTROL,
                tag=f"chaos-revoke-{node.node_id}",
            )

    def _budget_spent(self) -> bool:
        return (
            self.spec.max_failures is not None
            and self._failures_fired >= self.spec.max_failures
        )

    # ---------------------------------------------------------------- firing

    def _fire_crash(self, node: ClusterNode) -> None:
        """Crash-style failure: no warning, immediate teardown."""
        if node.state.terminal or self._budget_spent():
            return
        self._failures_fired += 1
        self.crashes += 1
        self.cluster._fail_node(node, "crash")

    def _fire_revocation(self, node: ClusterNode) -> None:
        """Spot-style revocation: warn, drain, tear down after the lead time."""
        if node.state.terminal or self._budget_spent():
            return
        self._failures_fired += 1
        self.revocations += 1
        cluster = self.cluster
        now = cluster.now
        deadline = now + self.spec.warning
        for hook in cluster.hooks.node_changed:
            hook(node, "warn", now)
        # The warning forces a drain: dispatch stops immediately and an
        # attached migration policy gets one rescue pass right now, racing
        # the deadline.  A node already draining (or still booting) just
        # gets the deadline.
        if node.is_active:
            cluster.drain_node(node)
        else:
            node.start_draining()
        cluster.events.push(
            deadline,
            lambda n=node: self._fire_kill(n),
            priority=EventPriority.CONTROL,
            tag=f"chaos-kill-{node.node_id}",
        )

    def _fire_kill(self, node: ClusterNode) -> None:
        """Warning expired: whatever the drain did not rescue is lost."""
        if node.state.terminal:
            # Drained dry (retired) before the deadline — a full escape —
            # or crashed first; either way there is nothing left to kill.
            if node.state is NodeState.RETIRED:
                self.escapes += 1
                for hook in self.cluster.hooks.node_changed:
                    hook(node, "escape", self.cluster.now)
            return
        self.cluster._fail_node(node, "revocation")


def build_injector(spec: Optional[ChaosSpec], cluster) -> Optional[ChaosInjector]:
    """Coerce a constructor argument (spec, dict, or None: the cluster
    config's spec) to an injector; None when there is no spec."""
    if spec is None:
        spec = cluster.config.chaos
    if spec is None:
        return None
    return ChaosInjector(check(spec, ChaosSpec, "chaos"), cluster)
