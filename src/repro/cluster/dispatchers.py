"""Cluster-level dispatch policies.

The dispatcher is the layer the paper's single-machine study abstracts away:
given an arriving invocation and the currently active nodes, pick the node
that runs it.  Six classic policies are provided — the same spectrum the
load-balancing literature sweeps, from oblivious (random, round-robin)
through load-aware (least-loaded, join-shortest-queue, power-of-two-choices)
to locality-aware (consistent hashing on the function id).

All randomness is seeded so cluster runs stay deterministic.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from bisect import bisect_right
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.node import ClusterNode
from repro.simulation.task import Task


def function_key(task: Task) -> str:
    """Stable identifier of the serverless function a task invokes.

    Reads the task's ``function_id`` field, then a ``"function_id"``
    metadata entry, then its ``name``, then its task id.  Empty identifiers
    fall through (``None`` or ``""``), so anonymous tasks never collide on
    one hash-ring key.
    """
    function_id = task.function_id
    if function_id is None or str(function_id) == "":
        function_id = task.annotation("function_id")
    if function_id is not None and str(function_id) != "":
        return str(function_id)
    if task.name:
        return task.name
    return f"task-{task.task_id}"


class Dispatcher(ABC):
    """Abstract base for cluster dispatch policies."""

    #: Short machine-readable name, used by the registry and result labels.
    name: str = "base"

    #: True for policies that sample per-node load before picking (the
    #: JSQ family).  Under a non-zero-RTT :class:`~repro.cluster.config.
    #: NetworkSpec` these pay the probe round trip(s) on every dispatch;
    #: oblivious and locality-aware policies dispatch blind and pay only the
    #: one-way wire delay — the Sparrow-style late-binding tradeoff.
    probes_load: bool = False

    @abstractmethod
    def select_node(self, task: Task, nodes: Sequence[ClusterNode]) -> ClusterNode:
        """Pick the node that should run ``task``.

        Args:
            task: The arriving invocation.
            nodes: Non-empty sequence of *active* nodes, in node-id order.
                When this is the cluster's own
                :class:`~repro.cluster.load_index.ActiveNodeView`,
                load-aware policies answer from the incrementally maintained
                index in O(log n) instead of scanning; plain sequences keep
                the scanning behaviour (same pick either way).
        """

    def load_index_key(self) -> Optional[Tuple[str, Callable[[ClusterNode], float]]]:
        """(name, key function) of the load signal this policy wants indexed.

        ``None`` (the default) means the policy never consults the index.
        The cluster registers the returned key on its
        :class:`~repro.cluster.load_index.NodeLoadIndex` at construction.
        """
        return None

    def describe(self) -> str:
        """One-line human description used in reports."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class RandomDispatcher(Dispatcher):
    """Uniform random node choice (the oblivious baseline)."""

    name = "random"

    def __init__(self, seed: int = 7) -> None:
        self.rng = np.random.default_rng(seed)

    def select_node(self, task: Task, nodes: Sequence[ClusterNode]) -> ClusterNode:
        return nodes[int(self.rng.integers(len(nodes)))]


class RoundRobinDispatcher(Dispatcher):
    """Cyclic assignment over the active nodes.

    The cursor tracks the *node id* last dispatched to, not a raw index, so
    the cycle stays anchored when the active set changes under it: a raw
    index silently re-targets a different node whenever the autoscaler adds
    or drains a node mid-run, skewing the sweep.  ``nodes`` is id-ordered
    (the cluster's active view), so "the next node after the last id, wrapping"
    resumes the cycle deterministically — a drained node is skipped, a new
    node (ids are never reused, so always the highest id) joins at the end of
    the cycle.  On a static fleet this is pick-for-pick identical to the
    index counter.
    """

    name = "round_robin"

    def __init__(self) -> None:
        self._last_id: Optional[int] = None

    def select_node(self, task: Task, nodes: Sequence[ClusterNode]) -> ClusterNode:
        if self._last_id is None:
            node = nodes[0]
        else:
            # First node with an id beyond the cursor (binary search over the
            # id-ordered active view), wrapping to the lowest id.
            lo, hi = 0, len(nodes)
            while lo < hi:
                mid = (lo + hi) // 2
                if nodes[mid].node_id <= self._last_id:
                    lo = mid + 1
                else:
                    hi = mid
            node = nodes[lo] if lo < len(nodes) else nodes[0]
        self._last_id = node.node_id
        return node


def _node_capacity(node: ClusterNode) -> float:
    """Service capacity of a node in baseline-core equivalents.

    Falls back to 1.0 for load surfaces that do not expose capacity (test
    stubs, user-provided node-likes), where normalization degenerates to the
    raw count.
    """
    return float(getattr(node, "capacity", 1.0))


def bound_work(node: ClusterNode) -> int:
    """Jobs committed to a node: delivered plus ingress (on the wire).

    Under a non-zero-RTT network model, work a dispatcher just committed to
    a node is in flight for the wire delay; queue-depth signals must count
    it or every arrival in that window sees the same "shortest" queue and
    JSQ herds onto one node.  Load surfaces without an ingress queue (test
    stubs, zero-RTT nodes) contribute zero.

    This is the one definition of "committed work" — the dispatch load
    keys, the autoscaler signal and victim choice, and the simulator's
    drain/retire checks all call it.
    """
    return node.inflight + getattr(node, "ingress", 0)


def normalized_load(node: ClusterNode) -> float:
    """Jobs bound to the node per unit of capacity — the heterogeneous-fleet
    load signal shared by the JSQ-family dispatchers and the migration
    layer."""
    return bound_work(node) / _node_capacity(node)


def _queue_load(node: ClusterNode, normalized: bool) -> float:
    """The JSQ-family load key: normalised or raw jobs bound to the node."""
    if normalized:
        return normalized_load(node)
    return float(bound_work(node))


def _raw_queue_load(node: ClusterNode) -> float:
    return float(bound_work(node))


def _busy_load(node: ClusterNode) -> int:
    """Busy cores plus ingress: utilization the node is committed to.

    Ingress counts for the same reason it does in :func:`bound_work` — a
    wire-delayed task will occupy a core the moment it lands, and a
    busy-core signal blind to it would herd every burst onto one node for
    the whole wire window.
    """
    return node.busy_core_count() + getattr(node, "ingress", 0)


def _normalized_busy_load(node: ClusterNode) -> float:
    return _busy_load(node) / _node_capacity(node)


def _raw_busy_load(node: ClusterNode) -> float:
    return float(_busy_load(node))


class LeastLoadedDispatcher(Dispatcher):
    """Node with the fewest busy cores (instantaneous utilization).

    Under a non-zero-RTT network the signal also counts ingress-pending
    tasks — each will occupy a core on landing — so a burst spreads instead
    of herding onto whichever node looked idle when the wave started (at
    zero RTT the term is always zero and this is exactly busy cores).
    With ``normalized`` (the default) the count is divided by node
    capacity, so a half-busy little node looks hotter than a quarter-busy
    big one; unnormalized is the PR-1 behaviour and treats all nodes alike.
    On homogeneous fleets the two orderings are identical.
    """

    name = "least_loaded"
    probes_load = True

    def __init__(self, normalized: bool = True) -> None:
        self.normalized = normalized
        self._index_name = "busy_load_normalized" if normalized else "busy_load_raw"

    def load_index_key(self) -> Tuple[str, Callable[[ClusterNode], float]]:
        if self.normalized:
            return (self._index_name, _normalized_busy_load)
        return (self._index_name, _raw_busy_load)

    def select_node(self, task: Task, nodes: Sequence[ClusterNode]) -> ClusterNode:
        index = getattr(nodes, "load_index", None)
        if index is not None:
            pick = index.min(self._index_name)
            if pick is not None:
                return pick
        if self.normalized:
            return min(
                nodes, key=lambda n: (_normalized_busy_load(n), n.node_id)
            )
        return min(nodes, key=lambda n: (_busy_load(n), n.node_id))


class JoinShortestQueueDispatcher(Dispatcher):
    """Node with the fewest jobs in the system (classic JSQ).

    With ``normalized`` (the default) queue depth is divided by node
    capacity — the heterogeneous-fleet variant the load-balancing literature
    calls JSQ(d)/capacity-weighted JSQ; unnormalized compares raw counts.
    """

    name = "jsq"
    probes_load = True

    def __init__(self, normalized: bool = True) -> None:
        self.normalized = normalized
        self._index_name = "queue_load_normalized" if normalized else "queue_load_raw"

    def load_index_key(self) -> Tuple[str, Callable[[ClusterNode], float]]:
        if self.normalized:
            return (self._index_name, normalized_load)
        return (self._index_name, _raw_queue_load)

    def select_node(self, task: Task, nodes: Sequence[ClusterNode]) -> ClusterNode:
        index = getattr(nodes, "load_index", None)
        if index is not None:
            pick = index.min(self._index_name)
            if pick is not None:
                return pick
        return min(
            nodes, key=lambda n: (_queue_load(n, self.normalized), n.node_id)
        )


class PowerOfTwoDispatcher(Dispatcher):
    """Sample two random nodes, keep the less loaded one.

    Mitzenmacher's "power of two choices": near-JSQ tail latency at the
    probing cost of a random policy.  ``normalized`` compares the sampled
    nodes on capacity-normalised queue depth (heterogeneous fleets).
    """

    name = "power_of_two"
    probes_load = True

    def __init__(self, seed: int = 7, choices: int = 2, normalized: bool = True) -> None:
        if choices < 2:
            raise ValueError(f"choices must be >= 2, got {choices!r}")
        self.rng = np.random.default_rng(seed)
        self.choices = choices
        self.normalized = normalized

    def select_node(self, task: Task, nodes: Sequence[ClusterNode]) -> ClusterNode:
        if len(nodes) == 1:
            return nodes[0]
        count = min(self.choices, len(nodes))
        picks = self.rng.choice(len(nodes), size=count, replace=False)
        sampled = [nodes[int(i)] for i in picks]
        return min(
            sampled, key=lambda n: (_queue_load(n, self.normalized), n.node_id)
        )


class ConsistentHashDispatcher(Dispatcher):
    """Route each function id to a fixed node via a consistent-hash ring.

    Repeat invocations of one function land on one node (warm locality);
    when nodes join or leave, only the keys on the affected arc move.  The
    ring uses CRC32 (stable across processes, unlike Python's salted
    ``hash``) with ``replicas`` virtual points per node.
    """

    name = "consistent_hash"

    def __init__(self, replicas: int = 32) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas!r}")
        self.replicas = replicas
        self._ring: List[Tuple[int, int]] = []  # (point, node_id), sorted
        self._ring_ids: Optional[Tuple[int, ...]] = None
        #: node_id -> position in the fleet the ring was built from.  The
        #: pick indexes the *caller's* node sequence through this map (never
        #: a cached node object), so a node that drained and was replaced can
        #: never be served from a stale ring entry.
        self._positions: dict = {}

    @staticmethod
    def _hash(key: str) -> int:
        return zlib.crc32(key.encode("utf-8"))

    def _rebuild(self, nodes: Sequence[ClusterNode]) -> None:
        self._ring = sorted(
            (self._hash(f"node-{node.node_id}/{replica}"), node.node_id)
            for node in nodes
            for replica in range(self.replicas)
        )
        self._ring_ids = tuple(node.node_id for node in nodes)
        self._positions = {node.node_id: i for i, node in enumerate(nodes)}

    def select_node(self, task: Task, nodes: Sequence[ClusterNode]) -> ClusterNode:
        ids = tuple(node.node_id for node in nodes)
        if ids != self._ring_ids:
            # Membership changed (drain, scale-up, drain→re-add): rebuild.
            self._rebuild(nodes)
        point = self._hash(function_key(task))
        index = bisect_right(self._ring, (point, -1)) % len(self._ring)
        target_id = self._ring[index][1]
        position = self._positions.get(target_id)
        if position is None or position >= len(nodes):
            raise RuntimeError(
                f"consistent-hash ring is stale: node {target_id} missing"
            )
        node = nodes[position]
        if node.node_id != target_id:
            raise RuntimeError(
                f"consistent-hash ring is stale: node {target_id} missing"
            )
        return node
