"""Load index over the active node set, refreshed when a pick reads it.

The JSQ-family dispatchers used to rescan every active node per arrival —
O(fleet) on the hottest cluster path.  The index keeps one lazily-invalidated
min-heap per registered load key (e.g. capacity-normalised queue depth), so
the least-loaded pick is an O(log n) peek.  A load change only marks its
node dirty (:meth:`NodeLoadIndex.touch`); the next :meth:`NodeLoadIndex.min`
re-keys each dirty, still-tracked node once before it peeks.  A node whose
load moves several times between two picks is therefore pushed once, and
nothing is pushed for dispatchers that never pick.  Load changes include the
network model's ingress transitions: ``begin_ingress`` /
``complete_ingress`` run through the same ``Node -> touch`` notify chain as
deliveries and completions, so queue-depth keys (which count ingress-pending
work, see :func:`repro.cluster.dispatchers.bound_work`) stay fresh while
tasks are on the wire.

Determinism: heap entries order by ``(load, node_id, version)``, exactly the
``(load, node_id)`` tie-break the scanning implementations use, and every
pick sees each tracked node's current key, so an index-backed pick always
equals the scan's pick.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple


class NodeLoadIndex:
    """Min-structures over active nodes, one heap per registered load key."""

    __slots__ = ("_nodes", "_version", "_heaps", "_key_fns", "_dirty")

    def __init__(self) -> None:
        self._nodes: Dict[int, object] = {}
        self._version: Dict[int, int] = {}
        self._heaps: Dict[str, List[Tuple[float, int, int]]] = {}
        self._key_fns: Dict[str, Callable[[object], float]] = {}
        #: Nodes whose load changed since the last pick, by node id (dict
        #: order keeps the refresh deterministic).
        self._dirty: Dict[int, object] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def register(self, name: str, key_fn: Callable[[object], float]) -> None:
        """Start maintaining a heap for ``key_fn`` (idempotent per name)."""
        if name in self._key_fns:
            return
        self._key_fns[name] = key_fn
        self._heaps[name] = self._build(key_fn)

    def add(self, node) -> None:
        """Track ``node`` (it became active); keyed at the next pick."""
        node_id = node.node_id
        if node_id in self._nodes:
            return
        self._nodes[node_id] = node
        self._version.setdefault(node_id, 0)
        self._dirty[node_id] = node

    def discard(self, node) -> None:
        """Stop tracking ``node`` (drained or retired); idempotent.

        Its heap entries go stale at once: :meth:`min` drops entries of
        untracked nodes, and a re-added node is re-keyed under a new version.
        """
        self._nodes.pop(node.node_id, None)

    def touch(self, node) -> None:
        """Note a load change on ``node``; the next pick re-keys it."""
        self._dirty[node.node_id] = node

    def _build(self, key_fn: Callable[[object], float]) -> List[Tuple[float, int, int]]:
        """A fresh heap of every tracked node's current key."""
        version = self._version
        heap = [
            (key_fn(node), node_id, version[node_id])
            for node_id, node in self._nodes.items()
        ]
        heapq.heapify(heap)
        return heap

    def _refresh(self) -> None:
        """Re-key every dirty, still-tracked node once, in every heap."""
        nodes = self._nodes
        version = self._version
        live = []
        for node_id, node in self._dirty.items():
            if node_id in nodes:
                version[node_id] += 1
                live.append(node)
        self._dirty.clear()
        if not live:
            return
        compact_above = max(16, 4 * len(nodes))
        for name, key_fn in self._key_fns.items():
            heap = self._heaps[name]
            if len(heap) + len(live) > compact_above:
                # Lazy invalidation never removes stale entries buried below
                # the top; rebuild before the heap outgrows the live set.
                self._heaps[name] = self._build(key_fn)
                continue
            for node in live:
                node_id = node.node_id
                heapq.heappush(heap, (key_fn(node), node_id, version[node_id]))

    def min(self, name: str):
        """Tracked node with the smallest registered key, or None when empty.

        Ties break on the lower node id — identical to the scanning
        dispatchers' ``min(nodes, key=lambda n: (load, n.node_id))``.
        """
        if name not in self._heaps:
            return None
        if self._dirty:
            self._refresh()
        heap = self._heaps[name]
        nodes = self._nodes
        version = self._version
        while heap:
            _, node_id, stamp = heap[0]
            node = nodes.get(node_id)
            if node is None or stamp != version[node_id]:
                heapq.heappop(heap)
                continue
            return node
        return None


class ActiveNodeView(list):
    """The cluster's live active-node list (id-ordered), carrying its index.

    Index-aware dispatchers recognise this type: when ``select_node`` is
    handed the cluster's own active set, they answer from the incrementally
    maintained :class:`NodeLoadIndex` instead of scanning.  Plain sequences
    (tests, filtered candidate lists) keep the scanning behaviour.
    """

    __slots__ = ("load_index",)

    def __init__(self, load_index: Optional[NodeLoadIndex] = None) -> None:
        super().__init__()
        self.load_index = load_index

    def insert_node(self, node) -> None:
        """Insert keeping node-id order (no-op if already present)."""
        for i, existing in enumerate(self):
            if existing.node_id == node.node_id:
                return
            if existing.node_id > node.node_id:
                self.insert(i, node)
                return
        self.append(node)

    def remove_node(self, node) -> None:
        """Remove by identity; no-op if absent."""
        for i, existing in enumerate(self):
            if existing is node:
                del self[i]
                return
