"""Machine and core-group model.

A :class:`Machine` owns a fixed set of cores partitioned into named
:class:`CoreGroup` s.  Schedulers address cores through their group ("fifo",
"cfs", or a single "all" group for the non-hybrid baselines), and the
rightsizing controller moves cores between groups at runtime.

The query surface schedulers hit on every arrival (``least_loaded_core``,
``idle_cores``, ``group_cores``) is *indexed* rather than scanned: the
machine keeps per-group core lists pre-sorted, maintains idle sets and
lazily-invalidated least-loaded heaps, and is notified by its cores on every
load change — so the dispatch hot path costs O(log n) instead of re-sorting
and re-filtering the whole core list per event.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.simulation.config import SimulationConfig
from repro.simulation.cpu import Core, CoreMode

#: Default group name used by single-policy schedulers.
DEFAULT_GROUP = "all"


@dataclass
class CoreGroup:
    """A named set of cores sharing one scheduling policy."""

    name: str
    core_ids: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.core_ids)

    def __contains__(self, core_id: int) -> bool:
        return core_id in self.core_ids

    def add(self, core_id: int) -> None:
        if core_id in self.core_ids:
            raise ValueError(f"core {core_id} is already in group {self.name!r}")
        self.core_ids.append(core_id)

    def remove(self, core_id: int) -> None:
        try:
            self.core_ids.remove(core_id)
        except ValueError as exc:
            raise ValueError(f"core {core_id} is not in group {self.name!r}") from exc


class Machine:
    """A multicore machine with named, dynamically resizable core groups."""

    def __init__(
        self,
        config: SimulationConfig,
        groups: Optional[Dict[str, int]] = None,
        group_modes: Optional[Dict[str, CoreMode]] = None,
    ) -> None:
        """Build a machine.

        Args:
            config: Simulation configuration (core count, cost models).
            groups: Mapping of group name to number of cores.  When omitted a
                single group named ``"all"`` holds every core.  The sizes must
                sum to ``config.num_cores``.
            group_modes: Optional per-group :class:`CoreMode`; defaults to
                ``FAIR_SHARE`` for every group.
        """
        self.config = config
        group_sizes = dict(groups) if groups else {DEFAULT_GROUP: config.num_cores}
        total = sum(group_sizes.values())
        if total != config.num_cores:
            raise ValueError(
                f"group sizes {group_sizes} sum to {total}, expected "
                f"{config.num_cores} cores"
            )
        for name, size in group_sizes.items():
            if size < 0:
                raise ValueError(f"group {name!r} cannot have negative size {size}")
        modes = group_modes or {}

        self.cores: List[Core] = []
        self.groups: Dict[str, CoreGroup] = {name: CoreGroup(name) for name in group_sizes}
        # Called (with no arguments) whenever the busy-core count changes;
        # the cluster node hooks this to keep dispatcher load indexes fresh.
        self.on_load_change: Optional[Callable[[], None]] = None

        # --- incremental indexes ------------------------------------------
        #: Per-group core ids, kept sorted (cores are created in id order and
        #: moves use insort, so no query ever re-sorts).
        self._sorted_ids: Dict[str, List[int]] = {name: [] for name in group_sizes}
        #: Idle *and unlocked* core ids, per group and machine-wide.
        self._idle_ids: Dict[str, set] = {name: set() for name in group_sizes}
        self._idle_all: set = set()
        #: Lazily-invalidated min-heaps of (nr_running, core_id, version).
        #: A heap is only *maintained* once its group has been queried via
        #: ``least_loaded_core`` — policies that never ask (FIFO-family uses
        #: the idle sets) pay nothing per load change.
        self._load_heaps: Dict[str, List[Tuple[int, int, int]]] = {
            name: [] for name in group_sizes
        }
        self._load_heap_all: List[Tuple[int, int, int]] = []
        self._heap_groups: set = set()
        self._track_global_heap = False
        #: Version stamp per core; heap entries with an older stamp are stale.
        self._load_version: Dict[int, int] = {}
        #: Last observed (nr_running, locked), indexed by core id.
        self._observed: List[Tuple[int, bool]] = []
        self._busy_count = 0

        core_id = 0
        for name, size in group_sizes.items():
            mode = modes.get(name, CoreMode.FAIR_SHARE)
            for _ in range(size):
                core = Core(
                    core_id=core_id,
                    group=name,
                    context_switch=config.context_switch,
                    mode=mode,
                    migration_cost=config.migration_cost,
                    speed=config.core_speed,
                )
                self.cores.append(core)
                self.groups[name].add(core_id)
                self._register_core(core)
                core_id += 1
        #: A load heap is rebuilt once it holds this many entries: stale
        #: entries below the top are never popped, so this bounds its size.
        self._heap_cap = max(16, 4 * len(self.cores))

    def _register_core(self, core: Core) -> None:
        cid = core.core_id
        self._sorted_ids[core.group].append(cid)  # built in id order
        self._idle_ids[core.group].add(cid)
        self._idle_all.add(cid)
        self._load_version[cid] = 0
        self._observed.append((0, False))  # cores register in id order
        core._load_listener = self._core_load_changed

    # ----------------------------------------------------------- index upkeep

    def _core_load_changed(self, core: Core) -> None:
        """Core callback: refresh every index after an nr/locked change."""
        cid = core.core_id
        nr = len(core._tasks)
        locked = core.locked
        prev_nr, prev_locked = self._observed[cid]
        if nr == prev_nr and locked == prev_locked:
            return
        self._observed[cid] = (nr, locked)
        group = core.group

        idle_now = nr == 0 and not locked
        idle_before = prev_nr == 0 and not prev_locked
        if idle_now != idle_before:
            if idle_now:
                self._idle_ids[group].add(cid)
                self._idle_all.add(cid)
            else:
                self._idle_ids[group].discard(cid)
                self._idle_all.discard(cid)

        # Versions only matter to heap entries: skip them until some
        # least_loaded_core query starts a heap.
        if self._heap_groups or self._track_global_heap:
            version = self._load_version[cid] + 1
            self._load_version[cid] = version
            if not locked:
                entry = (nr, cid, version)
                if group in self._heap_groups:
                    heap = self._load_heaps[group]
                    if len(heap) > self._heap_cap:
                        self._load_heaps[group] = self._build_heap(
                            self.group_cores(group)
                        )
                    else:
                        heapq.heappush(heap, entry)
                if self._track_global_heap:
                    if len(self._load_heap_all) > self._heap_cap:
                        self._load_heap_all = self._build_heap(self.cores)
                    else:
                        heapq.heappush(self._load_heap_all, entry)

        if (prev_nr > 0) != (nr > 0):
            self._busy_count += 1 if nr > 0 else -1
            if self.on_load_change is not None:
                self.on_load_change()

    def _build_heap(self, cores: List[Core]) -> List[Tuple[int, int, int]]:
        """Fresh heap entries for the current state of ``cores``."""
        heap = [
            (core.nr_running, core.core_id, self._load_version[core.core_id])
            for core in cores
            if not core.locked
        ]
        heapq.heapify(heap)
        return heap

    def _least_loaded_from(
        self, heap: List[Tuple[int, int, int]], group: Optional[str]
    ) -> Optional[Core]:
        """Peek the best live heap entry, discarding stale ones."""
        while heap:
            nr, cid, version = heap[0]
            core = self.cores[cid]
            if (
                version != self._load_version[cid]
                or core.locked
                or (group is not None and core.group != group)
            ):
                heapq.heappop(heap)
                continue
            return core
        return None

    # ------------------------------------------------------------------ query

    def __len__(self) -> int:
        return len(self.cores)

    def core(self, core_id: int) -> Core:
        """Return the core with the given id."""
        if core_id < 0 or core_id >= len(self.cores):
            raise KeyError(f"no core with id {core_id}")
        return self.cores[core_id]

    def group(self, name: str) -> CoreGroup:
        if name not in self.groups:
            raise KeyError(f"no core group named {name!r}")
        return self.groups[name]

    def group_cores(self, name: str) -> List[Core]:
        """All cores currently in the named group, in id order."""
        self.group(name)  # raise KeyError for unknown groups
        return [self.cores[cid] for cid in self._sorted_ids[name]]

    def group_size(self, name: str) -> int:
        return len(self.group(name))

    def idle_cores(self, group: Optional[str] = None) -> List[Core]:
        """Idle, unlocked cores — optionally restricted to one group."""
        if group is not None:
            self.group(group)
            ids = self._idle_ids[group]
        else:
            ids = self._idle_all
        return [self.cores[cid] for cid in sorted(ids)]

    def first_idle_core(self, group: Optional[str] = None) -> Optional[Core]:
        """Lowest-id idle, unlocked core — optionally in one group — or None."""
        if group is not None:
            ids = self._idle_ids.get(group)
            if ids is None:
                self.group(group)  # raises KeyError for unknown groups
        else:
            ids = self._idle_all
        if not ids:
            return None
        return self.cores[min(ids)]

    def busy_cores(self, group: Optional[str] = None) -> List[Core]:
        cores = self.group_cores(group) if group else self.cores
        return [core for core in cores if core.is_busy]

    def busy_core_count(self) -> int:
        """Number of cores executing at least one task (O(1))."""
        return self._busy_count

    def idle_core_count(self) -> int:
        """Number of idle, unlocked cores machine-wide (O(1))."""
        return len(self._idle_all)

    def least_loaded_core(self, group: Optional[str] = None) -> Optional[Core]:
        """Unlocked core with the fewest runnable tasks (ties: lowest id)."""
        if group is not None:
            self.group(group)
            if group not in self._heap_groups:
                self._load_heaps[group] = self._build_heap(self.group_cores(group))
                self._heap_groups.add(group)
            return self._least_loaded_from(self._load_heaps[group], group)
        if not self._track_global_heap:
            self._load_heap_all = self._build_heap(self.cores)
            self._track_global_heap = True
        return self._least_loaded_from(self._load_heap_all, None)

    def total_running(self, group: Optional[str] = None) -> int:
        """Runnable tasks on the group's cores (or on every core)."""
        cores = self.group_cores(group) if group is not None else self.cores
        return sum(core.nr_running for core in cores)

    def sync_all(self, now: float, group: Optional[str] = None) -> None:
        """Bring every core's service accounting up to ``now``."""
        cores = self.group_cores(group) if group else self.cores
        for core in cores:
            core.sync(now)

    def group_utilization(
        self, name: str, busy_snapshots: Dict[int, float], window: float
    ) -> float:
        """Average utilization of a group over a window.

        Args:
            busy_snapshots: per-core ``stats.busy_time`` values captured at the
                start of the window.
            window: window length in seconds.
        """
        cores = self.group_cores(name)
        if not cores:
            return 0.0
        total = 0.0
        for core in cores:
            snapshot = busy_snapshots.get(core.core_id, core.stats.busy_time)
            total += core.utilization_since(snapshot, window)
        return total / len(cores)

    # ------------------------------------------------------------- core moves

    def move_core(
        self,
        core_id: int,
        from_group: str,
        to_group: str,
        mode: Optional[CoreMode] = None,
    ) -> Core:
        """Reassign a core from one group to another.

        The caller (the rightsizing controller) is responsible for the
        lock/drain/unlock choreography; this method only updates membership.
        """
        if from_group == to_group:
            raise ValueError("from_group and to_group must differ")
        source = self.group(from_group)
        destination = self.group(to_group)
        if core_id not in source:
            raise ValueError(f"core {core_id} is not in group {from_group!r}")
        source.remove(core_id)
        destination.add(core_id)
        core = self.core(core_id)
        core.change_group(to_group, mode=mode)
        # Reindex: sorted membership, idle sets, and a fresh heap entry
        # under the new group (version bump invalidates every entry filed
        # under the old group).
        self._sorted_ids[from_group].remove(core_id)
        insort(self._sorted_ids[to_group], core_id)
        if core_id in self._idle_ids[from_group]:
            self._idle_ids[from_group].discard(core_id)
            self._idle_ids[to_group].add(core_id)
        version = self._load_version[core_id] + 1
        self._load_version[core_id] = version
        if not core.locked:
            entry = (core.nr_running, core_id, version)
            if to_group in self._heap_groups:
                heapq.heappush(self._load_heaps[to_group], entry)
            if self._track_global_heap:
                heapq.heappush(self._load_heap_all, entry)
        return core

    def ensure_group(self, name: str) -> CoreGroup:
        """Create an empty group if it does not exist yet."""
        if name not in self.groups:
            self.groups[name] = CoreGroup(name)
            self._sorted_ids[name] = []
            self._idle_ids[name] = set()
            self._load_heaps[name] = []
        return self.groups[name]

    def group_sizes(self) -> Dict[str, int]:
        """Current number of cores per group."""
        return {name: len(group) for name, group in self.groups.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = ", ".join(f"{name}={len(group)}" for name, group in self.groups.items())
        return f"Machine(cores={len(self.cores)}, groups=[{sizes}])"


def build_machine(
    num_cores: int,
    groups: Optional[Dict[str, int]] = None,
    config: Optional[SimulationConfig] = None,
) -> Machine:
    """Convenience constructor used throughout tests and examples."""
    cfg = config or SimulationConfig(num_cores=num_cores)
    if cfg.num_cores != num_cores:
        cfg = cfg.with_cores(num_cores)
    return Machine(cfg, groups=groups)
