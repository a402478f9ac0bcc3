"""Dispatch policies: selection logic, determinism, locality."""

import pytest

from repro.simulation.task import Task
from repro.cluster.dispatchers import (
    ConsistentHashDispatcher,
    JoinShortestQueueDispatcher,
    LeastLoadedDispatcher,
    PowerOfTwoDispatcher,
    RandomDispatcher,
    RoundRobinDispatcher,
    function_key,
)


def make_task(task_id: int = 0) -> Task:
    return Task(task_id=task_id, arrival_time=0.0, service_time=1.0)


class StubNode:
    """Minimal stand-in exposing the load surface dispatchers read."""

    def __init__(self, node_id, inflight=0, busy_cores=0, capacity=1.0):
        self.node_id = node_id
        self.inflight = inflight
        self.capacity = capacity
        self._busy_cores = busy_cores

    def busy_core_count(self):
        return self._busy_cores


def stub_fleet(*loads):
    return [StubNode(i, inflight=load, busy_cores=load) for i, load in enumerate(loads)]


class TestFunctionKey:
    def test_prefers_metadata_function_id(self):
        task = make_task()
        task.metadata["function_id"] = "fib(30)/128mb"
        assert function_key(task) == "fib(30)/128mb"

    @pytest.mark.parametrize(
        "field, entry, name, want",
        [
            ("fib(30)/128mb", "meta-id", "fib(30)", "fib(30)/128mb"),
            (None, "meta-id", "fib(30)", "meta-id"),
            ("", "meta-id", "fib(30)", "meta-id"),
            (None, None, "fib(30)", "fib(30)"),
            ("", "", "fib(30)", "fib(30)"),
            (None, None, "", "task-7"),
            ("", "", "", "task-7"),
        ],
    )
    def test_precedence_field_metadata_name_id(self, field, entry, name, want):
        task = Task(7, 0.0, 1.0, name=name, function_id=field)
        if entry is not None:
            task.metadata["function_id"] = entry
        assert function_key(task) == want

    def test_generated_task_keys_on_its_field_without_metadata(self):
        task = Task(0, 0.0, 1.0, name="fib(30)", function_id="fib(30)/256mb")
        assert function_key(task) == "fib(30)/256mb"
        assert task._metadata is None

    def test_falls_back_to_name_then_id(self):
        named = make_task(task_id=3)
        named.name = "fib(30)"
        assert function_key(named) == "fib(30)"
        anonymous = make_task(task_id=3)
        assert function_key(anonymous) == "task-3"

    def test_empty_function_id_does_not_collide(self):
        """Regression: ``function_id=""`` used to map every task to one key."""
        first, second = make_task(task_id=1), make_task(task_id=2)
        first.metadata["function_id"] = ""
        second.metadata["function_id"] = ""
        assert function_key(first) != function_key(second)
        assert function_key(first) == "task-1"

    def test_empty_name_falls_through_to_task_id(self):
        task = make_task(task_id=9)
        task.name = ""
        assert function_key(task) == "task-9"

    def test_named_fallback_applies_with_empty_function_id(self):
        task = make_task(task_id=4)
        task.metadata["function_id"] = ""
        task.name = "fib(31)"
        assert function_key(task) == "fib(31)"

    def test_key_is_stable_across_calls(self):
        task = make_task(task_id=5)
        task.metadata["function_id"] = "fib(33)/256mb"
        assert function_key(task) == function_key(task)

    def test_anonymous_tasks_spread_over_the_ring(self):
        """With the fix, anonymous tasks route by task id, not one shared key."""
        dispatcher = ConsistentHashDispatcher()
        nodes = stub_fleet(0, 0, 0, 0)
        picks = set()
        for task_id in range(64):
            task = make_task(task_id=task_id)
            task.metadata["function_id"] = ""
            picks.add(dispatcher.select_node(task, nodes).node_id)
        assert len(picks) > 1


class TestRoundRobin:
    def test_cycles_through_nodes(self):
        dispatcher = RoundRobinDispatcher()
        nodes = stub_fleet(0, 0, 0)
        picks = [dispatcher.select_node(make_task(), nodes).node_id for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_cursor_survives_node_churn(self):
        """Regression: the raw index cursor skewed whenever the active set
        changed mid-sweep — adding or draining a node silently re-targeted
        a different node.  The cycle must continue from the last *id*."""
        dispatcher = RoundRobinDispatcher()
        fleet = {i: StubNode(i) for i in range(3)}
        nodes = [fleet[0], fleet[1], fleet[2]]

        def pick():
            return dispatcher.select_node(make_task(), nodes).node_id

        assert [pick(), pick()] == [0, 1]
        # Node 1 drains right after being dispatched to: the sweep resumes
        # at node 2 (the raw index would have re-targeted it anyway here,
        # but the cursor must not point at the removed node).
        nodes.remove(fleet[1])
        assert pick() == 2
        # A new node (ids are never reused: always the highest) joins the
        # *end* of the cycle; after wrapping we sweep 0 -> 2 -> 3.
        fleet[3] = StubNode(3)
        nodes.append(fleet[3])
        assert [pick(), pick(), pick()] == [3, 0, 2]

    def test_cursor_wraps_when_last_dispatched_node_drains(self):
        dispatcher = RoundRobinDispatcher()
        fleet = {i: StubNode(i) for i in range(3)}
        nodes = [fleet[0], fleet[1], fleet[2]]
        for _ in range(3):  # cursor now on node 2
            dispatcher.select_node(make_task(), nodes)
        nodes.remove(fleet[2])
        # No id beyond 2 remains: wrap to the lowest id, not an IndexError.
        assert dispatcher.select_node(make_task(), nodes).node_id == 0

    def test_drain_before_cursor_does_not_skip_nodes(self):
        """The raw-index bug: removing node 0 after dispatching to it made
        index 1 point at node 2, silently skipping node 1."""
        dispatcher = RoundRobinDispatcher()
        fleet = {i: StubNode(i) for i in range(3)}
        nodes = [fleet[0], fleet[1], fleet[2]]
        assert dispatcher.select_node(make_task(), nodes).node_id == 0
        nodes.remove(fleet[0])
        assert dispatcher.select_node(make_task(), nodes).node_id == 1


class TestRandom:
    def test_seeded_and_reproducible(self):
        nodes = stub_fleet(0, 0, 0, 0)
        first = [
            RandomDispatcher(seed=5).select_node(make_task(), nodes).node_id
            for _ in range(1)
        ]
        second = [
            RandomDispatcher(seed=5).select_node(make_task(), nodes).node_id
            for _ in range(1)
        ]
        assert first == second

    def test_covers_every_node_eventually(self):
        dispatcher = RandomDispatcher(seed=5)
        nodes = stub_fleet(0, 0, 0, 0)
        picks = {dispatcher.select_node(make_task(), nodes).node_id for _ in range(100)}
        assert picks == {0, 1, 2, 3}


class TestLoadAware:
    def test_least_loaded_picks_fewest_busy_cores(self):
        dispatcher = LeastLoadedDispatcher()
        nodes = stub_fleet(4, 1, 3)
        assert dispatcher.select_node(make_task(), nodes).node_id == 1

    def test_jsq_picks_fewest_inflight(self):
        dispatcher = JoinShortestQueueDispatcher()
        nodes = stub_fleet(5, 2, 9)
        assert dispatcher.select_node(make_task(), nodes).node_id == 1

    def test_ties_break_by_node_id(self):
        nodes = stub_fleet(2, 2, 2)
        assert JoinShortestQueueDispatcher().select_node(make_task(), nodes).node_id == 0
        assert LeastLoadedDispatcher().select_node(make_task(), nodes).node_id == 0

    def test_jsq_counts_ingress_pending_work(self):
        """Work on the wire toward a node is still that node's load."""
        nodes = stub_fleet(1, 1)
        nodes[0].ingress = 0
        nodes[1].ingress = 3  # 3 more tasks already in flight to node 1
        assert JoinShortestQueueDispatcher().select_node(make_task(), nodes).node_id == 0

    def test_probe_flags_mark_the_jsq_family(self):
        assert JoinShortestQueueDispatcher.probes_load
        assert LeastLoadedDispatcher.probes_load
        assert PowerOfTwoDispatcher.probes_load
        assert not RoundRobinDispatcher.probes_load
        assert not RandomDispatcher.probes_load
        assert not ConsistentHashDispatcher.probes_load


class TestCapacityNormalization:
    """Load-aware policies must weigh queue depth by node capacity."""

    def big_little(self, big_load, little_load):
        return [
            StubNode(0, inflight=big_load, busy_cores=big_load, capacity=24.0),
            StubNode(1, inflight=little_load, busy_cores=little_load, capacity=8.0),
        ]

    def test_normalized_jsq_prefers_underused_big_node(self):
        # 6/24 = 0.25 on the big node vs 4/8 = 0.5 on the little one.
        nodes = self.big_little(big_load=6, little_load=4)
        assert JoinShortestQueueDispatcher().select_node(make_task(), nodes).node_id == 0

    def test_unnormalized_jsq_is_fooled_by_raw_counts(self):
        nodes = self.big_little(big_load=6, little_load=4)
        dispatcher = JoinShortestQueueDispatcher(normalized=False)
        assert dispatcher.select_node(make_task(), nodes).node_id == 1

    def test_normalized_least_loaded_prefers_underused_big_node(self):
        nodes = self.big_little(big_load=6, little_load=4)
        assert LeastLoadedDispatcher().select_node(make_task(), nodes).node_id == 0

    def test_unnormalized_least_loaded_counts_raw_busy_cores(self):
        nodes = self.big_little(big_load=6, little_load=4)
        dispatcher = LeastLoadedDispatcher(normalized=False)
        assert dispatcher.select_node(make_task(), nodes).node_id == 1

    def test_power_of_two_normalizes_sampled_pair(self):
        # Two nodes: the sample is always both, so the pick is deterministic.
        nodes = self.big_little(big_load=6, little_load=4)
        assert PowerOfTwoDispatcher(seed=1).select_node(make_task(), nodes).node_id == 0
        fooled = PowerOfTwoDispatcher(seed=1, normalized=False)
        assert fooled.select_node(make_task(), nodes).node_id == 1

    def test_nodes_without_capacity_degrade_to_raw_counts(self):
        """Stubs lacking ``capacity`` behave as capacity-1 nodes (old API)."""

        class BareNode:
            def __init__(self, node_id, inflight):
                self.node_id = node_id
                self.inflight = inflight

        nodes = [BareNode(0, 3), BareNode(1, 1)]
        assert JoinShortestQueueDispatcher().select_node(make_task(), nodes).node_id == 1


class TestPowerOfTwo:
    def test_picks_less_loaded_of_sample(self):
        # With two nodes the sample is always both, so the pick is the min.
        dispatcher = PowerOfTwoDispatcher(seed=1)
        nodes = stub_fleet(7, 3)
        for _ in range(10):
            assert dispatcher.select_node(make_task(), nodes).node_id == 1

    def test_single_node_short_circuit(self):
        dispatcher = PowerOfTwoDispatcher(seed=1)
        nodes = stub_fleet(9)
        assert dispatcher.select_node(make_task(), nodes).node_id == 0

    def test_choices_validated(self):
        with pytest.raises(ValueError):
            PowerOfTwoDispatcher(choices=1)


class TestConsistentHash:
    def test_same_function_same_node(self):
        dispatcher = ConsistentHashDispatcher()
        nodes = stub_fleet(0, 0, 0, 0)
        task_a = make_task(task_id=1)
        task_a.metadata["function_id"] = "fib(32)/128mb"
        task_b = make_task(task_id=2)
        task_b.metadata["function_id"] = "fib(32)/128mb"
        assert (
            dispatcher.select_node(task_a, nodes).node_id
            == dispatcher.select_node(task_b, nodes).node_id
        )

    def test_routing_is_stable_across_dispatcher_instances(self):
        nodes = stub_fleet(0, 0, 0, 0)
        task = make_task()
        task.metadata["function_id"] = "fib(35)/256mb"
        assert (
            ConsistentHashDispatcher().select_node(task, nodes).node_id
            == ConsistentHashDispatcher().select_node(task, nodes).node_id
        )

    def test_node_removal_moves_few_keys(self):
        """Consistent hashing: dropping one of 8 nodes remaps only its arc."""
        dispatcher = ConsistentHashDispatcher(replicas=64)
        nodes = stub_fleet(*([0] * 8))
        keys = [f"function-{i}" for i in range(400)]

        def route(fleet):
            mapping = {}
            for key in keys:
                task = make_task()
                task.metadata["function_id"] = key
                mapping[key] = dispatcher.select_node(task, fleet).node_id
            return mapping

        before = route(nodes)
        after = route(nodes[:-1])  # node 7 leaves
        moved = sum(
            1 for key in keys if before[key] != after[key] and before[key] != 7
        )
        # Keys on surviving nodes should essentially all stay put.
        assert moved <= len(keys) * 0.05

    def test_replicas_validated(self):
        with pytest.raises(ValueError):
            ConsistentHashDispatcher(replicas=0)

    def test_drain_then_replacement_rebuilds_the_ring(self):
        """A node that drains and is replaced by a fresh node (re-using its
        freed capacity under a new id) must be routed from a rebuilt ring —
        never served from the stale one."""
        dispatcher = ConsistentHashDispatcher()
        fleet = {i: StubNode(i) for i in range(4)}
        nodes = [fleet[i] for i in range(4)]
        keys = [f"function-{i}" for i in range(200)]

        def route(active):
            mapping = {}
            for key in keys:
                task = make_task()
                task.metadata["function_id"] = key
                mapping[key] = dispatcher.select_node(task, active).node_id
            return mapping

        before = route(nodes)
        # Node 1 drains, a replacement joins under the next fresh id.
        fleet[4] = StubNode(4)
        survivors = [fleet[0], fleet[2], fleet[3], fleet[4]]
        after = route(survivors)
        assert set(after.values()) <= {0, 2, 3, 4}  # nothing routed to node 1
        # Consistent hashing: keys on surviving nodes essentially stay put.
        moved = sum(
            1 for key in keys if before[key] != 1 and after[key] != before[key]
        )
        assert moved <= len(keys) * 0.1

    def test_picks_come_from_the_live_sequence(self):
        """Same ids, different node objects (a fresh fleet snapshot): the
        pick must be the object from the *caller's* sequence, not a cached
        node from the ring build."""
        dispatcher = ConsistentHashDispatcher()
        task = make_task()
        task.metadata["function_id"] = "fib(30)"
        first_fleet = stub_fleet(0, 0, 0)
        pick = dispatcher.select_node(task, first_fleet)
        second_fleet = stub_fleet(0, 0, 0)  # same ids, new objects
        repick = dispatcher.select_node(task, second_fleet)
        assert repick.node_id == pick.node_id
        assert repick is second_fleet[repick.node_id]
        assert repick is not pick

    def test_stale_ring_raises_instead_of_misrouting(self):
        """White-box: the ring-is-stale guard must fire loudly if internal
        state ever disagrees with the fleet (both guard arms)."""
        dispatcher = ConsistentHashDispatcher()
        nodes = stub_fleet(0, 0, 0)
        dispatcher.select_node(make_task(), nodes)  # builds the ring
        dispatcher._positions = {}  # target id no longer mapped
        with pytest.raises(RuntimeError, match="ring is stale"):
            dispatcher.select_node(make_task(), nodes)
        dispatcher._rebuild(nodes)
        # Position maps to a slot holding a different node id.
        dispatcher._positions = {node.node_id: 0 for node in nodes}
        with pytest.raises(RuntimeError, match="ring is stale"):
            # Route enough distinct keys that some target a non-zero slot.
            for i in range(16):
                probe = make_task(task_id=i)
                probe.metadata["function_id"] = f"function-{i}"
                dispatcher.select_node(probe, nodes)
