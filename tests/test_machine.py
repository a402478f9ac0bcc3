"""Unit tests for the machine / core-group model."""

import pytest

from repro.simulation.config import SimulationConfig
from repro.simulation.cpu import CoreMode
from repro.simulation.machine import DEFAULT_GROUP, Machine, build_machine
from tests.conftest import make_task


class TestConstruction:
    def test_single_group_by_default(self):
        machine = build_machine(4)
        assert len(machine) == 4
        assert machine.group_sizes() == {DEFAULT_GROUP: 4}

    def test_named_groups(self):
        machine = Machine(SimulationConfig(num_cores=6), groups={"fifo": 2, "cfs": 4})
        assert machine.group_sizes() == {"fifo": 2, "cfs": 4}
        assert {c.group for c in machine.group_cores("fifo")} == {"fifo"}

    def test_group_sizes_must_match_core_count(self):
        with pytest.raises(ValueError):
            Machine(SimulationConfig(num_cores=4), groups={"fifo": 2, "cfs": 4})

    def test_group_modes(self):
        machine = Machine(
            SimulationConfig(num_cores=2),
            groups={"fifo": 1, "cfs": 1},
            group_modes={"fifo": CoreMode.DEDICATED},
        )
        assert machine.group_cores("fifo")[0].mode is CoreMode.DEDICATED
        assert machine.group_cores("cfs")[0].mode is CoreMode.FAIR_SHARE


class TestQueries:
    def test_core_lookup(self):
        machine = build_machine(3)
        assert machine.core(2).core_id == 2
        with pytest.raises(KeyError):
            machine.core(5)

    def test_unknown_group_rejected(self):
        machine = build_machine(2)
        with pytest.raises(KeyError):
            machine.group("nope")

    def test_idle_and_busy_cores(self):
        machine = build_machine(2)
        task = make_task()
        machine.core(0).add_task(task, 0.0)
        assert [c.core_id for c in machine.busy_cores()] == [0]
        assert [c.core_id for c in machine.idle_cores()] == [1]

    def test_idle_excludes_locked(self):
        machine = build_machine(2)
        machine.core(1).lock()
        assert [c.core_id for c in machine.idle_cores()] == [0]

    def test_least_loaded_core(self):
        machine = build_machine(3)
        machine.core(0).add_task(make_task(task_id=0), 0.0)
        machine.core(0).add_task(make_task(task_id=1), 0.0)
        machine.core(1).add_task(make_task(task_id=2), 0.0)
        assert machine.least_loaded_core().core_id == 2

    def test_total_running(self):
        machine = build_machine(2)
        machine.core(0).add_task(make_task(task_id=0), 0.0)
        machine.core(1).add_task(make_task(task_id=1), 0.0)
        assert machine.total_running() == 2
        assert machine.total_running("all") == 2
        machine.core(0).remove_task(machine.core(0).current_task, 1.0)
        assert machine.total_running("all") == 1


class TestCoreMoves:
    def test_move_core_between_groups(self):
        machine = Machine(SimulationConfig(num_cores=4), groups={"fifo": 2, "cfs": 2})
        moved = machine.move_core(0, "fifo", "cfs")
        assert moved.group == "cfs"
        assert machine.group_sizes() == {"fifo": 1, "cfs": 3}

    def test_move_requires_membership(self):
        machine = Machine(SimulationConfig(num_cores=4), groups={"fifo": 2, "cfs": 2})
        with pytest.raises(ValueError):
            machine.move_core(3, "fifo", "cfs")

    def test_move_to_same_group_rejected(self):
        machine = Machine(SimulationConfig(num_cores=2), groups={"fifo": 1, "cfs": 1})
        with pytest.raises(ValueError):
            machine.move_core(0, "fifo", "fifo")

    def test_ensure_group_creates_empty_group(self):
        machine = build_machine(2)
        group = machine.ensure_group("new")
        assert len(group) == 0
        assert "new" in machine.groups


class TestUtilizationAggregation:
    def test_group_utilization(self):
        machine = Machine(SimulationConfig(num_cores=2), groups={"fifo": 1, "cfs": 1})
        fifo_core = machine.group_cores("fifo")[0]
        task = make_task(service=1.0)
        fifo_core.add_task(task, 0.0)
        machine.sync_all(1.0)
        snapshots = {c.core_id: 0.0 for c in machine.cores}
        assert machine.group_utilization("fifo", snapshots, window=1.0) == pytest.approx(1.0)
        assert machine.group_utilization("cfs", snapshots, window=1.0) == pytest.approx(0.0)
