"""Tests for the sweep engine: spec, expansion, executor, table, runner glue.

The load-bearing property is the determinism contract: every swept point is
bit-identical to a serial ``run()`` of the same scenario, no matter how many
worker processes execute the sweep, which start method spawns them, in what
order points complete, or in what order the spec's axes were declared.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.common import ExperimentOutput, run_experiment
from repro.scenario import Scenario, Workload, run
from repro.sweep import (
    GridAxis,
    PointSpec,
    RandomAxis,
    SweepError,
    SweepSpec,
    SweepTable,
    apply_overrides,
    derive_seed,
    point_row,
    run_sweep,
    sweep_results,
)

#: Smallest viable base: the two-minute workload floors at ~200 tasks, and a
#: few cores keep each point well under a second.
BASE = Scenario(workload=Workload("two_minute", scale=0.02), num_cores=4)

GRID_AXES = (
    GridAxis("num_cores", (4, 8)),
    GridAxis("scheduler", ("fifo", "sjf")),
)


def grid_spec(axes=GRID_AXES, name="grid") -> SweepSpec:
    return SweepSpec(base=BASE, axes=tuple(axes), name=name)


# ---------------------------------------------------------------------------
# Spec: overrides, expansion, serialisation
# ---------------------------------------------------------------------------


class TestApplyOverrides:
    def test_dotted_path_patches_nested_field(self):
        scenario = apply_overrides(
            Scenario(
                workload=Workload("ten_minute", scale=0.02),
                num_nodes=2,
                cores_per_node=8,
            ),
            {"network.rtt": 0.2, "dispatcher": "consistent_hash"},
        )
        assert scenario.network is not None and scenario.network.rtt == 0.2
        assert scenario.dispatcher == "consistent_hash"

    def test_empty_overrides_reproduce_base(self):
        assert apply_overrides(BASE, {}) == BASE

    def test_nested_override_leaves_base_untouched(self):
        base = Scenario(
            workload=Workload("two_minute", params={"shape": {"period": 30.0}})
        )
        patched = apply_overrides(base, {"workload.params.shape.period": 5.0})
        assert patched.workload.params == {"shape": {"period": 5.0}}
        assert base.workload.params == {"shape": {"period": 30.0}}

    def test_unknown_field_names_it_with_suggestion(self):
        with pytest.raises(SweepError, match=r"schduler.*did you mean 'scheduler'"):
            apply_overrides(BASE, {"schduler": "cfs"})

    def test_descending_into_scalar_is_named(self):
        with pytest.raises(SweepError, match=r"num_cores.*not a mapping"):
            apply_overrides(BASE, {"num_cores.deep": 1})

    def test_invalid_value_reports_invalid_scenario(self):
        with pytest.raises(SweepError, match="do not form a valid scenario"):
            apply_overrides(BASE, {"num_cores": -3})


class TestExpansion:
    def test_grid_is_cartesian_product_in_sorted_field_order(self):
        points = grid_spec().expand()
        assert [p.label for p in points] == [
            "num_cores=4,scheduler=fifo",
            "num_cores=4,scheduler=sjf",
            "num_cores=8,scheduler=fifo",
            "num_cores=8,scheduler=sjf",
        ]
        assert [p.index for p in points] == [0, 1, 2, 3]
        assert points[2].scenario.num_cores == 8
        assert points[1].scenario.scheduler == "sjf"

    def test_axis_declaration_order_is_irrelevant(self):
        forward = grid_spec().expand()
        backward = grid_spec(axes=tuple(reversed(GRID_AXES))).expand()
        assert [(p.label, p.overrides) for p in forward] == [
            (p.label, p.overrides) for p in backward
        ]

    def test_point_mode_keeps_declaration_order(self):
        spec = SweepSpec(
            base=BASE,
            points=(PointSpec("b", {"scheduler": "sjf"}), PointSpec("a", {})),
        )
        assert [p.label for p in spec.expand()] == ["b", "a"]

    def test_random_axis_draws_depend_only_on_seed_field_sample(self):
        axis = RandomAxis("workload.scale", 0.01, 0.1, log=True)
        assert axis.draw(7, 0) == axis.draw(7, 0)
        assert axis.draw(7, 0) != axis.draw(7, 1)
        assert axis.draw(8, 0) != axis.draw(7, 0)
        for sample in range(20):
            assert 0.01 <= axis.draw(7, sample) <= 0.1

    def test_derive_seeds_gives_each_point_a_distinct_seed(self):
        spec = SweepSpec(base=BASE, axes=GRID_AXES, seed=5, derive_seeds=True)
        seeds = [p.overrides["seed"] for p in spec.expand()]
        assert len(set(seeds)) == len(seeds)
        assert seeds[0] == derive_seed(5, 0)

    def test_duplicate_axis_fields_rejected(self):
        with pytest.raises(SweepError, match="duplicate"):
            SweepSpec(
                base=BASE,
                axes=(GridAxis("num_cores", (4,)), GridAxis("num_cores", (8,))),
            )

    def test_axes_or_points_required(self):
        with pytest.raises(SweepError):
            SweepSpec(base=BASE)


class TestSpecJson:
    def test_round_trip_preserves_expansion(self):
        spec = SweepSpec(
            base=BASE,
            axes=(
                GridAxis("num_cores", (4, 8)),
                RandomAxis("workload.scale", 0.02, 0.05),
            ),
            samples=3,
            seed=11,
            name="roundtrip",
        )
        clone = SweepSpec.from_json(spec.to_json())
        assert clone == spec
        assert [(p.label, p.overrides) for p in clone.expand()] == [
            (p.label, p.overrides) for p in spec.expand()
        ]

    def test_invalid_json_is_reported_as_such(self):
        with pytest.raises(SweepError, match="not valid JSON"):
            SweepSpec.from_json("{nope")

    def test_unknown_spec_key_is_named(self):
        payload = {"base": BASE.to_dict(), "axis": []}
        with pytest.raises(SweepError, match=r"unknown sweep spec field 'axis'.*'axes'"):
            SweepSpec.from_dict(payload)

    def test_unknown_axis_key_is_named(self):
        payload = {
            "base": BASE.to_dict(),
            "axes": [{"field": "num_cores", "values": [4], "lables": ["a"]}],
        }
        with pytest.raises(SweepError, match="lables"):
            SweepSpec.from_dict(payload)


# ---------------------------------------------------------------------------
# Executor: determinism across jobs / start method / completion order
# ---------------------------------------------------------------------------


def serial_reference(spec: SweepSpec) -> SweepTable:
    """Rows rebuilt point-by-point through the plain run() pipeline."""
    rows = [
        point_row(p.index, p.label, p.overrides, run(p.scenario))
        for p in spec.expand()
    ]
    return SweepTable(rows=rows, name=spec.name)


class TestExecutor:
    def test_serial_sweep_is_bit_identical_to_plain_runs(self):
        table = run_sweep(grid_spec())
        assert table.rows == serial_reference(grid_spec()).rows

    def test_pool_is_bit_identical_to_serial(self):
        serial = run_sweep(grid_spec())
        pooled = run_sweep(grid_spec(), jobs=2)
        assert pooled.rows == serial.rows
        assert pooled.columns == serial.columns

    def test_spawn_start_method_is_bit_identical(self):
        serial = run_sweep(grid_spec())
        spawned = run_sweep(grid_spec(), jobs=2, mp_context="spawn")
        assert spawned.rows == serial.rows

    def test_sweep_results_match_plain_runs(self):
        spec = SweepSpec(
            base=BASE,
            points=(PointSpec("base", {}), PointSpec("sjf", {"scheduler": "sjf"})),
        )
        results = sweep_results(spec, jobs=2)
        assert list(results) == ["base", "sjf"]
        direct = run(apply_overrides(BASE, {"scheduler": "sjf"}))
        assert (
            results["sjf"].result.summary().as_dict()
            == direct.result.summary().as_dict()
        )
        assert results["sjf"].cost.total == direct.cost.total

    def test_pooled_fleet_results_keep_their_series(self):
        """Slotted SeriesPoints pickle back from worker processes intact."""
        fleet = apply_overrides(
            BASE,
            {"num_nodes": 2, "cores_per_node": 1, "migration": "work_stealing"},
        )
        # Two points: a single point runs in-process, without a pool.
        spec = SweepSpec(
            base=fleet,
            points=(PointSpec("fleet", {}), PointSpec("jsq", {"dispatcher": "jsq"})),
        )
        pooled = sweep_results(spec, jobs=2)
        for label, overrides in (("fleet", {}), ("jsq", {"dispatcher": "jsq"})):
            direct = run(apply_overrides(fleet, overrides)).result.series
            assert any(name.endswith("queue_depth") for name in direct)
            assert pooled[label].result.series == direct

    def test_failing_point_names_its_label(self):
        spec = SweepSpec(
            base=BASE,
            points=(
                PointSpec("ok", {}),
                PointSpec("broken", {"workload.source": "no_such_trace"}),
            ),
        )
        with pytest.raises(SweepError, match=r"sweep point 1 \('broken'\)"):
            run_sweep(spec, jobs=2)

    def test_bad_jobs_rejected(self):
        with pytest.raises(SweepError, match="jobs"):
            run_sweep(grid_spec(), jobs=0)

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        jobs=st.sampled_from([1, 2, 4]),
        reverse_axes=st.booleans(),
    )
    def test_pool_size_and_axis_order_invariance(self, jobs, reverse_axes):
        axes = tuple(reversed(GRID_AXES)) if reverse_axes else GRID_AXES
        table = run_sweep(grid_spec(axes=axes), jobs=jobs)
        assert table.rows == reference_rows()


@lru_cache(maxsize=1)
def reference_rows():
    """One serial reference shared by the hypothesis examples above."""
    return run_sweep(grid_spec()).rows


# ---------------------------------------------------------------------------
# Table: columns, export, round-trip
# ---------------------------------------------------------------------------


class TestTable:
    def test_rows_carry_swept_fields_and_metrics(self):
        table = run_sweep(grid_spec())
        assert table.swept_columns == ["num_cores", "scheduler"]
        assert table.column("num_cores") == [4, 4, 8, 8]
        row = table.row_for("num_cores=8,scheduler=sjf")
        assert row["point"] == 3
        assert row["count"] > 0
        assert row["total_cost"] > 0

    def test_unknown_column_lists_available(self):
        with pytest.raises(KeyError, match="available"):
            run_sweep(grid_spec()).column("nope")

    def test_csv_and_json_export(self, tmp_path):
        table = run_sweep(grid_spec())
        csv_path = tmp_path / "deep" / "sweep.csv"
        table.write_csv(csv_path)
        header = csv_path.read_text().splitlines()[0].split(",")
        assert header[:4] == ["point", "label", "num_cores", "scheduler"]
        json_path = tmp_path / "sweep.json"
        table.write_json(json_path)
        clone = SweepTable.from_json(json_path.read_text())
        assert clone.rows == table.rows
        assert clone.columns == table.columns

    def test_render_mentions_every_point(self):
        rendered = run_sweep(grid_spec()).render(title="grid")
        for label in ("num_cores=4,scheduler=fifo", "num_cores=8,scheduler=sjf"):
            assert label in rendered


# ---------------------------------------------------------------------------
# Satellites: run_experiment scale/jobs threading, write_csv collisions
# ---------------------------------------------------------------------------


class TestRunExperimentScale:
    def test_scale_changes_the_workload(self):
        small = run_experiment("fig05", scale=0.02)
        large = run_experiment("fig05", scale=0.05)
        assert (
            small.data["fifo"]["total_execution"]
            < large.data["fifo"]["total_execution"]
        )

    def test_jobs_does_not_change_results(self):
        serial = run_experiment("fig05", scale=0.02)
        pooled = run_experiment("fig05", scale=0.02, jobs=2)
        assert pooled.data == serial.data
        assert pooled.render() == serial.render()

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError, match="scale must be positive"):
            run_experiment("fig05", scale=0.0)

    def test_experiment_without_scale_param_fails_loudly(self):
        from repro.experiments import common

        common._EXPERIMENTS["_fixed_scale"] = lambda: None
        try:
            with pytest.raises(TypeError, match="does not accept scale"):
                run_experiment("_fixed_scale", scale=0.5)
        finally:
            del common._EXPERIMENTS["_fixed_scale"]


class TestWriteCsvCollisions:
    def output(self) -> ExperimentOutput:
        from repro.analysis.report import ComparisonTable

        table = ComparisonTable(columns=("m",))
        table.add_row("a", {"m": 1.0})
        return ExperimentOutput(
            experiment_id="demo",
            title="demo",
            description="",
            text="",
            tables={"metrics": table},
        )

    def test_creates_missing_directory(self, tmp_path):
        target = tmp_path / "not" / "yet" / "there"
        written = self.output().write_csv(target)
        assert written["metrics"].exists()
        assert written["metrics"].parent == target

    def test_file_collision_is_a_clear_error(self, tmp_path):
        clash = tmp_path / "results"
        clash.write_text("occupied")
        with pytest.raises(FileExistsError, match="collides with an existing file"):
            self.output().write_csv(clash)

    def test_directory_collision_on_csv_target(self, tmp_path):
        (tmp_path / "demo_metrics.csv").mkdir()
        with pytest.raises(FileExistsError, match="existing directory"):
            self.output().write_csv(tmp_path)


# ---------------------------------------------------------------------------
# Runner + scenarios/ library
# ---------------------------------------------------------------------------

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


class TestScenarioLibrary:
    def test_every_shipped_scenario_parses(self):
        paths = sorted(SCENARIO_DIR.glob("*.json"))
        assert len(paths) >= 5
        for path in paths:
            payload = json.loads(path.read_text())
            if "base" in payload:
                spec = SweepSpec.from_dict(payload)
                assert spec.expand()
            else:
                spec = Scenario.from_dict(payload)
                assert spec.workload is not None
            assert type(spec).from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_runner_sweep_flag(self, tmp_path, capsys):
        from repro.experiments.runner import run_cli

        spec = grid_spec(name="cli_grid")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        out_dir = tmp_path / "out"
        status = run_cli(
            ["--sweep", str(spec_path), "--jobs", "2", "--output", str(out_dir)]
        )
        assert status == 0
        assert "cli_grid" in capsys.readouterr().out
        assert (out_dir / "cli_grid.csv").exists()
        assert (out_dir / "cli_grid.json").exists()

    def test_runner_sweep_flag_bad_spec(self, tmp_path, capsys):
        from repro.experiments.runner import run_cli

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"base": BASE.to_dict(), "axis": []}))
        assert run_cli(["--sweep", str(bad)]) == 1
        assert "unknown sweep spec field" in capsys.readouterr().err

    def test_runner_output_file_collision(self, tmp_path, capsys):
        from repro.experiments.runner import run_cli

        clash = tmp_path / "out"
        clash.write_text("occupied")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(grid_spec().to_json())
        assert run_cli(["--sweep", str(spec_path), "--output", str(clash)]) == 1
        assert "collides with an existing file" in capsys.readouterr().err
