"""Integration tests for the experiment harness (small workload scale).

These run every registered experiment at a tiny scale to guarantee the
harness stays executable end to end, and check the core qualitative claims on
the headline experiments.  Full-scale numbers are recorded in EXPERIMENTS.md
and regenerated by ``repro-experiments --all``.
"""

import pytest

from repro.experiments import get_experiment, list_experiments, run_experiment
from repro.experiments.common import (
    ExperimentOutput,
    metric_row,
    register_experiment,
    scaled_limit,
    two_minute_workload,
)
from repro.experiments.runner import run_cli

#: Scale small enough to keep each experiment to a couple of seconds.
SMALL = 0.06
#: Experiments using the 10-minute workload need an even smaller scale.
TINY = 0.02

SCALE_BY_EXPERIMENT = {
    "cluster_scaling": TINY,
    "fig16": TINY,
    "fig17": TINY,
    "fig19": TINY,
    "fig21": TINY,
    "fig22": TINY,
}


class TestRegistry:
    def test_all_paper_experiments_registered(self):
        registered = list_experiments()
        expected = {
            "fig01", "fig02", "fig04", "fig05", "fig06", "fig10", "fig11",
            "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
            "fig19", "fig20", "fig21", "fig22", "fig23", "table1",
        }
        assert expected.issubset(set(registered))

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_experiment("fig01", lambda scale=1.0: None)

    def test_scaled_limit_validation(self):
        assert scaled_limit(1000, 0.5) == 500
        with pytest.raises(ValueError):
            scaled_limit(1000, 0.0)


@pytest.mark.parametrize("experiment_id", sorted(set(list_experiments())))
def test_every_experiment_runs_and_renders(experiment_id):
    scale = SCALE_BY_EXPERIMENT.get(experiment_id, SMALL)
    output = run_experiment(experiment_id, scale=scale)
    assert isinstance(output, ExperimentOutput)
    assert output.experiment_id == experiment_id
    rendered = output.render()
    assert experiment_id in rendered
    assert len(rendered) > 100


class TestHeadlineClaims:
    def test_fig01_cfs_much_more_expensive(self):
        output = run_experiment("fig01", scale=0.15)
        assert output.data["cfs_over_fifo_ratio"] > 3.0

    def test_table1_orderings(self):
        output = run_experiment("table1", scale=0.15)
        assert output.data["most_expensive"] == "cfs"
        assert output.data["hybrid"]["p99_execution"] < output.data["cfs"]["p99_execution"]
        assert output.data["cfs"]["p99_response"] <= output.data["hybrid"]["p99_response"]

    def test_metric_row_shape(self):
        from repro.schedulers.fifo import FIFOScheduler
        from repro.simulation.engine import simulate

        result = simulate(FIFOScheduler(), two_minute_workload(0.05))
        row = metric_row(result)
        assert set(row) == {
            "p50_execution", "p99_execution", "p50_response", "p99_response",
            "p99_turnaround", "total_execution", "cost_usd",
        }
        assert row["cost_usd"] > 0


class TestRunnerCLI:
    def test_list(self, capsys):
        assert run_cli(["--list"]) == 0
        captured = capsys.readouterr()
        assert "fig01" in captured.out

    def test_run_single_experiment(self, capsys, tmp_path):
        code = run_cli(["fig02", "--scale", "0.05", "--output", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "fig02.txt").exists()
        assert "fig02" in capsys.readouterr().out

    def test_output_writes_table_csvs(self, capsys, tmp_path):
        code = run_cli(["fig04", "--scale", "0.05", "--output", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "fig04.txt").exists()
        assert (tmp_path / "fig04_metrics.csv").exists()
        header = (tmp_path / "fig04_metrics.csv").read_text().splitlines()[0]
        assert header.startswith("scheduler,")

    def test_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(
            '{"workload": {"source": "two_minute", "scale": 0.05},'
            ' "scheduler": "fifo", "num_cores": 50}'
        )
        assert run_cli(["--scenario", str(path)]) == 0
        assert "scheduler            : fifo" in capsys.readouterr().out

    def test_scenario_file_scale_and_output(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(
            '{"workload": {"source": "two_minute", "scale": 1.0},'
            ' "scheduler": "fifo", "num_cores": 50}'
        )
        out_dir = tmp_path / "out"
        # --scale overrides the file's workload scale; --output saves the text.
        assert run_cli(
            ["--scenario", str(path), "--scale", "0.05", "--output", str(out_dir)]
        ) == 0
        saved = (out_dir / "scenario.txt").read_text()
        assert "scheduler            : fifo" in saved
        # 0.05 of the 12,442-invocation trace is ~622 tasks, not the full set.
        assert "622" in saved

    def test_scenario_file_invalid(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli(["--scenario", str(path)]) == 1
        assert "cannot load scenario" in capsys.readouterr().err

    def test_scenario_file_unknown_workload_source(self, capsys, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text('{"workload": {"source": "nope"}, "num_nodes": 2}')
        assert run_cli(["--scenario", str(path), "--scale", "0.01"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: workload.source names unknown workload 'nope'")
        for name in ("ten_minute", "two_minute"):
            assert name in err

    def test_unknown_experiment_fails(self, capsys):
        assert run_cli(["fig99", "--scale", "0.05"]) == 1

    def test_no_arguments_errors(self, capsys):
        assert run_cli([]) == 2
