"""Shared infrastructure for the experiment harness.

Provides the experiment registry and the glue between experiments and the
declarative scenario layer: every experiment builds
:class:`~repro.scenario.scenario.Scenario` objects and runs them through the
single :func:`repro.scenario.run.run` pipeline.  The canonical paper
workloads live in :mod:`repro.scenario.workloads` and are re-exported here
for convenience.
"""

from __future__ import annotations

import inspect
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.analysis.report import ComparisonTable
from repro.core.config import HybridConfig
from repro.cost.cost_model import CostModel
from repro.scenario import Scenario, Workload
from repro.scenario.run import RunResult, run as run_scenario
from repro.scenario.scenario import DEFAULT_NUM_CORES
from repro.scenario.workloads import (  # noqa: F401  (re-exported API)
    firecracker_invocations,
    scaled_limit,
    ten_minute_workload,
    two_minute_items,
    two_minute_workload,
)
from repro.simulation.config import SimulationConfig
from repro.simulation.results import SimulationResult

#: Enclave size used by every experiment (the paper uses 50 of the 72 cores).
ENCLAVE_CORES = DEFAULT_NUM_CORES

#: The fixed FIFO preemption limit the paper derives as the 90th percentile of
#: its sampled workload (1,633 ms); our default workload's p90 lands within a
#: few percent of this value, so the constant is used as-is.
FIXED_TIME_LIMIT = 1.633


@dataclass
class ExperimentOutput:
    """Result of one experiment: rendered text plus machine-readable data."""

    experiment_id: str
    title: str
    description: str
    text: str
    data: Dict[str, object] = field(default_factory=dict)
    tables: Dict[str, ComparisonTable] = field(default_factory=dict)

    def render(self) -> str:
        header = f"== {self.experiment_id}: {self.title} =="
        return "\n".join([header, self.description.strip(), "", self.text])

    def write_csv(self, directory: Union[str, Path]) -> Dict[str, Path]:
        """Write every comparison table as ``<id>_<table>.csv``.

        Creates ``directory`` (and parents) when missing.  A path that
        exists but is not a directory — or a target CSV name already taken
        by a directory — fails with a clear :class:`FileExistsError` naming
        the collision instead of an ``open()`` traceback.  Shares the one
        CSV formatting helper in :mod:`repro.analysis.export` so experiment
        output and result export stay byte-compatible.
        """
        from repro.analysis.export import export_comparison_table

        base = Path(directory)
        if base.exists() and not base.is_dir():
            raise FileExistsError(
                f"experiment output directory {base} collides with an "
                "existing file; remove it or pick another --output path"
            )
        base.mkdir(parents=True, exist_ok=True)
        written: Dict[str, Path] = {}
        for name, table in self.tables.items():
            target = base / f"{self.experiment_id}_{name}.csv"
            if target.is_dir():
                raise FileExistsError(
                    f"experiment CSV target {target} collides with an "
                    "existing directory"
                )
            written[name] = export_comparison_table(table, target)
        return written


ExperimentFunction = Callable[..., ExperimentOutput]

_EXPERIMENTS: Dict[str, ExperimentFunction] = {}


def register_experiment(experiment_id: str, function: ExperimentFunction) -> None:
    """Register an experiment under its id (``fig01`` … ``table1``)."""
    key = experiment_id.lower()
    if key in _EXPERIMENTS:
        raise ValueError(f"experiment {experiment_id!r} is already registered")
    _EXPERIMENTS[key] = function


def list_experiments() -> List[str]:
    return sorted(_EXPERIMENTS)


def get_experiment(experiment_id: str) -> ExperimentFunction:
    key = experiment_id.lower()
    if key not in _EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {', '.join(list_experiments())}"
        )
    return _EXPERIMENTS[key]


def _accepts_keyword(function: ExperimentFunction, name: str) -> bool:
    try:
        parameters = inspect.signature(function).parameters
    except (TypeError, ValueError):  # builtins / C callables: assume flexible
        return True
    if name in parameters:
        return True
    return any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )


def run_experiment(
    experiment_id: str, scale: float = 1.0, jobs: Optional[int] = None
) -> ExperimentOutput:
    """Run one experiment by id at one workload scale.

    ``scale`` is validated and passed to every experiment — an experiment
    whose ``run()`` cannot take it fails loudly here instead of silently
    running at its module's built-in scale.  ``jobs`` (worker processes for
    the sweep-backed experiments) is threaded through only where the
    experiment accepts it; single-run and scheduler-state experiments stay
    serial.
    """
    function = get_experiment(experiment_id)
    if not scale > 0:
        raise ValueError(
            f"experiment scale must be positive, got {scale!r}"
        )
    if not _accepts_keyword(function, "scale"):
        raise TypeError(
            f"experiment {experiment_id!r} does not accept scale=; its "
            "run() must take the workload scale so --scale is honoured"
        )
    kwargs: Dict[str, object] = {"scale": scale}
    if jobs is not None and _accepts_keyword(function, "jobs"):
        kwargs["jobs"] = jobs
    return function(**kwargs)


# ---------------------------------------------------------------------------
# Scenario builders
# ---------------------------------------------------------------------------


def standard_config(num_cores: int = ENCLAVE_CORES, **overrides) -> SimulationConfig:
    """Simulation configuration shared by the experiments.

    Programmatic counterpart of a default single-machine scenario; kept for
    callers (examples, ablation benches) that need non-serialisable knobs
    such as a custom context-switch model.
    """
    return SimulationConfig(num_cores=num_cores, **overrides)


def policy_scenario(
    scheduler: str,
    *,
    scale: float = 1.0,
    workload: str = "two_minute",
    num_cores: int = ENCLAVE_CORES,
    **scheduler_kwargs,
) -> Scenario:
    """A single-machine scenario on one of the canonical paper workloads."""
    return Scenario(
        workload=Workload(source=workload, scale=scale),
        scheduler=scheduler,
        scheduler_kwargs=scheduler_kwargs,
        num_cores=num_cores,
    )


def hybrid_kwargs(config: Optional[HybridConfig] = None) -> Dict[str, object]:
    """A :class:`HybridConfig` as the plain kwargs the registry factory takes."""
    cfg = config or paper_hybrid_config()
    data = asdict(cfg)
    data["cfs_placement"] = cfg.cfs_placement.value
    return data


def hybrid_scenario(
    config: Optional[HybridConfig] = None,
    *,
    scale: float = 1.0,
    workload: str = "two_minute",
    num_cores: Optional[int] = None,
) -> Scenario:
    """A single-machine hybrid-scheduler scenario from a :class:`HybridConfig`."""
    cfg = config or paper_hybrid_config()
    return policy_scenario(
        "hybrid",
        scale=scale,
        workload=workload,
        num_cores=num_cores if num_cores is not None else ENCLAVE_CORES,
        **hybrid_kwargs(cfg),
    )


# ---------------------------------------------------------------------------
# Declarative variant execution (the sweep engine behind the experiments)
# ---------------------------------------------------------------------------


def variant_sweep(
    base: Scenario,
    variants: Mapping[str, Mapping[str, object]],
    name: str = "",
):
    """The experiments' study shape as a sweep spec: labelled override dicts.

    ``variants`` maps row labels to dotted-path overrides on ``base``
    (``{}`` keeps the base itself), which is exactly how the ported
    figure modules declare "run these scenario variants".
    """
    from repro.sweep import PointSpec, SweepSpec

    return SweepSpec(
        base=base,
        points=tuple(
            PointSpec(label, dict(overrides))
            for label, overrides in variants.items()
        ),
        name=name,
    )


def run_variants(
    base: Scenario,
    variants: Mapping[str, Mapping[str, object]],
    jobs: Optional[int] = None,
    name: str = "",
) -> Dict[str, RunResult]:
    """Run labelled scenario variants, optionally across a worker pool.

    The one execution path behind every ported experiment: builds a
    :class:`~repro.sweep.spec.SweepSpec` from the variants and fans it
    through :func:`~repro.sweep.executor.sweep_results`, so ``jobs=N``
    parallelises any figure without touching its logic.  Results come
    back as ``{label: RunResult}`` in declaration order and are
    bit-identical to serial runs regardless of ``jobs``.
    """
    from repro.sweep import sweep_results

    return sweep_results(variant_sweep(base, variants, name=name), jobs=jobs)


def paper_hybrid_config(num_cores: int = ENCLAVE_CORES, **overrides) -> HybridConfig:
    """The 25/25, 1,633 ms configuration used for the headline results."""
    fifo = overrides.pop("fifo_cores", num_cores // 2)
    cfs = overrides.pop("cfs_cores", num_cores - fifo)
    return HybridConfig(
        fifo_cores=fifo, cfs_cores=cfs, time_limit=FIXED_TIME_LIMIT, **overrides
    )


METRIC_COLUMNS = (
    "p50_execution",
    "p99_execution",
    "p50_response",
    "p99_response",
    "p99_turnaround",
    "total_execution",
    "cost_usd",
)


def metric_row(
    result: Union[SimulationResult, RunResult],
    cost_model: Optional[CostModel] = None,
) -> Dict[str, float]:
    """One comparison-table row (Table I style) from a run.

    Accepts either a raw :class:`SimulationResult` (cost recomputed) or a
    :class:`RunResult` (the pipeline's cost report reused unless an explicit
    model asks otherwise).
    """
    if isinstance(result, RunResult):
        summary = result.summary()
        if cost_model is None:
            cost = result.cost.total
        else:
            cost = cost_model.workload_cost(result.finished_tasks).total
    else:
        summary = result.summary()
        model = cost_model or CostModel()
        cost = model.workload_cost(result.finished_tasks).total
    return {
        "p50_execution": summary.p50_execution,
        "p99_execution": summary.p99_execution,
        "p50_response": summary.p50_response,
        "p99_response": summary.p99_response,
        "p99_turnaround": summary.p99_turnaround,
        "total_execution": summary.total_execution,
        "cost_usd": cost,
    }


def metric_table(
    results: Mapping[str, RunResult],
    cost_model: Optional[CostModel] = None,
) -> ComparisonTable:
    """One Table-I-style comparison table: a row per labelled result.

    Replaces the add-row loop every metric-table experiment used to
    carry; row order follows the mapping's insertion order.
    """
    table = ComparisonTable(columns=METRIC_COLUMNS)
    for label, result in results.items():
        table.add_row(label, metric_row(result, cost_model))
    return table


def cdf_rows(values: Sequence[float], label: str, points: Sequence[float]) -> List[List[object]]:
    """Rows of (label, x, P(X<=x)) used to print CDF curves as text."""
    array = np.sort(np.asarray(values, dtype=float))
    rows = []
    for point in points:
        fraction = float(np.searchsorted(array, point, side="right") / array.size)
        rows.append([label, f"{point:.3g}", f"{fraction:.3f}"])
    return rows
