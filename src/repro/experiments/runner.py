"""Command-line runner for the experiment harness.

Usage::

    repro-experiments --list
    repro-experiments fig01 table1
    repro-experiments --all --scale 0.2
    repro-experiments --all --output results/
    repro-experiments --scenario my_run.json
    repro-experiments --sweep study.json --jobs 4 --output results/
    repro-experiments --scenario-dir scenarios/ --scale 0.1

Each experiment prints the rows/series of the corresponding paper figure and
can optionally write its text output (plus each comparison table as CSV) to
``--output``.  ``--scenario`` runs one declarative
:class:`~repro.scenario.scenario.Scenario` JSON file through the single run
pipeline instead of a registered experiment; ``--sweep`` runs a
:class:`~repro.sweep.spec.SweepSpec` JSON across ``--jobs`` worker
processes and prints the merged results table; ``--scenario-dir`` runs
every ``*.json`` in a directory (scenarios and sweep specs both work — a
file with a top-level ``base`` key is treated as a sweep).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from repro.experiments.common import list_experiments, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures from the simulator.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids to run (e.g. fig01 table1); empty with --all runs everything",
    )
    parser.add_argument("--all", action="store_true", help="run every registered experiment")
    parser.add_argument("--list", action="store_true", help="list registered experiments and exit")
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="workload scale factor (default 1.0 = the paper's invocation "
        "counts; with --scenario it overrides the file's workload scale)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="directory to write one <experiment>.txt file (and table CSVs) per experiment",
    )
    parser.add_argument(
        "--scenario",
        type=Path,
        default=None,
        help="run one declarative Scenario JSON file through the run pipeline",
    )
    parser.add_argument(
        "--sweep",
        type=Path,
        default=None,
        help="run one SweepSpec JSON (base scenario + axes/points) across "
        "--jobs worker processes and print the merged results table",
    )
    parser.add_argument(
        "--scenario-dir",
        type=Path,
        default=None,
        help="run every *.json in a directory (Scenario files and sweep "
        "specs; a top-level 'base' key marks a sweep)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for sweeps and sweep-backed experiments "
        "(default: serial); results are bit-identical for any N",
    )
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        help="with --scenario: write a Chrome trace-event JSON of the run "
        "(open in Perfetto / chrome://tracing); enables telemetry",
    )
    parser.add_argument(
        "--sample-interval",
        type=float,
        default=None,
        help="with --scenario: sample registered gauges (queue depths, busy "
        "cores, fleet load) every SIM-seconds; enables telemetry",
    )
    parser.add_argument(
        "--middleware",
        action="append",
        default=None,
        metavar="NAME[:k=v,...]",
        help="with --scenario: append one middleware to the scenario's "
        "chain, in flag order (e.g. --middleware admission:max_queue_depth=32"
        " --middleware slo_tracker:target=10); repeatable, overrides the "
        "file's own middleware list",
    )
    parser.add_argument(
        "--chaos",
        default=None,
        metavar="k=v[,k=v...]",
        help="with --scenario: enable seeded fault injection with these "
        "ChaosSpec fields (e.g. --chaos crash_rate=0.05 or "
        "--chaos revocation_rate=0.02,warning=2.0,max_failures=3); "
        "overrides the file's own chaos block",
    )
    parser.add_argument(
        "--trace-csv",
        type=Path,
        default=None,
        help="with --scenario: replay a real Azure per-minute "
        "invocation-count CSV instead of the scenario's registered "
        "workload; enables the streaming path",
    )
    parser.add_argument(
        "--stream-chunk",
        type=int,
        default=None,
        metavar="N",
        help="with --scenario: feed arrivals through the streaming path in "
        "chunks of N tasks (bounded-memory replay); enables streaming",
    )
    parser.add_argument(
        "--metrics-cap",
        type=int,
        default=None,
        metavar="N",
        help="with --scenario: bound the columnar metrics store to N rows "
        "(exact aggregates plus a sample for CDFs); enables streaming",
    )
    parser.add_argument(
        "--metrics-policy",
        choices=("reservoir", "spill"),
        default=None,
        help="with --scenario: how a capped metrics store bounds memory — "
        "reservoir sampling (default) or spill-to-disk npy chunks",
    )
    return parser


def _parse_params(text: str, what: str) -> dict:
    """``k=v,k=v`` -> a dict, each value read as an int, else a float, else a str."""
    params = {}
    for pair in text.split(","):
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"bad {what} param {pair!r} (expected key=value)")
        for parse in (int, float, str):
            try:
                params[key] = parse(raw)
                break
            except ValueError:
                continue
    return params


def _parse_middleware_flag(value: str):
    """``name`` or ``name:k=v,k=v`` -> a MiddlewareSpec."""
    from repro.middleware.spec import MiddlewareSpec

    name, _, tail = value.partition(":")
    params = _parse_params(tail, "middleware") if tail else {}
    return MiddlewareSpec(name=name, params=params)


def _parse_chaos_flag(value: str):
    """``k=v,k=v`` -> a ChaosSpec, checked like a scenario file's block."""
    from repro.chaos.spec import ChaosSpec

    return ChaosSpec.from_dict(_parse_params(value, "chaos"))


def _run_scenario_file(
    path: Path,
    scale: Optional[float] = None,
    output: Optional[Path] = None,
    trace_out: Optional[Path] = None,
    sample_interval: Optional[float] = None,
    middleware: Optional[List[str]] = None,
    chaos: Optional[str] = None,
    trace_csv: Optional[Path] = None,
    stream_chunk: Optional[int] = None,
    metrics_cap: Optional[int] = None,
    metrics_policy: Optional[str] = None,
) -> int:
    """Run one scenario JSON file; print (and optionally save) the summary."""
    from dataclasses import replace

    from repro.scenario import Scenario, run
    from repro.scenario.workloads import StreamOnlySourceError, UnknownWorkloadError
    from repro.telemetry import TelemetrySpec
    from repro.workload.streaming import TraceFormatError

    try:
        scenario = Scenario.from_json(path.read_text())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot load scenario {path}: {exc}", file=sys.stderr)
        return 1
    if scale is not None:
        if scenario.workload is None:
            print(
                f"error: scenario {path} has no workload to scale",
                file=sys.stderr,
            )
            return 1
        scenario = replace(
            scenario, workload=replace(scenario.workload, scale=scale)
        )
    if trace_out is not None or sample_interval is not None:
        # CLI telemetry flags extend (or create) the scenario's spec; the
        # file's own `telemetry` block keeps any knobs the flags don't set.
        spec = scenario.telemetry or TelemetrySpec()
        if sample_interval is not None:
            spec = replace(spec, sample_interval=sample_interval)
        if trace_out is not None and not spec.trace:
            spec = replace(spec, trace=True)
        scenario = replace(scenario, telemetry=spec)
    if middleware:
        try:
            specs = tuple(_parse_middleware_flag(value) for value in middleware)
        except (TypeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        scenario = replace(scenario, middleware=specs)
    if chaos is not None:
        try:
            spec = _parse_chaos_flag(chaos)
        except (TypeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        scenario = replace(scenario, chaos=spec)
    if (
        trace_csv is not None
        or stream_chunk is not None
        or metrics_cap is not None
        or metrics_policy is not None
    ):
        # Streaming flags extend (or create) the scenario's stream spec; the
        # file's own `stream` block keeps any knobs the flags don't set.
        from repro.workload.streaming import StreamSpec

        try:
            stream = scenario.stream or StreamSpec()
            if trace_csv is not None:
                stream = replace(stream, trace_csv=str(trace_csv))
            if stream_chunk is not None:
                stream = replace(stream, chunk=stream_chunk)
            if metrics_cap is not None:
                stream = replace(stream, metrics_cap=metrics_cap)
            if metrics_policy is not None:
                stream = replace(stream, metrics_policy=metrics_policy)
        except ValueError as exc:
            print(f"error: bad stream flags: {exc}", file=sys.stderr)
            return 2
        scenario = replace(scenario, stream=stream)
    stream = scenario.stream
    if stream is not None and stream.trace_csv is not None:
        if not Path(stream.trace_csv).is_file():
            print(f"error: trace CSV {stream.trace_csv} not found", file=sys.stderr)
            return 2
    elif stream is not None:
        from repro.scenario.workloads import available_stream_sources

        known = available_stream_sources()
        source = scenario.workload.source if scenario.workload else None
        if source is None or source.lower() not in known:
            print(
                f"error: unknown stream source {source!r}; available: {', '.join(known)}",
                file=sys.stderr,
            )
            return 2
    try:
        result = run(scenario)
    except TraceFormatError as exc:
        print(f"error: trace CSV {stream.trace_csv}: {exc}", file=sys.stderr)
        return 2
    except (StreamOnlySourceError, UnknownWorkloadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rendered = result.describe()
    print(rendered)
    if trace_out is not None:
        from repro.telemetry import write_chrome_trace

        count = write_chrome_trace(result, trace_out)
        print(f"[telemetry] wrote {count} trace events to {trace_out}")
    if output is not None:
        output.mkdir(parents=True, exist_ok=True)
        (output / f"{path.stem}.txt").write_text(rendered + "\n")
    return 0


def _run_sweep_file(
    path: Path,
    jobs: Optional[int] = None,
    scale: Optional[float] = None,
    output: Optional[Path] = None,
) -> int:
    """Run one SweepSpec JSON; print (and optionally save) the merged table."""
    from dataclasses import replace

    from repro.sweep import SweepError, SweepSpec, run_sweep
    from repro.telemetry.progress import ProgressReporter

    try:
        spec = SweepSpec.from_json(path.read_text())
    except OSError as exc:
        print(f"error: cannot read sweep spec {path}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot load sweep spec {path}: {exc}", file=sys.stderr)
        return 1
    if scale is not None:
        if spec.base.workload is None:
            print(
                f"error: sweep spec {path} has no base workload to scale",
                file=sys.stderr,
            )
            return 1
        spec = replace(
            spec, base=replace(spec.base, workload=replace(spec.base.workload, scale=scale))
        )
    name = spec.name or path.stem
    progress = ProgressReporter()
    started = time.perf_counter()
    try:
        table = run_sweep(spec, jobs=jobs, progress=progress)
    except SweepError as exc:
        print(f"error: sweep {name} failed: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started
    rendered = table.render(title=f"sweep {name}: {len(table.rows)} points")
    rendered += f"\n\n[completed in {elapsed:.1f}s, jobs={jobs or 1}]"
    print(rendered)
    if output is not None:
        if output.exists() and not output.is_dir():
            print(
                f"error: output directory {output} collides with an existing "
                "file; remove it or pick another --output path",
                file=sys.stderr,
            )
            return 1
        output.mkdir(parents=True, exist_ok=True)
        (output / f"{name}.txt").write_text(rendered + "\n")
        table.write_csv(output / f"{name}.csv")
        table.write_json(output / f"{name}.json")
    return 0


def _run_scenario_dir(
    directory: Path,
    jobs: Optional[int] = None,
    scale: Optional[float] = None,
    output: Optional[Path] = None,
) -> int:
    """Run every ``*.json`` in a directory: scenarios and sweep specs.

    A file whose top-level object has a ``base`` key is a sweep spec;
    anything else is a plain Scenario.  Files run in sorted-name order so
    the output is deterministic.
    """
    import json

    if not directory.is_dir():
        print(f"error: --scenario-dir {directory} is not a directory", file=sys.stderr)
        return 1
    paths = sorted(directory.glob("*.json"))
    if not paths:
        print(f"error: no *.json files in {directory}", file=sys.stderr)
        return 1
    failures = 0
    for path in paths:
        print(f"=== {path.name} ===")
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            print(f"error: cannot load {path}: {exc}", file=sys.stderr)
            failures += 1
            continue
        if isinstance(payload, dict) and "base" in payload:
            status = _run_sweep_file(path, jobs=jobs, scale=scale, output=output)
        else:
            status = _run_scenario_file(path, scale=scale, output=output)
        failures += status != 0
        print()
    return 1 if failures else 0


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for experiment_id in list_experiments():
            print(experiment_id)
        return 0

    if args.jobs is not None and args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2

    if args.sweep is not None:
        return _run_sweep_file(
            args.sweep, jobs=args.jobs, scale=args.scale, output=args.output
        )
    if args.scenario_dir is not None:
        return _run_scenario_dir(
            args.scenario_dir, jobs=args.jobs, scale=args.scale, output=args.output
        )

    if args.scenario is not None:
        return _run_scenario_file(
            args.scenario,
            scale=args.scale,
            output=args.output,
            trace_out=args.trace_out,
            sample_interval=args.sample_interval,
            middleware=args.middleware,
            chaos=args.chaos,
            trace_csv=args.trace_csv,
            stream_chunk=args.stream_chunk,
            metrics_cap=args.metrics_cap,
            metrics_policy=args.metrics_policy,
        )
    if (
        args.trace_out is not None
        or args.sample_interval is not None
        or args.middleware is not None
        or args.chaos is not None
        or args.trace_csv is not None
        or args.stream_chunk is not None
        or args.metrics_cap is not None
        or args.metrics_policy is not None
    ):
        print(
            "error: --trace-out/--sample-interval/--middleware/--chaos/"
            "--trace-csv/--stream-chunk/--metrics-cap/--metrics-policy "
            "require --scenario",
            file=sys.stderr,
        )
        return 2

    if args.all:
        selected: List[str] = list_experiments()
    else:
        selected = list(args.experiments)
    if not selected:
        parser.print_usage()
        print("error: give experiment ids, or --all, or --list", file=sys.stderr)
        return 2

    if args.output is not None:
        if args.output.exists() and not args.output.is_dir():
            print(
                f"error: output directory {args.output} collides with an "
                "existing file; remove it or pick another --output path",
                file=sys.stderr,
            )
            return 1
        args.output.mkdir(parents=True, exist_ok=True)

    scale = args.scale if args.scale is not None else 1.0
    failures = 0
    for experiment_id in selected:
        started = time.perf_counter()
        try:
            output = run_experiment(experiment_id, scale=scale, jobs=args.jobs)
        except (KeyError, ValueError, TypeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            failures += 1
            continue
        elapsed = time.perf_counter() - started
        rendered = output.render() + f"\n\n[completed in {elapsed:.1f}s at scale {scale}]"
        print(rendered)
        print()
        if args.output is not None:
            (args.output / f"{experiment_id}.txt").write_text(rendered + "\n")
            try:
                output.write_csv(args.output)
            except FileExistsError as exc:
                print(f"error: {exc}", file=sys.stderr)
                failures += 1
    return 1 if failures else 0


def main() -> None:  # pragma: no cover - thin CLI wrapper
    sys.exit(run_cli())


if __name__ == "__main__":  # pragma: no cover
    main()
