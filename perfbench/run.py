"""The repository benchmark: host-time cost of the simulator, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_node --seed 42 --seconds 30 --trace 0

With ``--trace 0`` it reports the end-to-end metrics (tracing off); with
``--trace 1`` the per-layer metrics of one traced repetition.  Every
``run()`` call's simulated output is checked: conservation and
bit-identical repetitions on any seed, and ``reference.json`` at 1e-9 on
the default seed.  Human-readable lines (provenance, metrics with units,
simulated paper figures) come first; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Measurements run in fresh worker processes, one at a time.  See README.md
for the workloads, the metrics and what each layer should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("paper_node", "fleet_replay", "fleet_faults")
DEFAULT_SEED = 42

#: Cold set-ups timed per run (each in its own process), besides the one
#: the measuring process does.
SETUP_SAMPLES = 4

#: Wall-clock budget of one benchmark run; workers still running at the
#: deadline are killed and the run fails (a run must end within 3 minutes).
DEADLINE_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "invocations_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """A worker failed; the run prints no result."""


def call_worker(mode: str, args, *extra: str) -> dict:
    command = [sys.executable, str(WORKER), mode, "--workload", args.workload,
               "--seed", str(args.seed), *extra]
    remaining = args.deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError(f"no time left for worker {mode}")
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {mode} timed out after {exc.timeout}s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(f"worker {mode} exited with code {done.returncode}")
    return json.loads(lines[-1])


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# ---------------------------------------------------------------- checking

def check_legs(reps: list, workload: str, seed: int) -> tuple:
    """(attempted, failures) over every ``run()`` call of every repetition.

    A call fails when it raised, broke a conservation law, differs from
    the first repetition's output, or (default seed) from the reference.
    """
    pinned = json.loads(REFERENCE.read_text())
    reference = pinned["workloads"][workload] if seed == pinned["seed"] else None
    first = {}
    attempted, failures = 0, []
    for index, rep in enumerate(reps):
        for leg in rep["legs"]:
            attempted += 1
            name = leg["leg"]
            where = f"rep {index} {name}"
            if "error" in leg:
                failures.append(f"{where}: raised {leg['error']}")
                continue
            if leg["errors"]:
                failures.append(f"{where}: " + "; ".join(leg["errors"]))
                continue
            fp = leg["fingerprint"]
            if name not in first:
                first[name] = fp
            elif fp != first[name]:
                diff = sorted(k for k in fp if fp[k] != first[name].get(k))
                failures.append(f"{where}: differs from the first repetition in {diff}")
                continue
            if reference is not None:
                wrong = [
                    key for key, want in reference[name].items()
                    if not math.isclose(fp[key], want, rel_tol=1e-9, abs_tol=1e-12)
                ]
                if wrong:
                    failures.append(f"{where}: differs from reference.json in {wrong}")
    return attempted, failures


def resolved(rep: dict) -> int:
    """Invocations resolved (finished + rejected + lost) in one repetition."""
    total = 0
    for leg in rep["legs"]:
        fp = leg.get("fingerprint")
        if fp is not None:
            total += fp["finished"] + fp["rejected"] + fp["lost"]
    return total


def first_fingerprints(reps: list) -> dict:
    """Each leg's fingerprint from the earliest repetition that has one."""
    return {
        leg["leg"]: leg["fingerprint"]
        for rep in reversed(reps)
        for leg in rep["legs"]
        if "fingerprint" in leg
    }


def simulated_lines(workload: str, reps: list) -> list:
    """Paper-facing simulated figures (labelled; never gated)."""
    fps = first_fingerprints(reps)
    lines = []
    if workload == "paper_node" and {"fifo", "cfs", "hybrid"} <= set(fps):
        fifo = fps["fifo"]["cost"]
        lines.append(
            "simulated (not gated): cost ratio cfs/fifo = "
            f"{fps['cfs']['cost'] / fifo:.4f}, hybrid/fifo = "
            f"{fps['hybrid']['cost'] / fifo:.4f}"
        )
    for name, fp in sorted(fps.items()):
        lines.append(
            f"simulated (not gated): {name}: p99 response {fp['p99_response']:.4f} s, "
            f"p99 execution {fp['p99_execution']:.4f} s, cost {fp['cost']:.6f}, "
            f"finished {fp['finished']}, rejected {fp['rejected']}, lost {fp['lost']}"
        )
    return lines


# ---------------------------------------------------------------- the runs

def timed_run(args) -> tuple:
    measured = call_worker("measure", args, "--seconds", str(args.seconds))
    setups = [measured["setup_s"]]
    for _ in range(SETUP_SAMPLES):
        setups.append(call_worker("setup", args)["setup_s"])
    reps = measured["reps"]
    run_s = statistics.median(rep["seconds"] for rep in reps)
    attempted, failures = check_legs(reps, args.workload, args.seed)
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "invocations_per_s": resolved(reps[0]) / run_s,
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    lines = [
        "provenance: " + json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "git_sha": git_sha(),
            "python": measured["python"],
            "numpy": measured["numpy"],
            "nproc": os.cpu_count(),
            "calibration_s": measured["calibration_s"],
        }),
        f"repetitions: {len(reps)} ({[round(r['seconds'], 4) for r in reps]} s); "
        f"set-ups: {len(setups)} ({[round(s, 4) for s in setups]} s)",
    ]
    lines += [f"metric {name} = {value:.6g} {END_TO_END_UNITS[name]}"
              for name, value in metrics.items()]
    lines.append(f"metric failed_runs = {len(failures) / attempted:.6g} share "
                 f"({len(failures)} of {attempted} run() calls)")
    lines += simulated_lines(args.workload, reps)
    return metrics, END_TO_END_UNITS, attempted, failures, lines


def traced_run(args) -> tuple:
    spans = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
    out = call_worker("trace", args, "--spans", str(spans))
    reps = out["reps"]
    untraced, traced = reps
    attempted, failures = check_legs(reps, args.workload, args.seed)
    fps = first_fingerprints(reps)
    layers = out["layers"]
    metrics, units = {}, {}

    def put(name, value, unit):
        metrics[name], units[name] = value, unit

    for layer, stats in layers.items():
        calls = stats["calls"]
        put(f"{layer}.calls", calls, "count")
        put(f"{layer}.self_s", stats["self_s"], "s")
        put(f"{layer}.call_us", stats["total_s"] / calls * 1e6 if calls else 0.0, "us")

    def total(key):
        return sum(fp.get(key, 0) for fp in fps.values())

    invocations = total("submitted")
    put("events.processed", total("events"), "count")
    put("hybrid.to_cfs", total("hybrid_to_cfs"), "count")
    put("hybrid.fifo_done", total("hybrid_fifo_done"), "count")
    put("dispatchers.select_node.p50_us", out["latencies_us"]["dispatchers"]["p50"], "us")
    put("dispatchers.select_node.p99_us", out["latencies_us"]["dispatchers"]["p99"], "us")
    touches = out["method_calls"].get("NodeLoadIndex.touch", 0)
    put("load_index.touch_per_invocation",
        touches / invocations if invocations else 0.0, "count")
    put("middleware.rejected", total("rejected"), "count")
    put("middleware.retried", total("retried"), "count")
    put("migration.moved", total("migrated"), "count")
    planned = out["migration_planned"]
    put("migration.useful_ratio", total("migrated") / planned if planned else 0.0, "ratio")
    put("autoscaler.added", total("nodes_added"), "count")
    put("autoscaler.removed", total("nodes_removed"), "count")
    put("chaos.nodes_failed", total("nodes_failed"), "count")
    put("chaos.tasks_lost", total("tasks_lost"), "count")
    put("chaos.tasks_checkpointed", total("checkpointed"), "count")
    put("columns.rows_retained", total("rows_retained"), "count")
    put("trace.run_s", traced["seconds"], "s")
    put("trace.overhead", traced["seconds"] / untraced["seconds"], "ratio")

    # Shares of the traced repetition; ``workload`` is set-up, not run time.
    run_layers = [layer for layer in layers if layer != "workload"]
    self_total = sum(layers[layer]["self_s"] for layer in run_layers) or 1.0
    ranked = sorted(run_layers, key=lambda layer: -layers[layer]["self_s"])
    kept, total = out["spans_kept"], out["spans_total"]
    lines = [f"traced run: {args.workload} seed {args.seed}; first {kept:,} of "
             f"{total:,} spans written to {spans.relative_to(ROOT)}"
             + (" (truncated)" if kept < total else ""),
             "layer self-time shares: " + ", ".join(
                 f"{layer} {layers[layer]['self_s'] / self_total:.1%}"
                 for layer in ranked),
             "predicted shares (README.md): " + ", ".join(
                 f"{names} {share:.0%}" for names, share in out["predicted"].items())]
    lines += [f"metric {name} = {value:.6g} {units[name]}" for name, value in metrics.items()]
    lines += simulated_lines(args.workload, reps)
    return metrics, units, attempted, failures, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 < args.seconds < DEADLINE_S:
        parser.error(f"--seconds must be in (0, {DEADLINE_S})")
    args.deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        metrics, units, attempted, failures, lines = (
            traced_run(args) if args.trace else timed_run(args)
        )
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    for failure in failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
