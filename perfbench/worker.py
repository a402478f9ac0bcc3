"""One measurement process of the benchmark (started by ``run.py``).

Every mode runs in a fresh interpreter and prints one JSON object as its
last stdout line:

* ``setup``     -- time one cold set-up of the workload;
* ``measure``   -- cold set-up, then repetitions while the next one should
  end within ``--seconds`` (at least two); peak RSS is read after the
  first repetition;
* ``trace``     -- one untraced and one traced repetition, with per-layer
  calls and self time from :mod:`tracing`;
* ``reference`` -- one repetition of every workload, printing the
  fingerprints that ``reference.json`` pins for the default seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[1:1] = [str(ROOT / "src"), str(ROOT)]

import numpy  # noqa: E402

from repro.scenario.run import run  # noqa: E402

import workloads  # noqa: E402


def run_repetition(prepared: "workloads.Prepared") -> dict:
    """Run every leg once; time only the ``run()`` calls."""
    legs = []
    seconds = 0.0
    for leg in prepared.legs:
        tasks = prepared.take_inputs(leg)
        gc.collect()
        start = time.perf_counter()
        try:
            outcome = run(leg.scenario, tasks=tasks)
        except Exception as exc:  # a failing leg is counted, not fatal
            seconds += time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            legs.append({"leg": leg.name, "error": f"{type(exc).__name__}: {exc}"})
            continue
        seconds += time.perf_counter() - start
        fp = workloads.fingerprint(outcome, prepared.submitted)
        del outcome, tasks
        legs.append(
            {
                "leg": leg.name,
                "fingerprint": fp,
                "errors": workloads.conservation_errors(fp),
            }
        )
    return {"seconds": seconds, "legs": legs}


def timed_setup(workload: str, seed: int):
    start = time.perf_counter()
    prepared = workloads.SETUPS[workload](seed)
    return prepared, time.perf_counter() - start


def mode_setup(args) -> dict:
    _, setup_s = timed_setup(args.workload, args.seed)
    return {"setup_s": setup_s}


def mode_measure(args) -> dict:
    prepared, setup_s = timed_setup(args.workload, args.seed)
    reps = []
    rss_mb = None
    started = time.perf_counter()
    while True:
        reps.append(run_repetition(prepared))
        if rss_mb is None:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Start another repetition only if it should end within the budget.
        elapsed = time.perf_counter() - started
        if len(reps) >= 2 and elapsed + reps[-1]["seconds"] > args.seconds:
            break
        prepared.build_inputs()
    from benchmarks.hotpath import calibration_units

    return {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "reps": reps,
        "calibration_s": calibration_units(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def mode_trace(args) -> dict:
    from tracing import LayerTracer

    tracer = LayerTracer()
    tracer.install()
    try:
        prepared, setup_s = timed_setup(args.workload, args.seed)
    finally:
        tracer.uninstall()
    untraced = run_repetition(prepared)
    prepared.build_inputs()
    tracer.install()
    try:
        traced = run_repetition(prepared)
    finally:
        tracer.uninstall()
    if args.spans:
        os.makedirs(os.path.dirname(args.spans), exist_ok=True)
        tracer.write_spans(args.spans)
    latencies = {
        layer: sorted(values) for layer, values in tracer.latencies.items()
    }
    return {
        "setup_s": setup_s,
        "reps": [untraced, traced],
        "layers": {
            layer: {"calls": int(calls), "self_s": self_s, "total_s": total_s}
            for layer, (calls, self_s, total_s) in tracer.stats.items()
        },
        "method_calls": {
            label: calls for label, (calls,) in tracer.method_calls.items()
        },
        "migration_planned": tracer.planned_moves,
        "spans_kept": len(tracer.spans),
        "spans_total": sum(int(calls) for calls, _, _ in tracer.stats.values()),
        "predicted": workloads.PREDICTED_PROFILE[args.workload],
        "latencies_us": {
            layer: {
                "p50": _percentile(values, 0.50) * 1e6,
                "p99": _percentile(values, 0.99) * 1e6,
            }
            for layer, values in latencies.items()
        },
    }


def _percentile(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def mode_reference(args) -> dict:
    out = {"seed": args.seed, "fields": list(workloads.REFERENCE_FIELDS), "workloads": {}}
    for name, setup in workloads.SETUPS.items():
        rep = run_repetition(setup(args.seed))
        legs = {}
        for leg in rep["legs"]:
            if "error" in leg or leg["errors"]:
                raise SystemExit(f"{name}/{leg['leg']} failed: {leg}")
            fp = leg["fingerprint"]
            legs[leg["leg"]] = {key: fp[key] for key in workloads.REFERENCE_FIELDS}
        out["workloads"][name] = legs
    return out


MODES = {
    "setup": mode_setup,
    "measure": mode_measure,
    "trace": mode_trace,
    "reference": mode_reference,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--workload", choices=sorted(workloads.SETUPS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    if args.mode in ("setup", "measure", "trace") and args.workload is None:
        parser.error(f"{args.mode} needs --workload")
    indent = 2 if args.mode == "reference" else None
    print(json.dumps(MODES[args.mode](args), indent=indent))
    return 0


if __name__ == "__main__":
    sys.exit(main())
