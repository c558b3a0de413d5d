"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload adj-cyclic --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics untraced; ``--trace 1`` runs the workload untraced for half the
time, then traced for the other half, and reports the per-layer split
(and the tracing overhead between the two halves).  Metric names and
units come from ``BENCHMARK.json``; each workload's tail percentile and
the predictions behind each metric are in ``perfbench/spec.json``.

Every request's count is checked against a serial ``wcoj`` recount of
the same catalog, computed after the timed window.  A mismatch exits
with status 1 and prints no metrics.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-ups per untraced run; setup_s is their median.
SETUPS = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program() -> None:
    """Put this checkout's ``src`` first on the path, or fail loudly."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}")
    # The benchmark configures every knob explicitly.
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {src}")


def join_children(timeout: float = 30.0) -> None:
    """Wait for every worker process this run started to exit."""
    import multiprocessing

    deadline = time.monotonic() + timeout
    for proc in multiprocessing.active_children():
        proc.join(max(0.0, deadline - time.monotonic()))
    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(5.0)


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource-tracker process."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def measure_untraced(workload, seconds: float):
    setup_times = []
    for k in range(SETUPS):
        start = time.perf_counter()
        setup = workload.setup()
        setup_times.append(time.perf_counter() - start)
        if k < SETUPS - 1:
            workload.teardown(setup)
    try:
        requests = workload.run(setup, seconds)
    finally:
        workload.teardown(setup)
    return requests, setup_times


def measure_traced(workload, seconds: float):
    """Untraced first half, then the same requests traced."""
    from repro.obs.metrics import METRICS, snapshot_delta

    import layers

    half = seconds / 2.0
    setup = workload.setup()
    try:
        base = workload.run(setup, half)
    finally:
        workload.teardown(setup)
    tracer = layers.Tracer()
    setup = workload.setup()
    try:
        before = METRICS.snapshot()
        with layers.instrument(tracer):
            traced = workload.run(setup, half, tracer)
        window = snapshot_delta(before, METRICS.snapshot())
    finally:
        workload.teardown(setup)
    return base, traced, tracer, setup.parts, window


def check_counts(workload, requests) -> tuple[int, list[str]]:
    """Recount every distinct catalog serially; list the mismatches."""
    expected: dict[tuple, int] = {}
    mismatches = []
    for request in requests:
        if request.failure is not None:
            continue
        if request.ref not in expected:
            expected[request.ref] = workload.reference(request.ref)
        if request.count != expected[request.ref]:
            mismatches.append(
                f"request {request.rid} ({request.kind}, ref "
                f"{request.ref}): count {request.count} != reference "
                f"{expected[request.ref]}")
    return len(expected), mismatches


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from multiprocessing import resource_tracker

    import metrics as bench_metrics
    import probes
    from workloads import WORKLOADS

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    env = probes.environment(ROOT)
    # Start the tracker first so its pipe is in both leak snapshots.
    resource_tracker.ensure_running()
    before = probes.resource_counts()
    with probes.PeakRss() as rss:
        if args.trace:
            outcome = measure_traced(workload, args.seconds)
            requests = outcome[0] + outcome[1]
        else:
            outcome = measure_untraced(workload, args.seconds)
            requests = outcome[0]
    join_children()
    leaks = probes.leak_delta(before, probes.resource_counts())
    stop_resource_tracker()

    references, mismatches = check_counts(workload, requests)
    if mismatches:
        for line in mismatches:
            print(f"perfbench: MISMATCH {line}", file=sys.stderr)
        return 1

    if args.trace:
        base, traced, tracer, parts, window = outcome
        values, report = bench_metrics.per_layer(
            workload, base, traced, tracer, parts, window, leaks)
        names = benchmark["per_layer"]
        trace_dir = HERE / "out"
        trace_dir.mkdir(exist_ok=True)
        path = trace_dir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write_chrome(str(path), {
            r.rid: (r.kind, r.due, r.end) for r in traced if r.end})
        report.append(f"chrome trace written to {path.relative_to(ROOT)}")
    else:
        untraced, setup_times = outcome
        values, report = bench_metrics.end_to_end(
            workload, untraced, setup_times, rss.peak_mib,
            spec["workloads"][args.workload]["tail_percentile"])
        report += [f"{k} {v}" for k, v in leaks.items()]
        names = benchmark["end_to_end"]

    failed = sum(1 for r in requests if r.failure is not None)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"samples requests={len(requests)} failed={failed} "
          f"catalogs_checked={references} mismatches=0")
    for line in report:
        print(line)
    metrics = {}
    for metric in names:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"metric {metric['name']} {value:.6g} {metric['unit']}")
    print(json.dumps({"correct": True, "attempted": len(requests),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
