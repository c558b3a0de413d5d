"""Turn request records and traced spans into the benchmark's metrics.

``end_to_end`` reads untraced requests only.  ``per_layer`` reads the
traced half of a ``--trace 1`` run, plus its untraced first half for the
per-class latencies and the tracing overhead.  Layer seconds are means
per request of *self* time, so that for the traced requests

    mean wall = sum(REQUEST_LAYERS seconds) + unaccounted_s

Both return ``(values, report)``: metric name -> value, and extra
human-readable lines (percentile used for the tail, per-class medians,
the reconciliation).
"""

from __future__ import annotations

import sys

import numpy as np

from layers import REQUEST_LAYERS

#: Per-request counters averaged over the traced requests.
COUNTERS = ("core.estimate_calls", "core.sample_work", "core.plans_explored",
            "engines.shuffled_tuples", "kernels.intersection_work",
            "runtime.shipped_bytes", "runtime.published_bytes",
            "net.fetched_bytes", "runtime.shuffle_s", "runtime.overlap_s")
#: Counters averaged only over the requests that report them.
SPARSE_COUNTERS = ("runtime.worker_skew", "kernels.solo_s")
SERVICE_CLASSES = ("read", "rerun", "write")
#: Fewest samples that should lie above the reported tail percentile.
TAIL_MIN_BEYOND = 10


def _ok(requests):
    return [r for r in requests if r.failure is None and r.end]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _class_medians(requests) -> dict[str, float]:
    by_kind: dict[str, list[float]] = {}
    for r in _ok(requests):
        by_kind.setdefault(r.kind, []).append(r.latency)
    return {kind: float(np.median(lat))
            for kind, lat in sorted(by_kind.items())}


def busy_seconds(requests) -> float:
    """Seconds during which at least one request was outstanding.

    A request is outstanding from its due time to its completion.  In a
    closed loop with one client this is the summed request time; in the
    open loop it leaves out the idle gaps between arrivals, so requests
    per busy second tracks how fast the program serves them, not the
    offered rate.
    """
    busy, edge = 0.0, float("-inf")
    for start, end in sorted((r.due, r.end) for r in requests if r.end):
        if end > edge:
            busy += end - max(start, edge)
            edge = end
    return busy


def end_to_end(workload, requests, setup_times, peak_rss_mib,
               tail_p: float):
    """``tail_p`` is the workload's fixed tail percentile (spec.json)."""
    ok = _ok(requests)
    if not ok:
        raise RuntimeError("no request completed; nothing to measure")
    latencies = [r.latency for r in ok]
    report = []
    if workload.open_loop:
        lags = [r.sent - r.due for r in requests]
        report.append(f"generator_lag_s mean={_mean(lags):.6g} "
                      f"max={max(lags):.6g}")
    values = {
        "latency_p50_s": float(np.median(latencies)),
        "latency_tail_s": float(np.percentile(latencies, tail_p)),
        "throughput_qps": len(ok) / busy_seconds(requests),
        "setup_s": float(np.median(setup_times)),
        "peak_rss_mb": peak_rss_mib,
    }
    beyond = sum(1 for x in latencies if x > values["latency_tail_s"])
    if beyond < TAIL_MIN_BEYOND:
        print(f"perfbench: warning: only {beyond} of {len(latencies)} "
              f"samples lie beyond p{tail_p:g}; latency_tail_s is noisy "
              f"in this run", file=sys.stderr)
    failed = len(requests) - len(ok)
    report += [
        f"tail percentile=p{tail_p:g} n={len(latencies)} beyond={beyond}",
        f"failed_frac {failed / len(requests):.6g} "
        f"({failed} of {len(requests)})",
        "setup_runs_s " + " ".join(f"{s:.4f}" for s in setup_times),
    ]
    for kind, p50 in _class_medians(requests).items():
        name = f"{kind}_p50_s" if kind in SERVICE_CLASSES else \
            f"class_p50_s[{kind}]"
        report.append(f"{name} {p50:.6g} s")
    return values, report


def per_layer(workload, base, traced, tracer, setup_parts, window, leaks):
    rows = []
    for r in _ok(traced):
        layers = dict(tracer.self_seconds.get(r.rid, {}))
        marks = tracer.counters.get(r.rid, {})
        if "submit_start" in marks:
            # Partition submit and admission wait at the moment the
            # service thread picked the request up.
            picked = marks.get("exec_start", marks["submit_end"])
            layers["service.submit_s"] = \
                min(marks["submit_end"], picked) - marks["submit_start"]
            layers["service.wait_s"] = max(0.0, picked - marks["submit_end"])
        covered = sum(layers.get(k, 0.0) for k in REQUEST_LAYERS)
        layers["unaccounted_s"] = r.latency - covered
        rows.append((r, layers, marks))
    if not rows:
        raise RuntimeError("no traced request completed")

    values = {k: _mean(layers.get(k, 0.0) for _, layers, _ in rows)
              for k in REQUEST_LAYERS + ("unaccounted_s",)}
    for k in COUNTERS:
        values[k] = _mean(marks.get(k, 0.0) for _, _, marks in rows)
    for k in SPARSE_COUNTERS:
        values[k] = _mean(marks[k] for _, _, marks in rows if k in marks)
    values.update(setup_parts)

    hits = window.get("service.result_cache_hits", 0)
    misses = window.get("service.result_cache_misses", 0)
    plan_hits = window.get("service.plan_cache_hits", 0)
    plan_misses = window.get("service.plan_cache_misses", 0)
    values["service.result_hit_ratio"] = \
        hits / (hits + misses) if hits + misses else 0.0
    values["service.plan_hit_ratio"] = \
        plan_hits / (plan_hits + plan_misses) if plan_hits + plan_misses \
        else 0.0
    values["service.rejected"] = (
        window.get("service.rejected_capacity", 0)
        + window.get("service.rejected_budget", 0))
    values["service.queued_max"] = getattr(workload, "queued_max", 0)
    classes = _class_medians(base)
    for kind in SERVICE_CLASSES:
        values[f"service.{kind}_p50_s"] = classes.get(kind, 0.0)

    # Tracing overhead: the same requests, traced versus untraced.
    untraced = {r.rid: r.latency for r in _ok(base)}
    common = [(untraced[r.rid], r.latency) for r, _, _ in rows
              if r.rid in untraced]
    values["trace_overhead_frac"] = (
        sum(t for _, t in common) / sum(u for u, _ in common) - 1.0
        if common else 0.0)
    values.update(leaks)

    wall = _mean(r.latency for r, _, _ in rows)
    report = [f"traced requests={len(rows)} untraced={len(untraced)} "
              f"common={len(common)} mean_wall_s={wall:.6g}"]
    for k in REQUEST_LAYERS + ("unaccounted_s",):
        if values[k]:
            report.append(f"split {k} {values[k]:.6g} s "
                          f"{100.0 * values[k] / wall:.1f}%")
    optimizer = values["core.optimize_s"] + values["core.estimate_s"]
    report.append(
        f"reconcile sum_layers+unaccounted="
        f"{sum(values[k] for k in REQUEST_LAYERS) + values['unaccounted_s']:.6g}"
        f" wall={wall:.6g} optimizer_incl_estimate="
        f"{100.0 * optimizer / wall:.1f}%")
    return values, report
