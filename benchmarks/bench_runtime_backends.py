"""Runtime backends x transports: modeled vs *measured*.

Unlike the paper-figure benches (which report model-seconds from the
cost ledgers), this bench actually executes a one-round HCube plan on
the ``serial``, ``threads`` and ``processes`` backends of
:mod:`repro.runtime`, under all three data-plane transports (``pickle``
partitions, zero-copy ``shm`` descriptors, and loopback ``tcp``
block-store descriptors), sweeping worker counts.  Every run streams
its epoch (routing parallelized, publish overlapped with execution).

Columns: the modeled total, the measured wall-clock, the measured
speedup over ``serial`` at the same (workers, transport), the bytes the
coordinator serialized into task payloads (``shipped`` — the column that
shrinks under ``shm``/``tcp``), and ``overlap_s`` — the wall-clock
window during which task production (routing/publish/mint) and task
execution coexisted (zero on the serial backend).

Workload: triangle counting (Q1) on a synthetic heavy-tailed (skewed)
power-law graph — hub vertices make per-worker Leapfrog work expensive
enough to amortize the process-pool pickling overhead.  On a machine
with >= 4 usable cores the ``processes`` row at 4 workers should show a
>= 1.3x measured speedup over ``serial``; with fewer cores (CI containers are often pinned to 1) the bench still runs and
the table records the honest — smaller — ratios next to the
available-core count.

Since PR 7 the bench also sweeps the :mod:`repro.kernels` layer —
``wcoj`` vs ``binary`` vs ``adaptive`` — on two deliberately opposed
workloads: an *acyclic* 2-path (Q7) over a sparse uniform graph, where
the vectorized hash-join kernel wins by an order of magnitude, and the
*cyclic* skewed triangle (Q1), where the binary plan's quadratic
intermediate makes Leapfrog the only sane choice.  The sweep asserts
all kernels agree on counts and that ``adaptive`` never loses to the
worst pure kernel.

Since PR 10 the bench can also sweep the :mod:`repro.service` layer
(``--service-json`` / ``--only-service``): cold vs warm-cache latency
for one query through a warm :class:`QueryService`, then sustained
queries/sec at client concurrency 1/4/8 — once with the result cache
on (server-side cache-hit throughput) and once bypassing it (real
concurrent executions multiplexed onto the shared warm cluster).

Run:  PYTHONPATH=src python benchmarks/bench_runtime_backends.py
      [--json BENCH_runtime.json] [--kernels-json BENCH_kernels.json]
      [--only-kernels] [--trace-dir traces/] [--profile-dir profiles/]
      [--service-json BENCH_service.json] [--only-service]

``--trace-dir`` additionally writes one Chrome trace-event JSON per
(backend, transport, workers) config — the streamed overlap window is directly visible in Perfetto as worker-task spans crossing
the coordinator's publish spans.  ``--profile-dir`` runs an EXPLAIN
ANALYZE pass over the two kernel workloads (threads backend, so the
phases have measured wall-clock) and writes one ``profile_<name>.json``
each plus a combined ``BENCH_profile.json`` — the per-phase
modeled-vs-measured breakdown, machine-readable across PRs.
Env:  REPRO_BENCH_SKEW_EDGES (default 12000),
      REPRO_BENCH_KERNEL_EDGES (default 30000),
      REPRO_BENCH_RUNTIME_WORKERS (default "1,2,4"),
      REPRO_BENCH_HOSTS (optional "host:port,..." — adds a
      remote-backend sweep against running `repro serve` agents).

``--json`` writes the per-(backend, transport, workers) records and ``--kernels-json`` the per-(workload, kernel) records so
the perf trajectory is machine-readable across PRs.
"""

from __future__ import annotations

import argparse
import json
import os
import time

from common import fmt_table, report

from repro.data import Database, Relation
from repro.data.datasets import generate_erdos_renyi_edges, \
    generate_power_law_edges
from repro.distributed import Cluster
from repro.engines import HCubeJ, run_engine_safely
from repro.kernels import available_kernels
from repro.obs.tracing import NOOP_TRACER, Tracer, use_tracer, \
    write_chrome_trace
from repro.query import paper_query
from repro.runtime import available_parallelism, available_transports, \
    create_executor

SKEW_EDGES = int(float(os.environ.get("REPRO_BENCH_SKEW_EDGES", "12000")))
KERNEL_EDGES = int(float(os.environ.get("REPRO_BENCH_KERNEL_EDGES",
                                        "30000")))
#: Best-of-N wall-clock per (workload, kernel) config.
KERNEL_REPS = 3
WORKER_SWEEP = tuple(
    int(w) for w in
    os.environ.get("REPRO_BENCH_RUNTIME_WORKERS", "1,2,4").split(","))
BACKENDS = ("serial", "threads", "processes")
TRANSPORT_SWEEP = available_transports()
#: Optional running worker agents for a remote-backend leg.
REMOTE_HOSTS = os.environ.get("REPRO_BENCH_HOSTS") or None


def skew_testcase():
    """Triangle query over one synthetic skewed (power-law) graph."""
    query = paper_query("Q1")
    edges = generate_power_law_edges(
        SKEW_EDGES, num_nodes=max(64, SKEW_EDGES // 6),
        exponent=1.7, seed=7, symmetric=True)
    db = Database(Relation(atom.relation, ("src", "dst"), edges,
                           dedup=True)
                  for atom in query.atoms)
    return query, db


def path_testcase():
    """Acyclic 2-path (Q7) over a sparse uniform graph (avg degree 1).

    Sized so the greedy join-size estimate stays under the adaptive
    planner's blowup limit: the hash-join kernel is the right call, and
    Leapfrog pays one Python-level iteration per distinct binding of
    the first attribute.
    """
    query = paper_query("Q7")
    edges = generate_erdos_renyi_edges(
        KERNEL_EDGES, num_nodes=max(64, KERNEL_EDGES), seed=11,
        symmetric=False)
    db = Database(Relation(atom.relation, ("src", "dst"), edges,
                           dedup=True)
                  for atom in query.atoms)
    return query, db


def run_kernels():
    """Sweep kernels over one acyclic and one cyclic workload.

    Serial, one worker, pickle transport: wall-clock differences are pure
    kernel differences (no transport or pool noise).  Asserts all
    kernels agree on counts and ``adaptive`` never loses to the worst
    pure kernel.
    """
    workloads = [("Q7_path_uniform", *path_testcase()),
                 ("Q1_triangle_skew", *skew_testcase())]
    cluster = Cluster(num_workers=1)
    records = []
    for name, query, db in workloads:
        counts = set()
        times: dict[str, float] = {}
        for kernel in available_kernels():
            engine = HCubeJ(kernel=kernel)
            best = float("inf")
            result = None
            for _ in range(KERNEL_REPS):
                start = time.perf_counter()
                result = run_engine_safely(engine, query, db, cluster)
                best = min(best, time.perf_counter() - start)
            assert result.ok, f"{name}/{kernel} failed: {result.failure}"
            counts.add(result.count)
            times[kernel] = best
            records.append({
                "workload": name,
                "kernel": kernel,
                "resolved": result.extra.get("kernel"),
                "reason": result.extra.get("kernel_reason"),
                "count": result.count,
                "best_seconds": best,
            })
        assert len(counts) == 1, f"kernels disagree on {name}: {counts}"
        for rec in records:
            if rec["workload"] == name:
                rec["speedup_vs_wcoj"] = times["wcoj"] / \
                    rec["best_seconds"]
        worst_pure = max(times[k] for k in times if k != "adaptive")
        # Lenient in-bench guard (CI repeats it on the emitted JSON):
        # adaptive is one of the pure kernels plus a selection pass, so
        # losing to the *worst* pure kernel means the planner chose
        # badly — 15% headroom absorbs wall-clock noise.
        assert times["adaptive"] <= worst_pure * 1.15, \
            (f"adaptive lost to the worst pure kernel on {name}: "
             f"{times}")
    return records


def run_profiles(profile_dir) -> list[dict]:
    """EXPLAIN ANALYZE the two kernel workloads; write profile JSONs.

    Goes through the real ``QueryJob.run(profile=True)`` path (scoped
    metrics window, query ids, span slice) on the threads backend so
    every phase row carries a measured wall-clock column.
    """
    from repro.api import JoinSession
    from repro.api.job import QueryJob

    workloads = [("Q7_path_uniform", *path_testcase()),
                 ("Q1_triangle_skew", *skew_testcase())]
    os.makedirs(profile_dir, exist_ok=True)
    docs = []
    with JoinSession(workers=2, backend="threads",
                     transport="pickle") as session:
        for name, query, db in workloads:
            result = QueryJob(session, query, db).run(
                "hcubej", profile=True)
            assert result.ok, f"profile {name} failed: {result.failure}"
            doc = result.profile.as_dict()
            doc["workload"] = name
            path = os.path.join(profile_dir, f"profile_{name}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=2)
            print(f"wrote {path}")
            docs.append(doc)
    combined = os.path.join(profile_dir, "BENCH_profile.json")
    with open(combined, "w") as fh:
        json.dump({"bench": "profile",
                   "kernel_edges": KERNEL_EDGES,
                   "skew_edges": SKEW_EDGES,
                   "usable_cores": available_parallelism(),
                   "profiles": docs}, fh, indent=2)
    print(f"wrote {combined} ({len(docs)} profiles)")
    return docs


#: Per-thread query repetitions in the service qps sweep.
SERVICE_ROUNDS = 3
SERVICE_CONCURRENCY = (1, 4, 8)


def run_service():
    """Cold vs warm-cache latency, then qps at concurrency 1/4/8.

    One warm :class:`QueryService` on the threads backend serves every
    request.  The qps sweep runs twice per concurrency level: with the
    result cache on (measuring the server's cache-hit throughput) and
    bypassing it (real executions, epoch-isolated on the shared
    executor).  Asserts every concurrent count equals the cold count.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.api import RunConfig
    from repro.service import QueryService

    query, db = skew_testcase()
    records = []
    config = RunConfig(workers=max(WORKER_SWEEP), backend="threads",
                       transport="pickle")
    with QueryService(config=config,
                      max_concurrent=max(SERVICE_CONCURRENCY)) as svc:
        start = time.perf_counter()
        cold = svc.execute(query, db)
        cold_s = time.perf_counter() - start
        assert cold.ok, f"cold service run failed: {cold.failure}"
        warm_best = float("inf")
        for _ in range(SERVICE_ROUNDS):
            start = time.perf_counter()
            warm = svc.execute(query, db)
            warm_best = min(warm_best, time.perf_counter() - start)
            assert warm.ok and warm.count == cold.count
            assert warm.extra.get("result_cache") == "hit", \
                "warm repeat missed the result cache"
        records.append({
            "mode": "latency", "concurrency": 1,
            "count": cold.count,
            "cold_seconds": cold_s,
            "warm_seconds": warm_best,
            "warm_speedup": cold_s / warm_best,
        })

        def one_client(use_cache):
            for _ in range(SERVICE_ROUNDS):
                result = svc.execute(query, db, use_cache=use_cache)
                assert result.ok and result.count == cold.count, \
                    f"concurrent run diverged: {result.failure}"
            return SERVICE_ROUNDS

        for cached in (True, False):
            for concurrency in SERVICE_CONCURRENCY:
                with ThreadPoolExecutor(concurrency) as pool:
                    start = time.perf_counter()
                    done = sum(pool.map(
                        lambda _i: one_client(cached),
                        range(concurrency)))
                    elapsed = time.perf_counter() - start
                records.append({
                    "mode": "qps-cached" if cached else "qps-executed",
                    "concurrency": concurrency,
                    "count": cold.count,
                    "queries": done,
                    "seconds": elapsed,
                    "qps": done / elapsed,
                })
        stats = svc.stats()
    for rec in records:
        rec["workers"] = config.workers
        rec["result_cache_entries"] = stats["result_cache_entries"]
    return records


def report_service(records, json_path=None) -> None:
    cores = available_parallelism()
    rows = []
    for r in records:
        if r["mode"] == "latency":
            rows.append(["latency", 1, f"{r['count']:,}",
                         f"{r['cold_seconds']:.4f}",
                         f"{r['warm_seconds']:.4f}",
                         f"{r['warm_speedup']:.1f}x", "-"])
        else:
            rows.append([r["mode"], r["concurrency"],
                         f"{r['count']:,}", "-", "-", "-",
                         f"{r['qps']:.1f}"])
    table = fmt_table(
        ["mode", "clients", "count", "cold_s", "warm_s",
         "warm_speedup", "qps"],
        rows,
        title=(f"QueryService: cold vs warm-cache latency and qps "
               f"({SKEW_EDGES:,}-edge skew triangle, threads backend, "
               f"{cores} usable core(s))"))
    note = ("\nNote: 'qps-cached' serves repeats of one query from the "
            "result cache (zero data-plane bytes per hit); "
            "'qps-executed' bypasses it, so every request is a real "
            "epoch-isolated execution on the shared warm executor.")
    report("service", table + note)
    if json_path:
        payload = {
            "bench": "service",
            "skew_edges": SKEW_EDGES,
            "rounds": SERVICE_ROUNDS,
            "usable_cores": cores,
            "records": records,
        }
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {json_path} ({len(records)} records)")


def _run_once(query, db, cluster, backend, transport, workers,
              trace_dir=None) -> dict:
    kwargs = {"hosts": REMOTE_HOSTS} if backend == "remote" else {}
    executor = create_executor(backend, max_workers=workers,
                               transport=transport, **kwargs)
    tracer = Tracer() if trace_dir else None
    try:
        start = time.perf_counter()
        with use_tracer(tracer if tracer is not None else NOOP_TRACER):
            result = run_engine_safely(HCubeJ(), query, db, cluster,
                                       executor=executor)
        measured = time.perf_counter() - start
    finally:
        executor.close()
    if tracer is not None:
        path = os.path.join(
            trace_dir, f"trace_{backend}_{transport}_w{workers}.json")
        write_chrome_trace(path, tracer.spans)
    assert result.ok, \
        f"{backend}/{transport} failed: {result.failure}"
    plane = result.extra.get("data_plane", {})
    tel = result.telemetry
    return {
        "backend": backend,
        "transport": transport,
        "workers": workers,
        "count": result.count,
        "modeled_seconds": result.breakdown.total,
        "measured_seconds": measured,
        "shuffle_seconds": tel.phase_seconds.get("shuffle", 0.0),
        "publish_seconds": tel.phase_seconds.get("publish", 0.0),
        "join_seconds": tel.phase_seconds.get("local_join", 0.0),
        "overlap_s": tel.overlap_seconds,
        "coordinator_shipped_bytes": plane.get("shipped_bytes", 0),
        "published_bytes": plane.get("published_bytes", 0),
        "fetched_bytes": plane.get("fetched_bytes", 0),
        "freed_blocks": plane.get("freed_blocks", 0),
    }


def run_backends(trace_dir=None):
    """Sweep backends x transports x workers; return records."""
    query, db = skew_testcase()
    records = []
    counts = set()
    serial_measured: dict[tuple[int, str], float] = {}
    backends = BACKENDS + (("remote",) if REMOTE_HOSTS else ())
    for workers in WORKER_SWEEP:
        cluster = Cluster(num_workers=workers)
        for backend in backends:
            for transport in TRANSPORT_SWEEP:
                if backend == "remote" and transport == "shm":
                    continue  # agents may not share this host's memory
                rec = _run_once(query, db, cluster, backend, transport,
                                workers, trace_dir=trace_dir)
                counts.add(rec["count"])
                key = (workers, transport)
                if backend == "serial":
                    serial_measured[key] = rec["measured_seconds"]
                rec["speedup_vs_serial"] = (
                    serial_measured.get(key, rec["measured_seconds"])
                    / rec["measured_seconds"])
                records.append(rec)
    assert len(counts) == 1, f"backends disagree: {counts}"
    # The descriptor-only planes must move strictly fewer coordinator-
    # pickled bytes than the pickle plane on the same (backend, workers)
    # run — and under tcp the partition bytes must show up as block
    # store fetches instead.
    by_key = {(r["backend"], r["workers"], r["transport"]): r
              for r in records}
    for workers in WORKER_SWEEP:
        for backend in BACKENDS:
            pik = by_key[(backend, workers, "pickle")]
            for transport in ("shm", "tcp"):
                rec = by_key[(backend, workers, transport)]
                assert (rec["coordinator_shipped_bytes"]
                        < pik["coordinator_shipped_bytes"]), \
                    (f"{transport} did not reduce shipped bytes at "
                     f"{backend}/{workers}")
            tcp = by_key[(backend, workers, "tcp")]
            assert tcp["fetched_bytes"] >= tcp["published_bytes"] > 0, \
                f"tcp fetches not accounted at {backend}/{workers}"
    return records


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write machine-readable records "
                             "(e.g. BENCH_runtime.json)")
    parser.add_argument("--kernels-json", metavar="PATH", default=None,
                        help="write the kernel-sweep records "
                             "(e.g. BENCH_kernels.json)")
    parser.add_argument("--only-kernels", action="store_true",
                        help="run only the kernel sweep (skip the "
                             "backend x transport sweep)")
    parser.add_argument("--trace-dir", metavar="DIR", default=None,
                        help="write one Chrome trace-event JSON per "
                             "(backend, transport, workers) config into "
                             "DIR — load in Perfetto to see the "
                             "streamed overlap window")
    parser.add_argument("--profile-dir", metavar="DIR", default=None,
                        help="EXPLAIN ANALYZE the two kernel workloads "
                             "and write profile_<name>.json plus a "
                             "combined BENCH_profile.json into DIR")
    parser.add_argument("--service-json", metavar="PATH", default=None,
                        help="run the QueryService sweep (cold vs "
                             "warm-cache latency, qps at concurrency "
                             "1/4/8) and write the records (e.g. "
                             "BENCH_service.json)")
    parser.add_argument("--only-service", action="store_true",
                        help="run only the QueryService sweep")
    args = parser.parse_args(argv)
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
    if args.only_service or args.service_json:
        report_service(run_service(), json_path=args.service_json)
        if args.only_service:
            return
    cores = available_parallelism()
    kernel_records = run_kernels()
    kernel_rows = [[r["workload"], r["kernel"], r["resolved"],
                    f"{r['count']:,}", f"{r['best_seconds']:.4f}",
                    f"{r['speedup_vs_wcoj']:.2f}x"]
                   for r in kernel_records]
    kernel_table = fmt_table(
        ["workload", "kernel", "resolved", "count", "best_s",
         "speedup_vs_wcoj"],
        kernel_rows,
        title=(f"Join kernels on opposed workloads (acyclic "
               f"{KERNEL_EDGES:,}-edge path, cyclic {SKEW_EDGES:,}-edge "
               f"skew triangle; best of {KERNEL_REPS}, serial)"))
    report("kernels", kernel_table)
    if args.kernels_json:
        payload = {
            "bench": "kernels",
            "kernel_edges": KERNEL_EDGES,
            "skew_edges": SKEW_EDGES,
            "reps": KERNEL_REPS,
            "usable_cores": cores,
            "records": kernel_records,
        }
        with open(args.kernels_json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.kernels_json} ({len(kernel_records)} records)")
    if args.profile_dir:
        run_profiles(args.profile_dir)
    if args.only_kernels:
        return
    records = run_backends(trace_dir=args.trace_dir)
    rows = [[r["backend"], r["transport"], r["workers"],
             f"{r['count']:,}",
             f"{r['modeled_seconds']:.4f}",
             f"{r['measured_seconds']:.4f}",
             f"{r['overlap_s']:.4f}",
             f"{r['coordinator_shipped_bytes']:,}",
             f"{r['fetched_bytes']:,}",
             f"{r['speedup_vs_serial']:.2f}x"]
            for r in records]
    table = fmt_table(
        ["backend", "transport", "workers", "count", "modeled_s", "measured_s", "overlap_s", "shipped_B",
         "fetched_B", "speedup_vs_serial"],
        rows,
        title=(f"Runtime backends x transports on the "
               f"synthetic skew graph ({SKEW_EDGES:,} edges, "
               f"{cores} usable core(s))"))
    note = ("\n\nNote: 'modeled_s' is the cost-model total for the "
            "simulated 28-node-style cluster; 'measured_s' is real "
            "wall-clock on this machine.  'overlap_s' is the window "
            "during which the coordinator was still routing/publishing "
            "while workers already executed tasks (0 on the serial "
            "backend — one task at a time has no concurrency to "
            "claim).  'shipped_B' counts bytes the "
            "coordinator serialized "
            "into task payloads — full partition matrices under the "
            "pickle transport, descriptors under shm and tcp.  "
            "'fetched_B' counts bytes workers pulled back out of the "
            "tcp block store.  The processes backend needs >= as many "
            "usable cores as workers to show its speedup, and overlap "
            "wins need >= 2 usable cores; "
            f"this machine exposes {cores}.")
    report("runtime_backends", table + note)
    if args.json:
        payload = {
            "bench": "runtime_backends",
            "skew_edges": SKEW_EDGES,
            "usable_cores": cores,
            "records": records,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json} ({len(records)} records)")


def test_bench_runtime_backends():
    """Tier-2 entry point: the sweep runs and backends agree."""
    main([])


if __name__ == "__main__":
    main()
