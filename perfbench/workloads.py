"""The benchmark's three workloads, driven through the public API.

Each workload pre-generates its inputs from the seed (edge arrays; this
generation is the benchmark's own work and is never timed), then:

- ``setup()`` builds the catalogs and opens the session or service,
  warmed up, and returns the seconds each part took;
- ``run()`` sends requests for a fixed number of seconds and returns one
  :class:`Request` record per request;
- ``reference()`` recomputes a request's count with the serial ``wcoj``
  kernel on the same catalog — independent of the engine, runtime and
  service under test.

Why these three (see ``spec.json`` for the predictions):

- ``adj-cyclic`` — ADJ on the serial default path, a fresh graph per
  request: sampling and the optimizer do most of the work, the runtime
  none.
- ``hcube-mixed`` — HCubeJ on 2 worker processes over shared memory:
  kernels and the worker pool do the work, the optimizer none.
- ``service-open`` — Poisson arrivals into one warm ``QueryService``:
  admission, both caches, per-query executor views and the tcp block
  store, with catalog writes beside the reads.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import wait
from dataclasses import dataclass, field

import numpy as np

from repro.api.config import RunConfig
from repro.api.session import JoinSession
from repro.data.database import Database
from repro.data.datasets import (generate_erdos_renyi_edges,
                                 generate_power_law_edges, load_dataset)
from repro.errors import AdmissionError
from repro.kernels import create_kernel
from repro.query.catalog import paper_query
from repro.query.query import JoinQuery
from repro.service import QueryService
from repro.workloads.generators import graph_database_for

from layers import add_result_counters


@dataclass
class Request:
    """One request: what was sent, when, and what came back."""

    rid: int
    kind: str            # workload-specific class ("lj/Q5", "read", ...)
    ref: tuple           # reference key: which (query, catalog) it ran on
    due: float           # when it was due to be sent (perf_counter)
    sent: float = 0.0    # open loop: when the generator got to it
    end: float = 0.0
    count: int | None = None
    failure: str | None = None

    @property
    def latency(self) -> float:
        return self.end - self.due


@dataclass
class Setup:
    """What ``setup()`` built, plus how long each part took."""

    handle: object       # the JoinSession or QueryService
    dbs: list
    parts: dict = field(default_factory=dict)


def _config(**overrides) -> RunConfig:
    """A fully explicit RunConfig, so no REPRO_* variable leaks in."""
    base = dict(workers=8, backend="serial", transport=None, hosts=None,
                samples=100, seed=0, scale=None, work_budget=None,
                kernel="adaptive", memory_tuples=None, pipeline=True,
                profile=False, trace_path=None, log_level=None)
    base.update(overrides)
    return RunConfig(**base)


def _seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def wcoj_count(query: JoinQuery, db: Database) -> int:
    """The independent reference: serial Leapfrog, in this process.

    Attributes shared by the most atoms go first — a bench-side order
    (not the engines' planners) that keeps recounts cheap; the count
    does not depend on the order.
    """
    degree: dict[str, int] = {}
    for atom in query.atoms:
        for attr in atom.attributes:
            degree[attr] = degree.get(attr, 0) + 1
    order = sorted(degree, key=lambda a: (-degree[a], a))
    return create_kernel("wcoj").execute(query, db, order).count


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def _warm_input() -> tuple[JoinQuery, Database]:
    query = paper_query("Q1")
    return query, graph_database_for(
        query, generate_power_law_edges(400, num_nodes=100, seed=7))


class _ClosedLoop:
    """One client that sends its next request when the last one returns."""

    engine: str
    config: RunConfig
    open_loop = False
    #: False: cycle over the inputs.  True: every request gets an input
    #: (and a catalog) of its own, and the run ends early if they run out.
    one_input_per_request = False

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.inputs: list[tuple[str, JoinQuery, np.ndarray]] = \
            self.make_inputs(seed, seconds)

    def make_inputs(self, seed: int, seconds: float):  # pragma: no cover
        raise NotImplementedError

    def _catalogs(self) -> list[Database]:
        return [graph_database_for(q, e) for _, q, e in self.inputs]

    def setup(self) -> Setup:
        catalogs, catalog_s = _timed(self._catalogs)
        start = time.perf_counter()
        session = JoinSession(config=self.config)
        query, db = _warm_input()
        session.query_from(query, db).run(self.engine)
        return Setup(handle=session, dbs=catalogs,
                     parts={"data.catalog_s": catalog_s,
                            "api.open_s": time.perf_counter() - start})

    def teardown(self, setup: Setup) -> None:
        setup.handle.close()

    def run(self, setup: Setup, seconds: float, tracer=None
            ) -> list[Request]:
        session = setup.handle
        requests: list[Request] = []
        deadline = time.perf_counter() + seconds
        rid = 0
        while time.perf_counter() < deadline:
            if self.one_input_per_request and rid == len(self.inputs):
                break
            slot = rid % len(self.inputs)
            kind, query, _ = self.inputs[slot]
            db = setup.dbs[slot]
            request = Request(rid=rid, kind=kind, ref=(slot,),
                              due=time.perf_counter())
            if tracer is None:
                result = session.query_from(query, db).run(self.engine)
                request.end = time.perf_counter()
            else:
                with tracer.request(rid):
                    result = session.query_from(query, db).run(self.engine)
                request.end = time.perf_counter()
                add_result_counters(tracer, rid, result)
                self.after_traced(tracer, rid, query, db, result)
            request.count, request.failure = result.count, result.failure
            requests.append(request)
            rid += 1
        return requests

    def after_traced(self, tracer, rid, query, db, result) -> None:
        """Hook for extra traced-run bookkeeping, outside the wall."""

    def reference(self, ref: tuple) -> int:
        _, query, edges = self.inputs[ref[0]]
        return wcoj_count(query, graph_database_for(query, edges))


class AdjCyclic(_ClosedLoop):
    """ADJ on the serial default path over hard cyclic queries."""

    name = "adj-cyclic"
    engine = "adj"
    config = _config()
    #: Requests share no work: each runs on its own seeded graph.
    one_input_per_request = True
    #: (dataset analogue, query, scale).  Three classes of 0.3-0.4 s hold
    #: the median, lj/Q5 (0.5 s) the p75 tail and wt/Q5 (1 s) the top;
    #: a 30 s run sends about 60 requests, 15 of them beyond p75.
    ROTATION = (("as", "Q4", 1e-5), ("wt", "Q9", 1e-5), ("as", "Q5", 1e-5),
                ("lj", "Q5", 5e-6), ("wt", "Q5", 1e-5))
    #: Request rate the pre-generated pool covers for the whole run: about
    #: four times what the serial path reaches on a 2-vCPU VM (2-3/s).
    MAX_RATE = 10.0

    def make_inputs(self, seed: int, seconds: float):
        graphs = math.ceil(seconds * self.MAX_RATE / len(self.ROTATION))
        inputs = []
        for g in range(graphs):
            for slot, (dataset, name, scale) in enumerate(self.ROTATION):
                edges = load_dataset(dataset, scale=scale,
                                     seed=_seed(seed, 1, slot, g))
                inputs.append((f"{dataset}/{name}", paper_query(name),
                               edges))
        return inputs


class HCubeMixed(_ClosedLoop):
    """HCubeJ on 2 worker processes with the shm transport."""

    name = "hcube-mixed"
    engine = "hcubej"
    config = _config(workers=2, backend="processes", transport="shm")
    #: Seeded graphs per slot; the loop cycles over them, since repeated
    #: queries over the same catalogs are this workload's point.
    GRAPHS = 4

    def make_inputs(self, seed: int, seconds: float):
        def power_law(edges: int, g: int, salt: int) -> np.ndarray:
            return generate_power_law_edges(
                edges, num_nodes=edges // 4, exponent=1.8,
                seed=_seed(seed, 2, salt, g))

        inputs = []
        for g in range(self.GRAPHS):
            inputs += [
                ("Q1/pl4k", paper_query("Q1"), power_law(4000, g, 1)),
                # Sparse uniform path query: the adaptive chooser picks
                # the binary kernel here, wcoj everywhere else.
                ("Q7/uni30k", paper_query("Q7"), generate_erdos_renyi_edges(
                    30000, num_nodes=60000, seed=_seed(seed, 2, 2, g))),
                ("Q11/pl3k", paper_query("Q11"), power_law(3000, g, 3)),
                ("Q1/pl12k", paper_query("Q1"), power_law(12000, g, 4)),
                ("Q9/pl4k", paper_query("Q9"), power_law(4000, g, 5)),
            ]
        return inputs

    def run(self, setup: Setup, seconds: float, tracer=None
            ) -> list[Request]:
        self._kernels: dict[int, tuple] = {}
        requests = super().run(setup, seconds, tracer)
        if tracer is not None:
            # The chosen kernel timed alone, in this process, once per
            # input and after the timed loop so the loop is undisturbed.
            solo: dict[int, float] = {}
            for request in requests:
                slot = request.ref[0]
                if slot not in self._kernels:
                    continue
                if slot not in solo:
                    kernel, order = self._kernels[slot]
                    _, query, _ = self.inputs[slot]
                    db = setup.dbs[slot]
                    _, solo[slot] = _timed(lambda: create_kernel(
                        kernel).execute(query, db, order))
                tracer.count(request.rid, "kernels.solo_s", solo[slot])
        return requests

    def after_traced(self, tracer, rid, query, db, result) -> None:
        kernel = result.extra.get("kernel")
        if kernel is not None:
            self._kernels[rid % len(self.inputs)] = \
                (kernel, result.extra.get("order"))


class ServiceOpen:
    """Poisson arrivals into one warm QueryService (an open loop)."""

    name = "service-open"
    open_loop = True
    config = _config(workers=2, backend="threads", transport="tcp")
    MAX_CONCURRENT = 2
    #: Deep enough that no arrival is refused at this rate.
    QUEUE_DEPTH = 256
    #: Arrivals per second.  At least one request is outstanding only
    #: ~20% of the time, so a slow spell on a shared host does not tip
    #: the service into a backlog (24/s did, on some seeds).
    RATE = 12.0
    #: An assumed mix: nothing in the repository records real traffic.
    #: Reruns and writes get small shares that still give each class a
    #: few dozen samples for its median (43 and 29 in a 30 s run);
    #: together they set the load.  Reads, the
    #: case a result cache exists for, take the rest.  Each run sends
    #: exactly these shares, in a seeded order.
    MIX = (("read", 0.80), ("rerun", 0.12), ("write", 0.08))
    #: Hot catalogs: four seeded graphs for each (dataset, query), chosen
    #: so every uncached execution costs a similar 50-100 ms.  Twenty
    #: spread a run's writes thin: each catalog is written one or two
    #: times.  Each class targets every hot catalog equally often.
    HOT = (("as", "Q11"), ("wb", "Q11"), ("wt", "Q1"), ("ok", "Q1"),
           ("as", "Q9")) * 4
    SCALE = 1e-5
    #: Edges a write adds to a hot catalog: a slightly grown copy, so a
    #: written catalog costs about what it did before and write_p50_s
    #: stays comparable to rerun_p50_s.
    GROWTH = 0.02

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        rng = np.random.default_rng(_seed(seed, 3))
        count = max(1, int(round(self.RATE * seconds)))
        # A Poisson process conditioned on its count: sorted uniform
        # arrival times, so every seed sends the same number of requests.
        self.offsets = np.sort(rng.uniform(0.0, seconds, size=count))
        sizes = [round(share * count) for _, share in self.MIX[1:]]
        sizes.insert(0, count - sum(sizes))
        self.kinds = rng.permutation(
            np.repeat([kind for kind, _ in self.MIX], sizes))
        self.targets = np.empty(count, dtype=np.int64)
        for kind, _ in self.MIX:
            idx = np.flatnonzero(self.kinds == kind)
            self.targets[idx] = rng.permutation(
                np.resize(np.arange(len(self.HOT)), len(idx)))
        self.queries = [paper_query(name) for _, name in self.HOT]
        # versions[h][v]: edge array of hot catalog h after v writes.
        self.versions = []
        for h, (dataset, _) in enumerate(self.HOT):
            edges = load_dataset(dataset, scale=self.SCALE,
                                 seed=_seed(seed, 4, h))
            self.versions.append([edges])
        for i in np.flatnonzero(self.kinds == "write"):
            h = int(self.targets[i])
            prev = self.versions[h][-1]
            extra = generate_erdos_renyi_edges(
                max(1, int(len(prev) * self.GROWTH)),
                num_nodes=int(prev.max()) + 1,
                seed=_seed(seed, 5, int(i)))
            grown = np.unique(np.vstack([prev, extra]), axis=0)
            self.versions[h].append(grown)

    def setup(self) -> Setup:
        def catalogs():
            return [[graph_database_for(self.queries[h], edges)
                     for edges in versions]
                    for h, versions in enumerate(self.versions)]

        dbs, catalog_s = _timed(catalogs)
        start = time.perf_counter()
        service = QueryService(config=self.config,
                               max_concurrent=self.MAX_CONCURRENT,
                               queue_depth=self.QUEUE_DEPTH).warm()
        # Fill the plan and result caches for the hot set, and run one
        # uncached execution so the block store and pool are warm.
        for h, query in enumerate(self.queries):
            service.execute(query, dbs[h][0])
        service.execute(self.queries[0], dbs[0][0], use_cache=False)
        return Setup(handle=service, dbs=dbs,
                     parts={"data.catalog_s": catalog_s,
                            "api.open_s": time.perf_counter() - start})

    def teardown(self, setup: Setup) -> None:
        setup.handle.close()

    def run(self, setup: Setup, seconds: float, tracer=None
            ) -> list[Request]:
        service: QueryService = setup.handle
        dbs = setup.dbs
        version = [0] * len(self.HOT)
        requests: list[Request] = []
        futures = []
        queued_max = 0
        count = int(np.searchsorted(self.offsets, seconds))
        start = time.perf_counter() + 0.01
        for rid in range(count):
            due = start + float(self.offsets[rid])
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            kind = str(self.kinds[rid])
            h = int(self.targets[rid])
            query = self.queries[h]
            if tracer is not None:
                # A private query object per request lets the service
                # thread's spans be attributed back to this request.
                query = JoinQuery(query.atoms, name=query.name)
                tracer.bind_query(query, rid)
                tracer.add(rid, "bench.generator_lag_s", due, sent - due)
            if kind == "write":
                old = dbs[h][version[h]]
                version[h] += 1
                t0 = time.perf_counter()
                service.invalidate(old)
                if tracer is not None:
                    tracer.add(rid, "service.invalidate_s", t0,
                               time.perf_counter() - t0)
            request = Request(rid=rid, kind=kind, ref=(h, version[h]),
                              due=due, sent=sent)
            requests.append(request)
            t0 = time.perf_counter()
            try:
                future = service.submit(query, dbs[h][version[h]],
                                        use_cache=kind != "rerun")
            except AdmissionError as exc:
                request.end = time.perf_counter()
                request.failure = f"admission:{exc.reason}"
                continue
            submitted = time.perf_counter()
            if tracer is not None:
                tracer.mark(rid, "submit_start", t0)
                tracer.mark(rid, "submit_end", submitted)
                queued_max = max(queued_max, service.stats()["queued"])
            future.add_done_callback(_completion(request))
            futures.append((request, future))
        _, pending = wait([f for _, f in futures], timeout=120)
        if pending:
            raise RuntimeError(f"{len(pending)} service requests never "
                               f"completed")
        for request, future in futures:
            result = future.result()
            request.count, request.failure = result.count, result.failure
            if tracer is not None:
                add_result_counters(tracer, request.rid, result)
        self.queued_max = queued_max
        return requests

    def reference(self, ref: tuple) -> int:
        h, v = ref
        query = self.queries[h]
        return wcoj_count(query,
                          graph_database_for(query, self.versions[h][v]))


def _completion(request: Request):
    def done(_future) -> None:
        request.end = time.perf_counter()
    return done


WORKLOADS = {cls.name: cls for cls in (AdjCyclic, HCubeMixed, ServiceOpen)}
