"""Bench-side tracing: spans around calls into each layer's public functions.

The program is not changed.  A traced run swaps a few module attributes
for timing wrappers (restored on exit) and records, per request, the
*self* time of every layer: a span's duration minus the time its child
spans cover.  Self times of one request never overlap, so

    request wall = sum(layer self seconds) + unaccounted_s

holds by construction, and ``unaccounted_s`` is what no span covered
(facade overhead, thread hand-offs).  Counters the program already
returns (``EngineResult.telemetry``/``data_plane``, the estimator's
``calls``/``total_work``, ``service.*`` metrics) are added per request
by the workloads.

Span attribution: a thread-local *current request* id.  Closed loops set
it around each call; the service workload sets it from the first cache
key a service thread computes for a request (see ``bind_query``).
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import repro.core.cost_model as cost_model_mod
import repro.core.optimizer as optimizer_mod
import repro.engines.adj as adj_mod
import repro.engines.hcubej as hcubej_mod
import repro.engines.one_round as one_round_mod
import repro.kernels.adaptive as adaptive_mod
import repro.service.cache as cache_mod
import repro.service.service as service_mod
from repro.core.sampling import CardinalityEstimator
from repro.obs.tracing import Span, write_chrome_trace

#: Layer seconds that partition a request's wall time (self times).
REQUEST_LAYERS = (
    "bench.generator_lag_s",
    "service.submit_s",
    "service.wait_s",
    "service.lookup_s",
    "service.invalidate_s",
    "ghd.hypertree_s",
    "core.optimize_s",
    "core.estimate_s",
    "engines.execute_s",
    "kernels.choose_s",
    "distributed.shares_s",
    "distributed.route_s",
    "runtime.publish_s",
    "runtime.local_join_s",
)

#: Telemetry phases measured inside ``engines.execute`` by the program;
#: they are subtracted from the engine's self time so nothing counts twice.
TELEMETRY_LAYERS = {"publish": "runtime.publish_s",
                    "local_join": "runtime.local_join_s"}


class _Frame:
    __slots__ = ("layer", "start", "child")

    def __init__(self, layer: str, start: float):
        self.layer = layer
        self.start = start
        self.child = 0.0


class Tracer:
    """Records bench spans and per-request layer self times."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_seconds: dict[int, dict[str, float]] = \
            defaultdict(lambda: defaultdict(float))
        self.counters: dict[int, dict[str, float]] = \
            defaultdict(lambda: defaultdict(float))
        self.raw: list[tuple] = []   # (name, start, dur, thread, request)
        self._query_requests: dict[int, tuple] = {}
        self._epoch_offset = time.time() - time.perf_counter()

    # -- attribution ---------------------------------------------------------

    @property
    def current(self) -> int | None:
        return getattr(self._local, "request", None)

    @contextmanager
    def request(self, rid: int):
        """Attribute spans on this thread to request ``rid``."""
        previous = self.current
        self._local.request = rid
        try:
            yield
        finally:
            self._local.request = previous

    def bind_query(self, query, rid: int) -> None:
        """Map a per-request query object to its request id."""
        with self._lock:
            # Holding the query keeps its id() from being reused.
            self._query_requests[id(query)] = (query, rid)

    def _adopt(self, query) -> None:
        query_rid = self._query_requests.get(id(query))
        rid = query_rid[1] if query_rid is not None else None
        if rid is not None and rid != self.current:
            self._local.request = rid
            self.mark(rid, "exec_start", time.perf_counter())

    def mark(self, rid: int, key: str, value: float) -> None:
        """Record a timestamp (first one wins) for request ``rid``."""
        with self._lock:
            self.counters[rid].setdefault(key, value)

    def count(self, rid: int, key: str, amount: float) -> None:
        with self._lock:
            self.counters[rid][key] += amount

    # -- spans ---------------------------------------------------------------

    def add(self, rid: int, layer: str, start: float, dur: float,
            self_dur: float | None = None) -> None:
        """Record a pre-timed span (no nesting) for request ``rid``."""
        with self._lock:
            self.self_seconds[rid][layer] += dur if self_dur is None \
                else self_dur
            self.raw.append((layer, start, dur, threading.get_ident(), rid))

    @contextmanager
    def span(self, layer: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        frame = _Frame(layer, time.perf_counter())
        stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - frame.start
            if stack:
                stack[-1].child += dur
            rid = self.current
            if rid is not None:
                self.add(rid, layer, frame.start, dur, dur - frame.child)

    def wrap(self, layer: str, fn):
        def traced(*args, **kwargs):
            with self.span(layer):
                return fn(*args, **kwargs)
        return traced

    # -- output --------------------------------------------------------------

    def write_chrome(self, path: str, lanes: dict[int, tuple]) -> int:
        """Write every span (plus one root span per request) for Perfetto.

        ``lanes`` maps request id -> (name, start, end); overlapping
        requests get separate tracks.
        """
        spans = []
        ends: list[float] = []
        for rid, (name, start, end) in sorted(lanes.items(),
                                              key=lambda kv: kv[1][1]):
            lane = next((i for i, e in enumerate(ends) if e <= start),
                        len(ends))
            if lane == len(ends):
                ends.append(end)
            ends[lane] = end
            spans.append(Span(name=name, cat="request",
                              ts=start + self._epoch_offset,
                              dur=end - start, tid=1 + lane,
                              args={"request": rid}))
        for name, start, dur, tid, rid in self.raw:
            spans.append(Span(name=name, cat="layer",
                              ts=start + self._epoch_offset, dur=dur,
                              tid=tid & 0x7FFFFFFF,
                              args={"request": rid}))
        return write_chrome_trace(path, spans)


def traced_estimator(tracer: Tracer):
    """A CardinalityEstimator subclass that times and counts estimates."""

    class TracedEstimator(CardinalityEstimator):
        def estimate(self, query, order=None, num_samples=None):
            calls, work = self.calls, self.total_work
            with tracer.span("core.estimate_s"):
                result = super().estimate(query, order, num_samples)
            rid = tracer.current
            if rid is not None:
                tracer.count(rid, "core.estimate_calls", self.calls - calls)
                tracer.count(rid, "core.sample_work",
                             self.total_work - work)
            return result

    return TracedEstimator


@contextmanager
def instrument(tracer: Tracer):
    """Install the timing wrappers for the duration of the block."""
    ResultCache, PlanCache = cache_mod.ResultCache, cache_mod.PlanCache
    estimator = traced_estimator(tracer)
    patches = [
        (adj_mod, "optimal_hypertree", tracer.wrap(
            "ghd.hypertree_s", adj_mod.optimal_hypertree)),
        (service_mod, "optimal_hypertree", tracer.wrap(
            "ghd.hypertree_s", service_mod.optimal_hypertree)),
        # ADJ builds the optimizer's estimator; the cost model builds one
        # more per bag size and prefix cardinality it prices.
        (adj_mod, "CardinalityEstimator", estimator),
        (cost_model_mod, "CardinalityEstimator", estimator),
        (optimizer_mod.Optimizer, "run", tracer.wrap(
            "core.optimize_s", optimizer_mod.Optimizer.run)),
        (adj_mod.ADJ, "run", tracer.wrap(
            "engines.execute_s", adj_mod.ADJ.run)),
        (hcubej_mod.HCubeJ, "run", tracer.wrap(
            "engines.execute_s", hcubej_mod.HCubeJ.run)),
        (one_round_mod, "optimize_shares", tracer.wrap(
            "distributed.shares_s", one_round_mod.optimize_shares)),
        (one_round_mod, "hcube_route", tracer.wrap(
            "distributed.route_s", one_round_mod.hcube_route)),
        (adaptive_mod, "choose_kernel", tracer.wrap(
            "kernels.choose_s", adaptive_mod.choose_kernel)),
        (ResultCache, "get", tracer.wrap(
            "service.lookup_s", ResultCache.get)),
        (PlanCache, "get", tracer.wrap("service.lookup_s", PlanCache.get)),
    ]

    def keyed(fn):
        def traced(query, *args, **kwargs):
            tracer._adopt(query)
            with tracer.span("service.lookup_s"):
                return fn(query, *args, **kwargs)
        return traced

    patches += [(service_mod, "result_key", keyed(service_mod.result_key)),
                (service_mod, "plan_key", keyed(service_mod.plan_key))]
    saved = [(owner, name, owner.__dict__[name])
             for owner, name, _ in patches]
    for owner, name, value in patches:
        setattr(owner, name, value)
    try:
        yield tracer
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


def add_result_counters(tracer: Tracer, rid: int, result) -> None:
    """Fold the counters an EngineResult already carries into ``rid``.

    Telemetry phases were measured inside the engine's span, so they are
    moved out of ``engines.execute_s`` into their own layers.
    """
    layers = tracer.self_seconds[rid]
    telemetry = result.telemetry
    if telemetry is not None:
        for phase, seconds in telemetry.phase_seconds.items():
            layer = TELEMETRY_LAYERS.get(phase)
            if layer is not None:
                layers[layer] += seconds
                layers["engines.execute_s"] -= seconds
        tracer.count(rid, "runtime.shuffle_s",
                     telemetry.phase_seconds.get("shuffle", 0.0))
        tracer.count(rid, "runtime.overlap_s", telemetry.overlap_seconds)
        workers = list(telemetry.worker_seconds.values())
        if workers and sum(workers) > 0:
            tracer.count(rid, "runtime.worker_skew",
                         max(workers) * len(workers) / sum(workers))
    plane = result.data_plane or {}
    tracer.count(rid, "runtime.shipped_bytes", plane.get("shipped_bytes", 0))
    tracer.count(rid, "runtime.published_bytes",
                 plane.get("published_bytes", 0))
    tracer.count(rid, "net.fetched_bytes", plane.get("fetched_bytes", 0))
    tracer.count(rid, "engines.shuffled_tuples", result.shuffled_tuples)
    tracer.count(rid, "kernels.intersection_work",
                 result.extra.get("leapfrog_work", 0))
    tracer.count(rid, "core.plans_explored",
                 result.extra.get("explored_configurations", 0))
