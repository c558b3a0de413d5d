"""Pipelined epochs: streaming submit_tasks, the streamed scheduler,
and the failure-path regressions around them.

Streaming (tasks submitted as they are minted, parallel routing,
overlapped publish) is the only scheduler; its counters are pinned by
tests/test_golden_counters.py.  Failure paths must leave the pool
reusable after recoverable errors and must never zero the epoch's
data-plane counters.
"""

import threading
import time

import numpy as np
import pytest

from repro.data import Database, Relation
from repro.distributed import Cluster, HypercubeGrid
from repro.distributed.hcube import hcube_route
from repro.engines import HCubeJ, run_engine_safely
from repro.errors import BudgetExceeded, ConfigError, WorkerCrashed
from repro.query import paper_query
from repro.runtime import (
    ExecutorView,
    SerialExecutor,
    ThreadExecutor,
    create_executor,
    iter_routed_tasks,
    merge_task_results,
    run_streamed_tasks,
)
from repro.runtime.transport import SharedMemoryTransport
from repro.wcoj import leapfrog_join


def graph_case(query_name, seed=0, n=150, dom=25):
    query = paper_query(query_name)
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, dom, size=(n, 2))
    db = Database(Relation(a.relation, ("x", "y"), edges)
                  for a in query.atoms)
    return query, db


# -- top-level task functions (picklable) -------------------------------------

def _double(x):
    return x * 2


def _budget_trip(x):
    raise BudgetExceeded(100, 10)


def _boom(x):
    raise RuntimeError(f"boom on {x}")


# -- streaming executor API ---------------------------------------------------

class TestSubmitTasks:
    @pytest.mark.parametrize("backend",
                             ("serial", "threads", "processes"))
    def test_results_keep_submission_order(self, backend):
        with create_executor(backend, 2) as ex:
            assert list(ex.submit_tasks(_double, iter(range(7)))) \
                == [0, 2, 4, 6, 8, 10, 12]

    def test_lazy_source_is_consumed_lazily(self):
        """Pool backends submit tasks as the generator produces them —
        execution of early tasks starts before the stream ends."""
        started = threading.Event()

        def traced(x):
            started.set()
            return x

        minted = []

        def stream():
            yield 0
            # The first task should already be on the pool by the time
            # the second is minted (no barrier on the full list).
            started.wait(timeout=5.0)
            minted.append(started.is_set())
            yield 1

        with ThreadExecutor(2) as ex:
            assert list(ex.submit_tasks(traced, stream())) == [0, 1]
        assert minted == [True]

    @pytest.mark.parametrize("backend", ("serial", "threads"))
    def test_empty_stream(self, backend):
        with create_executor(backend, 2) as ex:
            assert list(ex.submit_tasks(_double, iter(()))) == []

    @pytest.mark.parametrize("backend", ("serial", "threads"))
    def test_crash_becomes_worker_crashed(self, backend):
        with create_executor(backend, 2) as ex:
            with pytest.raises(WorkerCrashed, match="boom"):
                list(ex.submit_tasks(_boom, iter([7])))

    def test_reproerror_passes_through(self):
        with ThreadExecutor(2) as ex:
            with pytest.raises(BudgetExceeded):
                list(ex.submit_tasks(_budget_trip, iter([1])))

    def test_failure_stops_consuming_the_stream(self):
        """A mid-stream failure cancels pending work: the source is not
        drained to the end once a submitted task has failed."""
        minted = []

        def slow_stream():
            for i in range(20):
                minted.append(i)
                yield "boom" if i == 0 else i
                time.sleep(0.05)

        def fail_fast(x):
            if x == "boom":
                raise RuntimeError("boom fast")
            return x

        with ThreadExecutor(1) as ex:
            with pytest.raises(WorkerCrashed, match="boom fast"):
                list(ex.submit_tasks(fail_fast, slow_stream()))
        assert len(minted) < 20

    def test_source_failure_cancels_submitted_tasks(self):
        """The task *source* raising propagates unchanged."""
        def broken_stream():
            yield 1
            raise ValueError("mint failed")

        with ThreadExecutor(2) as ex:
            with pytest.raises(ValueError, match="mint failed"):
                list(ex.submit_tasks(_double, broken_stream()))


class TestFailurePathRegressions:
    """A recoverable task error must not close a healthy pool."""

    def test_recoverable_failure_keeps_pool_and_transport(self):
        transport = SharedMemoryTransport()
        with ThreadExecutor(2, transport=transport) as ex:
            transport.publish("k", np.arange(6, dtype=np.int64))
            with pytest.raises(BudgetExceeded):
                list(ex.submit_tasks(_budget_trip, [1, 2]))
            # The pool survived a recoverable error...
            assert ex._pool is not None
            assert list(ex.submit_tasks(_double, [3])) == [6]
            # ...and the transport's epoch was NOT torn down mid-engine:
            # the current stats still hold the published block.
            assert transport.stats.published_blocks == 1
            assert transport.active_segments != ()

    def test_crash_closes_pool_but_never_transport(self):
        transport = SharedMemoryTransport()
        with ThreadExecutor(2, transport=transport) as ex:
            transport.publish("k", np.arange(6, dtype=np.int64))
            with pytest.raises(WorkerCrashed):
                list(ex.submit_tasks(_boom, [1]))
            assert ex._pool is None          # genuine crash: pool gone
            assert transport.stats.published_blocks == 1   # epoch alive
            # A fresh pool is created transparently on next use.
            assert list(ex.submit_tasks(_double, [4])) == [8]

    def test_failure_before_transport_use_reports_no_stale_plane(self):
        """A failure that never touched the transport must not inherit
        the previous run's frozen epoch counters."""
        query, db = graph_case("Q1", seed=7)
        with create_executor("threads", 2, transport="shm") as ex:
            ok = run_engine_safely(HCubeJ(), query, db,
                                   Cluster(num_workers=2), executor=ex)
            assert ok.ok and ok.data_plane["published_bytes"] > 0
            # OOM trips inside hcube_route, before any publish happens.
            oom = run_engine_safely(
                HCubeJ(), query, db,
                Cluster(num_workers=2, memory_tuples_per_worker=1.0),
                executor=ex)
            assert oom.failure == "oom"
            assert oom.data_plane is None

    def test_serial_streaming_claims_no_overlap(self):
        """Serial execution between mints is not concurrency: the
        serial backend must report overlap_seconds == 0."""
        query, db = graph_case("Q1", seed=7)
        with create_executor("serial", 2, transport="shm") as ex:
            result = HCubeJ().run(query, db, Cluster(num_workers=2),
                                  executor=ex)
        assert result.ok
        assert result.telemetry.overlap_seconds == 0.0

    @pytest.mark.parametrize("shared", (False, True))
    def test_budget_tripped_run_reports_real_data_plane(self, shared):
        """Regression: a budget-failed run must report what it actually
        published, not zeros — on the executor itself and on a per-query
        view of a shared one."""
        query, db = graph_case("Q1", seed=7, n=300, dom=40)
        cluster = Cluster(num_workers=2)
        with create_executor("threads", 2, transport="shm") as ex:
            run_on = ExecutorView(ex, transport="shm", epoch="e0001") \
                if shared else ex
            result = run_engine_safely(HCubeJ(work_budget=3), query, db,
                                       cluster, executor=run_on)
            assert result.failure == "budget"
            plane = result.data_plane
            assert plane is not None and plane["transport"] == "shm"
            assert plane["published_bytes"] == sum(
                db[a.relation].nbytes for a in query.atoms)
            assert plane["freed_blocks"] == plane["published_blocks"] > 0
            # The executor survives for the next query of the session.
            assert list(run_on.submit_tasks(_double, [5])) == [10]


# -- streamed scheduler -------------------------------------------------------

def _routing(query_name="Q1", workers=3, seed=1):
    query, db = graph_case(query_name, seed=seed)
    shares = {a: 1 for a in query.attributes}
    shares[query.attributes[0]] = workers
    grid = HypercubeGrid(query, shares, workers)
    return query, db, hcube_route(query, db, grid)


class TestStreamedScheduler:
    def test_streamed_results_match_barrier_results(self):
        query, db, routing = _routing("Q9")
        truth = leapfrog_join(query, db).count
        with SerialExecutor(3) as ex:
            streamed = run_streamed_tasks(
                ex, iter_routed_tasks(routing, db, query.attributes,
                                      transport=ex.transport))
        merged = merge_task_results(streamed, query.num_attributes)
        assert merged.count == truth

    def test_parallel_routing_identical_to_serial(self):
        query, db = graph_case("Q9", seed=3)
        shares = {a: 1 for a in query.attributes}
        shares[query.attributes[0]] = 2
        shares[query.attributes[1]] = 2
        grid = HypercubeGrid(query, shares, 4)
        serial = hcube_route(query, db, grid, routing_threads=None)
        threaded = hcube_route(query, db, grid, routing_threads=4)
        assert serial.stats == threaded.stats
        assert serial.worker_loads == threaded.worker_loads
        for a_serial, a_threaded in zip(serial.atom_rows,
                                        threaded.atom_rows):
            for r_serial, r_threaded in zip(a_serial, a_threaded):
                np.testing.assert_array_equal(r_serial, r_threaded)

    def test_itemsize_respected_in_bytes_accounting(self):
        """Satellite: bytes_copied uses the relation's real dtype width,
        not a hardcoded 8 bytes/element."""
        query = paper_query("Q1")
        rng = np.random.default_rng(5)
        edges64 = rng.integers(0, 30, size=(200, 2))

        class StubRel:
            def __init__(self, name, data):
                self.name, self.data, self.arity = name, data, 2

        class StubDB:
            def __init__(self, dtype):
                self.dtype = dtype

            def __getitem__(self, name):
                return StubRel(name, edges64.astype(self.dtype))

        grid = HypercubeGrid(query, {a: 2 for a in query.attributes}, 4)
        wide = hcube_route(query, StubDB(np.int64), grid)
        narrow = hcube_route(query, StubDB(np.int32), grid)
        assert wide.stats.tuple_copies == narrow.stats.tuple_copies
        assert wide.stats.bytes_copied == 2 * narrow.stats.bytes_copied
        assert narrow.stats.bytes_copied \
            == narrow.stats.tuple_copies * 2 * 4


class TestCrashMidStream:
    def test_segments_reclaimed_after_midstream_crash(self, monkeypatch):
        """A crash while tasks are still streaming cancels pending work
        and the engine's teardown still reclaims every shm segment."""
        import repro.runtime.scheduler as scheduler_mod

        def crashing_task(task):
            raise RuntimeError("worker died mid-stream")

        monkeypatch.setattr(scheduler_mod, "execute_worker_task",
                            crashing_task)
        query, db = graph_case("Q1", seed=8)
        transport = SharedMemoryTransport()
        with ThreadExecutor(2, transport=transport) as ex:
            result = run_engine_safely(HCubeJ(), query, db,
                                       Cluster(num_workers=2),
                                       executor=ex)
        assert result.failure == "crash"
        assert transport.active_segments == ()
        plane = result.data_plane
        assert plane is not None and plane["published_bytes"] > 0
        assert plane["freed_blocks"] == plane["published_blocks"] > 0

    def test_tcp_store_stopped_after_midstream_crash(self, monkeypatch):
        import repro.runtime.scheduler as scheduler_mod
        from repro.net.transport import TcpTransport

        def crashing_task(task):
            raise RuntimeError("worker died mid-stream")

        monkeypatch.setattr(scheduler_mod, "execute_worker_task",
                            crashing_task)
        query, db = graph_case("Q1", seed=9)
        transport = TcpTransport()
        with ThreadExecutor(2, transport=transport) as ex:
            result = run_engine_safely(HCubeJ(), query, db,
                                       Cluster(num_workers=2),
                                       executor=ex)
        assert result.failure == "crash"
        # The owned block store is gone — no listening port left behind.
        assert transport.store_address is None
        plane = result.data_plane
        assert plane is not None
        assert plane["freed_blocks"] == plane["published_blocks"] > 0


# -- config / CLI surface -----------------------------------------------------

class TestPipelineConfig:
    def test_env_default(self, monkeypatch):
        """The retired REPRO_PIPELINE variable no longer selects a mode."""
        from repro.api import RunConfig

        monkeypatch.setenv("REPRO_PIPELINE", "off")
        assert RunConfig().pipeline is True

    def test_run_config_field(self):
        from repro.api import RunConfig

        assert RunConfig().pipeline is True
        assert RunConfig(pipeline=True).pipeline is True
        with pytest.raises(ConfigError, match="pipeline"):
            RunConfig(pipeline=False)

    def test_bad_max_workers_rejected(self):
        """Satellite: silent coercion of max_workers<1 is gone."""
        for bad in (0, -3):
            with pytest.raises(ConfigError, match="max_workers"):
                SerialExecutor(bad)
            with pytest.raises(ConfigError, match="max_workers"):
                ThreadExecutor(bad)
        assert SerialExecutor(None).max_workers == 1

    def test_cli_pipeline_flag(self, capsys):
        """``--pipeline`` is gone: argparse rejects it instead of
        silently ignoring an A/B request."""
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "wb", "Q1", "--engine", "hcubej",
                  "--scale", "1e-5", "--backend", "threads",
                  "--pipeline", "off"])
        assert "--pipeline" in capsys.readouterr().err
