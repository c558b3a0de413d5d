"""Tests for repro.net: the multi-machine data plane.

Covers the frame protocol, block-store lifecycle edge cases (double
free, missing GET, no listening port after stop), the tcp transport's
epoch rules, the transport/backend registries' ConfigError contracts,
host-spec parsing, the worker-agent handshake, the remote executor
(mixed local+remote scheduling, heartbeats, crash handling, socket
teardown), and the acceptance criterion: all six engines return serial
counts over >= 2 loopback agents with descriptor-only shipping.
"""

import pickle
import socket

import numpy as np
import pytest

from repro import JoinSession
from repro.errors import BlockNotFound, ConfigError, NetError
from repro.net import (
    BlockStoreClient,
    BlockStoreServer,
    RemoteExecutor,
    TcpTransport,
    WorkerAgent,
    parse_host_specs,
)
from repro.net.blockstore import clear_fetch_cache
from repro.net.protocol import (
    OP_DATA,
    OP_ERR,
    OP_OK,
    OP_PUT,
    OP_TASK,
    MAX_FRAME_BYTES,
    recv_frame,
    request,
    send_frame,
)
from repro.runtime import (
    available_transports,
    create_executor,
    create_transport,
    resolve_array_ref,
)
from repro.runtime.transport import REF_HEADER_BYTES


def port_listening(port: int, host: str = "127.0.0.1") -> bool:
    try:
        socket.create_connection((host, port), timeout=1.0).close()
        return True
    except OSError:
        return False


def double_task(x):
    """Top-level so remote agents can unpickle it by reference."""
    return 2 * x


def failing_task(x):
    raise RuntimeError(f"task {x} exploded")


def pid_task(_x):
    import os

    return os.getpid()


@pytest.fixture
def agents():
    """Two running loopback worker agents (2 slots each).

    ``inline`` mode keeps execution on the serving thread — these tests
    exercise the protocol/scheduling/lifecycle paths, and skipping the
    per-test process-pool spawn keeps the suite fast.  The default
    (process-pool) execution path is covered by
    ``test_agent_runs_tasks_in_worker_processes`` and the subprocess
    walkthrough below.
    """
    pair = [WorkerAgent(slots=2, mode="inline").start(),
            WorkerAgent(slots=2, mode="inline").start()]
    yield pair
    for agent in pair:
        agent.stop()


def hosts_of(agents) -> list:
    return [f"127.0.0.1:{a.port}" for a in agents]


class TestFrames:
    def test_round_trip_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            payload = bytes(range(256)) * 3
            send_frame(left, OP_PUT, {"block": "b", "shape": [3, 2]},
                       payload)
            op, meta, got = recv_frame(right)
            assert (op, meta["block"], meta["shape"], got) == \
                (OP_PUT, "b", [3, 2], payload)
        finally:
            left.close()
            right.close()

    def test_empty_meta_and_payload(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, OP_OK)
            assert recv_frame(right) == (OP_OK, {}, b"")
        finally:
            left.close()
            right.close()

    def test_clean_close_raises_eof(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(EOFError):
                recv_frame(right)
        finally:
            right.close()

    def test_truncated_frame_raises_net_error(self):
        left, right = socket.socketpair()
        try:
            left.sendall((1000).to_bytes(4, "big") + b"partial")
            left.close()
            with pytest.raises(NetError, match="truncated"):
                recv_frame(right)
        finally:
            right.close()

    def test_oversized_length_prefix_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(NetError, match="invalid frame length"):
                recv_frame(right)
        finally:
            left.close()
            right.close()


class TestBlockStore:
    def test_put_get_list_free_round_trip(self):
        arr = np.arange(24, dtype=np.int64).reshape(12, 2)
        with BlockStoreServer() as srv:
            with BlockStoreClient(srv.host, srv.port) as client:
                client.put("b1", arr)
                assert np.array_equal(client.get("b1"), arr)
                assert client.list() == {"b1": arr.nbytes}
                client.free("b1")
                assert client.list() == {}

    def test_get_missing_block_refused(self):
        with BlockStoreServer() as srv:
            with BlockStoreClient(srv.host, srv.port) as client:
                with pytest.raises(BlockNotFound):
                    client.get("never-put")

    def test_double_free_refused(self):
        with BlockStoreServer() as srv:
            with BlockStoreClient(srv.host, srv.port) as client:
                client.put("b1", np.ones((2, 2), dtype=np.int64))
                client.free("b1")
                with pytest.raises(BlockNotFound):
                    client.free("b1")

    def test_duplicate_put_refused(self):
        """Block ids are single-assignment within an epoch."""
        with BlockStoreServer() as srv:
            with BlockStoreClient(srv.host, srv.port) as client:
                client.put("b1", np.ones((2, 2), dtype=np.int64))
                with pytest.raises(NetError, match="already"):
                    client.put("b1", np.zeros((2, 2), dtype=np.int64))

    def test_stat_counts_served_bytes(self):
        arr = np.arange(10, dtype=np.int64).reshape(5, 2)
        with BlockStoreServer() as srv:
            with BlockStoreClient(srv.host, srv.port) as client:
                client.put("b", arr)
                client.get("b")
                client.get("b")
                stat = client.stat()
        assert stat["puts"] == 1 and stat["gets"] == 2
        assert stat["bytes_in"] == arr.nbytes
        assert stat["bytes_out"] == 2 * arr.nbytes

    def test_concurrent_clients_see_one_store(self):
        arr = np.arange(6, dtype=np.int64).reshape(3, 2)
        with BlockStoreServer() as srv:
            c1 = BlockStoreClient(srv.host, srv.port)
            c2 = BlockStoreClient(srv.host, srv.port)
            try:
                c1.put("from-c1", arr)
                assert np.array_equal(c2.get("from-c1"), arr)
            finally:
                c1.close()
                c2.close()

    def test_stop_leaves_no_listening_port(self):
        srv = BlockStoreServer().start()
        port = srv.port
        assert port_listening(port)
        srv.stop()
        assert not port_listening(port)
        srv.stop()   # idempotent


class TestTcpTransport:
    @pytest.mark.parametrize("shape", [(7, 2), (5, 1), (0, 2), (1, 3)])
    def test_whole_array_bit_for_bit(self, shape):
        rng = np.random.default_rng(0)
        arr = rng.integers(-2**40, 2**40, size=shape).astype(np.int64)
        with create_transport("tcp") as t:
            out = resolve_array_ref(t.make_ref(t.publish("a", arr)))
            assert out.dtype == arr.dtype
            assert np.array_equal(out, arr)

    def test_row_subsets(self):
        arr = np.arange(24, dtype=np.int64).reshape(12, 2)
        for rows in ([], [0], [11, 0, 5], list(range(12))):
            rows = np.asarray(rows, dtype=np.int64)
            with create_transport("tcp") as t:
                key = t.publish("a", arr)
                out = resolve_array_ref(t.make_ref(key, rows))
                assert np.array_equal(out, arr[rows])

    def test_refs_are_descriptor_only(self):
        """A tcp ref ships header+rows, never the partition matrix."""
        arr = np.arange(400, dtype=np.int64).reshape(200, 2)
        t = TcpTransport()
        try:
            ref = t.make_ref(t.publish("a", arr), np.arange(50))
            assert ref.kind == "tcp"
            assert ref.host and ref.port
            assert ref.payload_bytes == REF_HEADER_BYTES + 50 * 8
            assert t.stats.published_bytes == arr.nbytes
            # The same selection through pickle ships the whole slice.
            assert ref.payload_bytes < REF_HEADER_BYTES + 50 * 2 * 8
        finally:
            t.teardown()

    def test_publish_is_idempotent_per_key(self):
        arr = np.arange(8, dtype=np.int64).reshape(4, 2)
        t = TcpTransport()
        try:
            t.publish("a", arr)
            t.publish("a", arr)
            assert t.stats.published_blocks == 1
        finally:
            t.teardown()

    def test_resolved_array_survives_teardown(self):
        arr = np.arange(10, dtype=np.int64).reshape(5, 2)
        t = TcpTransport()
        ref = t.make_ref(t.publish("a", arr), np.array([3, 1]))
        out = resolve_array_ref(ref)
        t.teardown()
        assert np.array_equal(out, arr[[3, 1]])
        assert out.flags.writeable   # a private copy, not the cache

    def test_teardown_frees_blocks_and_closes_port(self):
        arr = np.arange(20, dtype=np.int64).reshape(10, 2)
        t = TcpTransport()
        resolve_array_ref(t.make_ref(t.publish("a", arr)))
        host, port = t.store_address
        assert port_listening(port, host)
        t.teardown()
        assert t.store_address is None
        assert not port_listening(port, host)
        epoch = t.last_epoch
        assert epoch.freed_blocks == 1
        assert epoch.fetched_blocks == 1
        assert epoch.fetched_bytes == arr.nbytes

    def test_teardown_idempotent_and_restartable(self):
        arr = np.arange(8, dtype=np.int64).reshape(4, 2)
        t = TcpTransport()
        t.publish("a", arr)
        t.teardown()
        t.teardown()
        out = resolve_array_ref(t.make_ref(t.publish("a", arr)))
        assert np.array_equal(out, arr)
        t.teardown()

    def test_fetch_cache_one_get_per_block(self):
        clear_fetch_cache()
        arr = np.arange(40, dtype=np.int64).reshape(20, 2)
        t = TcpTransport()
        try:
            key = t.publish("a", arr)
            for rows in ([1, 2], [3], None):
                rows = None if rows is None else np.asarray(rows)
                resolve_array_ref(t.make_ref(key, rows))
        finally:
            t.teardown()
        assert t.last_epoch.fetched_blocks == 1   # cache absorbed 2 GETs

    def test_external_store_not_stopped_by_teardown(self):
        arr = np.arange(8, dtype=np.int64).reshape(4, 2)
        with BlockStoreServer() as srv:
            t = TcpTransport(store=(srv.host, srv.port))
            resolve_array_ref(t.make_ref(t.publish("a", arr)))
            t.teardown()
            assert srv.blocks == ()          # our blocks were freed...
            assert port_listening(srv.port)  # ...the shared store lives


class TestTransportRegistry:
    def test_tcp_is_registered(self):
        assert "tcp" in available_transports()
        t = create_transport("tcp")
        assert t.name == "tcp"
        t.teardown()

    def test_unknown_transport_names_registered_ones(self):
        with pytest.raises(ConfigError) as exc:
            create_transport("carrier-pigeon")
        for name in ("pickle", "shm", "tcp"):
            assert name in str(exc.value)

    def test_bad_env_value_raises_config_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "quantum")
        with pytest.raises(ConfigError) as exc:
            create_transport()
        for name in ("pickle", "shm", "tcp"):
            assert name in str(exc.value)

    def test_env_selects_tcp(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "tcp")
        t = create_transport()
        assert t.name == "tcp"
        t.teardown()


class TestHostSpecs:
    def test_parse_remote_and_local(self):
        specs = parse_host_specs("10.0.0.1:7070, local:3 ,local")
        assert [s.kind for s in specs] == ["tcp", "local", "local"]
        assert specs[0].host == "10.0.0.1" and specs[0].port == 7070
        assert specs[1].slots == 3 and specs[2].slots == 1

    @pytest.mark.parametrize("bad", ["", "hostonly", "h:notaport",
                                     "h:0", "local:0", "local:x"])
    def test_bad_specs_raise_config_error(self, bad):
        with pytest.raises(ConfigError):
            parse_host_specs(bad if bad else [])

    def test_none_hosts_raise_with_hint(self):
        with pytest.raises(ConfigError, match="REPRO_HOSTS"):
            parse_host_specs(None)

    def test_remote_backend_without_hosts_is_config_error(self):
        from repro.api import RunConfig

        with pytest.raises(ConfigError, match="hosts"):
            RunConfig(backend="remote", hosts=None)

    def test_env_hosts_apply(self, monkeypatch):
        from repro.api import RunConfig

        monkeypatch.setenv("REPRO_HOSTS", "127.0.0.1:7070,local:2")
        cfg = RunConfig(backend="remote")
        assert cfg.hosts == ("127.0.0.1:7070", "local:2")

    def test_unknown_backend_lists_remote(self):
        from repro.runtime import create_executor

        with pytest.raises(ConfigError) as exc:
            create_executor("quantum")
        assert "remote" in str(exc.value)


class TestWorkerAgent:
    def test_handshake_advertises_slots_and_pid(self):
        import os

        with WorkerAgent(slots=3, mode="inline") as agent:
            sock = socket.create_connection((agent.host, agent.port))
            try:
                from repro.net.protocol import OP_HELLO

                _op, meta, _ = request(sock, OP_HELLO)
                assert meta["service"] == "worker-agent"
                assert meta["slots"] == 3
                assert meta["pid"] == os.getpid()
            finally:
                sock.close()

    def test_task_frames_run_and_reply(self):
        with WorkerAgent(mode="inline") as agent:
            sock = socket.create_connection((agent.host, agent.port))
            try:
                payload = pickle.dumps((double_task, 21))
                op, _meta, reply = request(sock, OP_TASK,
                                           payload=payload)
                assert op == OP_DATA
                assert pickle.loads(reply) == 42
            finally:
                sock.close()
        assert agent.tasks_run == 1

    def test_agent_runs_tasks_in_worker_processes(self):
        """Default mode executes on a process pool, not the GIL-bound
        serving thread — and the pool actually parallelizes per slot."""
        import os

        with WorkerAgent(slots=2) as agent:
            ex = RemoteExecutor(hosts=[f"127.0.0.1:{agent.port}"],
                                transport="pickle")
            try:
                pids = list(ex.submit_tasks(pid_task, [1, 2, 3, 4]))
            finally:
                ex.close()
        assert all(pid != os.getpid() for pid in pids)

    def test_failing_task_answers_err_and_agent_survives(self):
        with WorkerAgent(mode="inline") as agent:
            sock = socket.create_connection((agent.host, agent.port))
            try:
                send_frame(sock, OP_TASK,
                           payload=pickle.dumps((failing_task, 7)))
                op, meta, _ = recv_frame(sock)
                assert op == OP_ERR
                assert meta["error"] == "RuntimeError"
                assert "exploded" in meta["message"]
                # Same connection keeps working after the failure.
                op, _meta, reply = request(
                    sock, OP_TASK, payload=pickle.dumps((double_task, 1)))
                assert pickle.loads(reply) == 2
            finally:
                sock.close()
        assert agent.tasks_failed == 1 and agent.tasks_run == 1


class TestRemoteExecutor:
    def test_map_preserves_order_across_hosts(self, agents):
        ex = create_executor("remote", hosts=hosts_of(agents),
                             transport="pickle")
        try:
            out = list(ex.submit_tasks(double_task, list(range(20))))
            assert out == [2 * i for i in range(20)]
            assert sum(a.tasks_run for a in agents) == 20
            # Both hosts actually participated.
            assert all(a.tasks_run > 0 for a in agents)
        finally:
            ex.close()

    def test_mixed_local_and_remote_slots(self, agents):
        ex = RemoteExecutor(hosts=[*hosts_of(agents), "local:2"],
                            transport="pickle")
        try:
            out = list(ex.submit_tasks(double_task, list(range(30))))
            assert out == [2 * i for i in range(30)]
            assert sum(a.tasks_run for a in agents) < 30  # local ran some
        finally:
            ex.close()

    def test_remote_task_failure_is_worker_crashed(self, agents):
        from repro.errors import WorkerCrashed

        ex = RemoteExecutor(hosts=hosts_of(agents), transport="pickle")
        try:
            with pytest.raises(WorkerCrashed, match="exploded"):
                list(ex.submit_tasks(failing_task, [1, 2, 3]))
        finally:
            ex.close()

    def test_unreachable_host_is_config_error(self):
        # Bind-then-close to get a port with nothing listening.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        ex = RemoteExecutor(hosts=[f"127.0.0.1:{port}"],
                            transport="pickle", connect_timeout=1.0)
        with pytest.raises(ConfigError, match="serve"):
            list(ex.submit_tasks(double_task, [1]))
        ex.close()

    def test_heartbeat_marks_dead_host(self, agents):
        import time

        ex = RemoteExecutor(hosts=hosts_of(agents), transport="pickle",
                            heartbeat_interval=0.1)
        try:
            ex.setup()
            assert all(ex.host_status().values())
            agents[1].stop()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                status = ex.host_status()
                if not status[hosts_of(agents)[1]]:
                    break
                time.sleep(0.05)
            status = ex.host_status()
            assert status[hosts_of(agents)[0]]
            assert not status[hosts_of(agents)[1]]
        finally:
            ex.close()

    def test_dead_host_queued_slots_fail_with_host_label(self, agents):
        """Idle slots of a flagged host surface as WorkerCrashed (with
        the host label), never as an anonymous attribute error."""
        from repro.errors import WorkerCrashed

        label = hosts_of(agents)[0]
        ex = RemoteExecutor(hosts=[label], transport="pickle",
                            heartbeat_interval=0)
        try:
            ex.setup()
            ex._mark_dead(ex.host_specs[0])
            with pytest.raises(WorkerCrashed, match=label):
                list(ex.submit_tasks(double_task, [1, 2, 3]))
        finally:
            ex.close()

    def test_close_resets_dead_flags_for_reopen(self, agents):
        """A host flagged in one run gets a fresh start after close()."""
        ex = RemoteExecutor(hosts=hosts_of(agents), transport="pickle",
                            heartbeat_interval=0)
        try:
            ex.setup()
            ex._mark_dead(ex.host_specs[0])
            assert not ex.host_status()[hosts_of(agents)[0]]
            ex.close()
            assert list(ex.submit_tasks(double_task, [1, 2])) == [2, 4]  # reopen
            assert all(ex.host_status().values())
        finally:
            ex.close()

    def test_agent_death_mid_session_crashes_cleanly(self, agents):
        """Executor close() releases sockets/blocks after a dead worker."""
        session = JoinSession(workers=2, backend="remote",
                              transport="tcp", hosts=hosts_of(agents),
                              scale=1e-5, samples=10)
        job = session.query("wb", "Q1")
        ex = session.executor()
        ex.setup()                      # connections established...
        for agent in agents:
            agent.stop()                # ...then every worker host dies
        result = job.run("hcubej")
        assert not result.ok and result.failure == "crash"
        assert "died" in result.extra["crash_reason"]
        # The failed run's epoch already tore its block store down.
        assert ex.transport.store_address is None
        session.close()   # idempotent full teardown with dead workers


class TestSessionAcceptance:
    """ISSUE 4 acceptance: six engines, >= 2 agents, descriptor shipping."""

    def test_all_engines_match_serial_counts(self, agents, monkeypatch):
        # The CI matrix exports REPRO_TRANSPORT; clear it so this test
        # exercises the documented remote-backend default (tcp).
        monkeypatch.delenv("REPRO_TRANSPORT", raising=False)
        with JoinSession(workers=4, scale=1e-5, samples=10) as serial:
            base = serial.query("wb", "Q1").compare()
        assert base.agreed

        with JoinSession(workers=4, backend="remote",
                         hosts=hosts_of(agents), scale=1e-5,
                         samples=10) as session:
            assert session.transport_label == "tcp"
            report = session.query("wb", "Q1").compare()
        assert report.agreed, report.counts
        assert report.count == base.count
        assert {r.engine for r in report.results} == \
            {r.engine for r in base.results}
        # Both agents actually executed tasks.
        assert all(agent.tasks_run > 0 for agent in agents)

    def test_data_plane_shows_descriptor_only_shipping(self, agents):
        with JoinSession(workers=4, backend="remote", transport="tcp",
                         hosts=hosts_of(agents), scale=1e-5,
                         samples=10) as session:
            result = session.query("wb", "Q1").run("hcubej")
        assert result.ok
        plane = result.data_plane
        assert plane["transport"] == "tcp"
        # Partition bytes are accounted to the block store (fetched),
        # not to the coordinator's task payloads (shipped).
        assert plane["published_bytes"] > 0
        assert plane["fetched_bytes"] >= plane["published_bytes"]
        assert plane["shipped_bytes"] < plane["fetched_bytes"]
        assert plane["freed_blocks"] == plane["published_blocks"]

        # The same run over the pickle plane ships strictly more.
        with JoinSession(workers=4, backend="remote",
                         hosts=hosts_of(agents), transport="pickle",
                         scale=1e-5, samples=10) as session:
            inline = session.query("wb", "Q1").run("hcubej")
        assert inline.ok and inline.count == result.count
        assert plane["shipped_bytes"] < \
            inline.data_plane["shipped_bytes"]

    def test_session_exit_leaves_no_listening_ports(self, agents):
        with JoinSession(workers=2, backend="remote", transport="tcp",
                         hosts=hosts_of(agents), scale=1e-5,
                         samples=10) as session:
            ex = session.executor()
            ex.setup()
            ex.transport.setup()
            host, port = ex.transport.store_address
            assert port_listening(port, host)
        assert not port_listening(port, host)

    def test_remote_backend_agrees_under_shm_and_pickle(self, agents):
        """The remote backend runs every registered transport on
        loopback (shm only works because the agents share the host)."""
        counts = set()
        for transport in available_transports():
            with JoinSession(workers=2, backend="remote",
                             hosts=hosts_of(agents), transport=transport,
                             scale=1e-5, samples=10) as session:
                result = session.query("wb", "Q1").run("adj")
            assert result.ok, (transport, result.failure)
            counts.add(result.count)
        assert len(counts) == 1


class TestServeCommand:
    def test_serve_starts_and_exits(self, capsys):
        from repro.cli import main

        assert main(["serve", "--port", "0", "--slots", "2",
                     "--max-seconds", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "listening on 127.0.0.1:" in out
        assert "slots=2" in out
        assert "stopped" in out

    def test_serve_subprocess_two_terminal_walkthrough(self):
        """The README story: two `repro serve` processes, one driver."""
        import re
        import subprocess
        import sys

        procs = []
        try:
            hosts = []
            for _ in range(2):
                proc = subprocess.Popen(
                    [sys.executable, "-m", "repro", "serve", "--port",
                     "0", "--slots", "1"],
                    stdout=subprocess.PIPE, text=True, bufsize=1)
                procs.append(proc)
                line = proc.stdout.readline()
                match = re.search(r"listening on ([\d.]+):(\d+)", line)
                assert match, f"no address line in {line!r}"
                hosts.append(f"{match.group(1)}:{match.group(2)}")
            with JoinSession(workers=2, backend="remote",
                             transport="tcp", hosts=hosts,
                             scale=1e-5, samples=10) as session:
                result = session.query("wb", "Q1").run("adj")
            assert result.ok
            assert result.data_plane["transport"] == "tcp"
        finally:
            for proc in procs:
                proc.terminate()
            for proc in procs:
                proc.wait(timeout=10)
