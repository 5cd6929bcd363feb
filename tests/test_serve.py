"""Tests for the query server and its wire protocol (repro.serve)."""

import json
import math
import os
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.core.artifact import save_artifact
from repro.core.errors import GraphError
from repro.ftbfs import FTQueryOracle, build_cons2ftbfs
from repro.generators import erdos_renyi
from repro.serve import (
    MAX_FRAME,
    QueryServer,
    ServeClient,
    ServerStats,
    format_stats,
    recv_msg,
    send_msg,
)

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def sample_structure(n=24, p=0.18, seed=6):
    return build_cons2ftbfs(erdos_renyi(n, p, seed=seed), 0)


def sample_faults(structure, k=2):
    """k structure edges not incident to the source (keeps 0 connected)."""
    return [e for e in sorted(structure.edges) if 0 not in e][:k]


@pytest.fixture()
def running_server():
    """A started server over a small structure; shut down afterwards."""
    structure = sample_structure()
    server = QueryServer(FTQueryOracle(structure))
    address = server.start()
    yield structure, server, address
    server.shutdown()


class TestProtocolFraming:
    def test_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        with a, b:
            send_msg(a, {"op": "ping", "x": [1, 2]})
            assert recv_msg(b) == {"op": "ping", "x": [1, 2]}

    def test_closed_peer_yields_none(self):
        a, b = socket.socketpair()
        a.close()
        with b:
            assert recv_msg(b) is None

    def test_oversize_frame_refused_at_both_ends(self):
        a, b = socket.socketpair()
        with a, b:
            with pytest.raises(GraphError):
                send_msg(a, {"blob": "x" * (MAX_FRAME + 1)})
            a.sendall(struct.pack("!I", MAX_FRAME + 1))
            with pytest.raises(GraphError):
                recv_msg(b)


class TestServerStats:
    def test_exact_counts_and_percentiles(self):
        stats = ServerStats()
        for ms in (1, 2, 3, 4, 100):
            stats.record("point", ms / 1000.0)
        stats.record("point", 0.5, error=True)
        snap = stats.snapshot()
        ep = snap["endpoints"]["point"]
        assert ep["count"] == 6
        assert ep["errors"] == 1
        assert snap["requests"] == 6
        assert snap["errors"] == 1
        assert ep["p50_ms"] == pytest.approx(3.0)
        assert ep["p99_ms"] == pytest.approx(500.0)

    def test_sample_cap_evicts_oldest(self):
        stats = ServerStats()
        for i in range(ServerStats.MAX_SAMPLES + 100):
            stats.record("point", float(i))
        ep = stats.snapshot()["endpoints"]["point"]
        assert ep["count"] == ServerStats.MAX_SAMPLES + 100
        # Oldest 100 samples evicted: the minimum retained is 100.0.
        assert ep["p50_ms"] >= 100.0 * 1000.0

    def test_percentiles_cover_the_last_window(self):
        """Past the cap, p50/p99 are the nearest-rank percentiles of
        exactly the last MAX_SAMPLES samples, however many came before."""
        import random

        cap = ServerStats.MAX_SAMPLES
        rng = random.Random(7)
        samples = [rng.expovariate(1000.0) for _ in range(3 * cap + 17)]
        stats = ServerStats()
        for i, seconds in enumerate(samples):
            stats.record("point", seconds, error=(i % 5 == 0))
        ep = stats.snapshot()["endpoints"]["point"]
        assert ep["count"] == len(samples)
        assert ep["errors"] == len(range(0, len(samples), 5))
        window = sorted(samples[-cap:])

        def nearest_rank(q):  # rank round(q * k), 1-based, as served
            return window[max(1, math.floor(q * len(window) + 0.5)) - 1]

        assert ep["p50_ms"] == 1000.0 * nearest_rank(0.50)
        assert ep["p99_ms"] == 1000.0 * nearest_rank(0.99)

    def test_format_stats_renders_every_endpoint(self):
        stats = ServerStats()
        stats.record("point", 0.001)
        stats.record("batch", 0.002)
        text = format_stats(stats.snapshot())
        assert "point" in text and "batch" in text and "p99" in text


class TestEndpoints:
    def test_ping_info(self, running_server):
        structure, server, address = running_server
        with ServeClient(address) as client:
            assert client.ping()
            info = client.info()
            assert info["builder"] == structure.builder
            assert info["n"] == structure.graph.n
            assert info["max_faults"] == structure.max_faults
            assert info["artifact"] is None

    def test_point_batch_path_identity(self, running_server):
        structure, server, address = running_server
        fresh = FTQueryOracle(structure)
        faults = sample_faults(structure)
        n = structure.graph.n
        with ServeClient(address) as client:
            for t in range(n):
                for f in ((), faults):
                    d = fresh.distance(0, t, f)
                    expected = -1 if d == float("inf") else int(d)
                    assert client.point(0, t, f) == expected
            hops = client.batch(
                [
                    {"source": 0, "target": t, "faults": [list(e) for e in faults]}
                    for t in range(n)
                ]
            )
            assert hops == [
                -1 if fresh.distance(0, t, faults) == float("inf")
                else int(fresh.distance(0, t, faults))
                for t in range(n)
            ]
            for t in range(n):
                served_hops, served_route = client.path(0, t)
                if fresh.distance(0, t) == float("inf"):
                    assert (served_hops, served_route) == (-1, None)
                else:
                    assert served_route == list(fresh.path(0, t).vertices)

    def test_error_responses_are_typed_and_connection_survives(
        self, running_server
    ):
        structure, server, address = running_server
        with ServeClient(address) as client:
            resp = client.request("point", source=99, target=0)
            assert not resp["ok"]
            assert resp["error_type"] == "GraphError"
            resp = client.request(
                "point", source=0, target=1,
                faults=[[1, 2], [3, 4], [5, 6]],
            )
            assert not resp["ok"] and "budget" in resp["error"]
            n = structure.graph.n
            for target in (n, 999, -1):
                batch = [{"source": 0, "target": 1}, {"source": 0, "target": target}]
                for op, fields in (
                    ("point", {"source": 0, "target": target}),
                    ("path", {"source": 0, "target": target}),
                    ("batch", {"queries": batch}),
                ):
                    resp = client.request(op, **fields)
                    assert resp["error_type"] == "GraphError", (op, target)
                    assert "not a vertex" in resp["error"]
            non_edge = next(
                [0, v] for v in range(1, n) if not structure.graph.has_edge(0, v)
            )
            for faults in ([[0, 999]], [non_edge], [[3, 3]], [[-1, 5]], [[0]]):
                query = {"source": 0, "target": 5, "faults": faults}
                for op, fields in (
                    ("point", query),
                    ("path", query),
                    ("batch", {"queries": [query]}),
                ):
                    resp = client.request(op, **fields)
                    assert resp["error_type"] == "GraphError", (op, faults)
            resp = client.request("explode")
            assert resp["error_type"] == "ProtocolError"
            resp = client.request("point", source=0)  # missing target
            assert resp["error_type"] == "ProtocolError"
            # Valid JSON whose target python reads as inf: int() on it
            # overflows, which is the client's fault, not the server's.
            body = b'{"op":"point","source":0,"target":1e400}'
            client._sock.sendall(struct.pack("!I", len(body)) + body)
            resp = recv_msg(client._sock)
            assert resp["error_type"] == "ProtocolError"
            assert client.ping()  # same connection still serves

    def test_unexpected_exception_is_answered_and_counted(
        self, running_server, monkeypatch
    ):
        structure, server, address = running_server

        def boom(request):
            raise RuntimeError("handler bug")

        monkeypatch.setitem(server._ops, "boom", boom)
        with ServeClient(address) as client:
            resp = client.request("boom")
            assert not resp["ok"]
            assert resp["error_type"] == "InternalError"
            assert "handler bug" in resp["error"]
            assert client.ping()  # same connection still serves
            boom_stats = client.stats()["endpoints"]["boom"]
        assert boom_stats["count"] == 1 and boom_stats["errors"] == 1

    def test_stats_request_counts_are_exact(self, running_server):
        structure, server, address = running_server
        with ServeClient(address) as client:
            for _ in range(5):
                client.ping()
            client.request("nope")
            snap = client.stats()
            assert snap["endpoints"]["ping"]["count"] == 5
            assert snap["endpoints"]["unknown"]["errors"] == 1
            # A request is recorded when its handler returns, so the
            # stats call shows up in the *next* snapshot, not its own.
            assert "stats" not in snap["endpoints"]
            assert client.stats()["endpoints"]["stats"]["count"] == 1

    def test_malformed_frame_drops_connection_and_is_counted(
        self, running_server
    ):
        structure, server, address = running_server
        raw = socket.create_connection(address)
        with raw:
            raw.sendall(struct.pack("!I", 12) + b"not json....")
            assert raw.recv(1) == b""  # server hung up
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if server.stats.snapshot()["endpoints"].get("malformed"):
                break
            time.sleep(0.01)
        assert server.stats.snapshot()["endpoints"]["malformed"]["errors"] == 1

    def test_shutdown_op_refuses_new_connections(self):
        server = QueryServer(FTQueryOracle(sample_structure()))
        address = server.start()
        with ServeClient(address) as client:
            client.shutdown()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                ServeClient(address, timeout=1.0).close()
            except OSError:
                break
            time.sleep(0.05)
        else:
            pytest.fail("listener still accepting after shutdown op")


@pytest.mark.parametrize("engine", ["lex", "lex-csr"])
def test_served_answers_bit_identical_across_engines(tmp_path, engine):
    """Artifact-served results equal in-process results, per engine tier."""
    from repro.core.artifact import load_artifact

    structure = sample_structure()
    fresh = FTQueryOracle(structure, engine=engine)
    path = save_artifact(structure, tmp_path / "h.bin")
    with load_artifact(path) as artifact:
        server = QueryServer(artifact.oracle(engine=engine), artifact=artifact)
        address = server.start()
        try:
            faults = sample_faults(structure)
            n = structure.graph.n
            with ServeClient(address) as client:
                assert client.info()["engine"] == engine
                for t in range(n):
                    for f in ((), faults[:1], faults):
                        d = fresh.distance(0, t, f)
                        expected = -1 if d == float("inf") else int(d)
                        assert client.point(0, t, f) == expected
                hops = client.batch(
                    [{"source": 0, "target": t} for t in range(n)]
                )
                assert hops == [
                    -1 if fresh.distance(0, t) == float("inf")
                    else int(fresh.distance(0, t))
                    for t in range(n)
                ]
                for t in range(n):
                    served_hops, served_route = client.path(0, t, faults)
                    if fresh.distance(0, t, faults) == float("inf"):
                        assert (served_hops, served_route) == (-1, None)
                    else:
                        assert served_route == list(
                            fresh.path(0, t, faults).vertices
                        )
        finally:
            server.shutdown()


def test_concurrent_clients_exact_stats_accounting():
    """8 threads x 50 requests: totals stay exact under interleaving.

    The serving mirror of test_snapshot_cache's concurrent hammer: each
    client thread issues point + batch requests on its own connection
    and every one must be answered correctly and counted exactly once.
    """
    structure = sample_structure()
    fresh = FTQueryOracle(structure)
    n = structure.graph.n
    expected = [
        -1 if fresh.distance(0, t) == float("inf") else int(fresh.distance(0, t))
        for t in range(n)
    ]
    server = QueryServer(FTQueryOracle(structure))
    address = server.start()
    nthreads, kops = 8, 50
    errors = []

    def hammer(tid):
        try:
            with ServeClient(address) as client:
                for i in range(kops):
                    t = (tid * kops + i) % n
                    assert client.point(0, t) == expected[t]
                assert client.batch(
                    [{"source": 0, "target": t} for t in range(n)]
                ) == expected
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(t,)) for t in range(nthreads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    server.shutdown()
    assert not errors
    snap = server.stats.snapshot()
    assert snap["endpoints"]["point"]["count"] == nthreads * kops
    assert snap["endpoints"]["point"]["errors"] == 0
    assert snap["endpoints"]["batch"]["count"] == nthreads
    assert snap["requests"] == nthreads * (kops + 1)
    assert snap["errors"] == 0


def test_unix_socket_serving(tmp_path):
    structure = sample_structure()
    sock_path = str(tmp_path / "repro.sock")
    server = QueryServer(FTQueryOracle(structure), socket_path=sock_path)
    address = server.start()
    assert address == sock_path and os.path.exists(sock_path)
    try:
        with ServeClient(address) as client:
            assert client.ping()
            assert client.point(0, 0) == 0
    finally:
        server.shutdown()
    assert not os.path.exists(sock_path)  # unlinked on shutdown


def test_cli_build_then_serve_subprocess(tmp_path):
    """`repro build --out h.bin && repro serve h.bin` answers queries."""
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    out = tmp_path / "h.bin"
    built = subprocess.run(
        [
            sys.executable, "-m", "repro", "build",
            "--graph", "er:n=24,p=0.18,seed=6", "--builder", "cons2",
            "--source", "0", "--out", str(out),
        ],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert built.returncode == 0, built.stderr
    assert "(artifact)" in built.stdout

    sock_path = str(tmp_path / "serve.sock")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", str(out),
            "--socket", sock_path,
        ],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        deadline = time.monotonic() + 60.0
        while not os.path.exists(sock_path):
            assert proc.poll() is None, proc.stdout.read()
            assert time.monotonic() < deadline, "server did not come up"
            time.sleep(0.05)
        structure = sample_structure()
        fresh = FTQueryOracle(structure)
        with ServeClient(sock_path) as client:
            info = client.info()
            assert info["artifact"]["path"].endswith("h.bin")
            d = fresh.distance(0, structure.graph.n - 1)
            expected = -1 if d == float("inf") else int(d)
            assert client.point(0, structure.graph.n - 1) == expected
            client.shutdown()
        stdout, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0, stdout
        assert "served" in stdout and "point" in stdout  # stats table
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def test_handle_is_a_plain_function_surface():
    """handle() answers request dicts without any socket (used by tests)."""
    structure = sample_structure()
    server = QueryServer(FTQueryOracle(structure))
    response = server.handle({"op": "ping"})
    assert response == {"pong": True, "ok": True}
    response = server.handle({"op": "point", "source": 0, "target": 0})
    assert response["hops"] == 0
    response = server.handle(json.loads('{"op": "nope"}'))
    assert response["error_type"] == "ProtocolError"


class TestWeightedServing:
    """The weighted-aware protocol fields (docs/weighted.md)."""

    def _weighted_server(self):
        from repro.core.graph import Graph

        g = Graph(6)
        weights = {
            (0, 1): 2, (1, 2): 0.5, (0, 3): 7, (2, 3): 1.5, (3, 4): 3,
        }  # d(0,2)=2.5 fractional, d(0,3)=4 integral; 5 isolated
        for (u, v), w in weights.items():
            g.add_edge(u, v, w)
        structure = build_cons2ftbfs(g, 0)
        oracle = FTQueryOracle(structure, engine="wlex-csr")
        server = QueryServer(oracle)
        return structure, oracle, server

    @staticmethod
    def _point(client, source, target):
        response = client.request("point", source=source, target=target)
        return response["hops"], response["distance"]

    def test_point_batch_path_report_weighted_distances(self):
        structure, fresh, server = self._weighted_server()
        address = server.start()
        try:
            with ServeClient(address) as client:
                info = client.info()
                assert info["weighted"] is True
                assert info["engine"] == "wlex-csr"
                # fractional distance: 0-1-2 costs 2.5; hops is None
                # (hop counts do not apply), distance is the float.
                assert self._point(client, 0, 2) == (None, 2.5)
                assert client.distance(0, 2) == 2.5
                # integral weighted distance collapses to int on the wire
                assert self._point(client, 0, 3) == (4, 4)
                # unreachable: legacy hops sentinel + None distance
                assert self._point(client, 0, 5) == (-1, None)
                queries = [
                    {"source": 0, "target": t} for t in range(structure.graph.n)
                ]
                expect = [fresh.distance(0, t) for t in range(structure.graph.n)]
                assert client.batch_distances(queries) == [
                    None if d == float("inf")
                    else int(d) if float(d).is_integer() else d
                    for d in expect
                ]
                hops, vertices = client.path(0, 2)
                assert hops is None  # fractional total
                assert vertices == [0, 1, 2]
                path = client.request("path", source=0, target=3)
                assert path["distance"] == 4
        finally:
            server.shutdown()

    def test_delta_carries_weights_over_the_wire(self):
        structure, oracle, server = self._weighted_server()
        address = server.start()
        try:
            with ServeClient(address) as client:
                assert client.distance(0, 3) == 4  # 0-1-2-3: 2+0.5+1.5
                client.delta(removes=[(1, 2)])
                assert client.distance(0, 3) == 7  # forced onto 0-3
                # restore with the original weight: [u, v, w] on the wire
                client.delta(adds=[(1, 2, 0.5)])
                assert client.distance(0, 3) == 4
                # a new weighted edge mirrors into the host graph with
                # its weight, so a rebuilt oracle sees the same metric
                client.delta(adds=[(4, 5, 0.25)])
                assert client.distance(0, 5) == 7.25
                rebuilt = FTQueryOracle(oracle.structure, engine="wlex")
                assert rebuilt.distance(0, 5) == 7.25
                with pytest.raises(GraphError, match="expected .u, v."):
                    client.delta(adds=[(1, 2, 3, 4)])
        finally:
            server.shutdown()

    def test_hop_servers_also_report_distance_fields(self, running_server):
        structure, _server, address = running_server
        fresh = FTQueryOracle(structure)
        with ServeClient(address) as client:
            assert client.info()["weighted"] is False
            for t in (0, 1, structure.graph.n - 1):
                hops, distance = self._point(client, 0, t)
                d = fresh.distance(0, t)
                if d == float("inf"):
                    assert (hops, distance) == (-1, None)
                else:
                    assert (hops, distance) == (int(d), int(d))
