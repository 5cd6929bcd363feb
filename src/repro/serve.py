"""``repro serve``: a long-lived query server over a loaded artifact.

The counterpart of :mod:`repro.core.artifact`'s build-once story: a
process that mmap-loads an artifact (or a structure JSON) once and
answers fault-tolerant distance / batch / replacement-path queries
over a local socket for as long as it lives.  The moving parts:

* **Protocol.**  Length-prefixed JSON frames: a 4-byte big-endian
  unsigned length followed by one UTF-8 JSON object, in both
  directions.  One request frame yields exactly one response frame on
  the same connection; connections are persistent (any number of
  requests) and concurrent.  Responses always carry ``"ok"``; errors
  report ``"error"`` and ``"error_type"`` instead of tearing down the
  connection.  The full request/response reference lives in
  ``docs/serving.md``.

* **Execution.**  Every query runs on the artifact's
  :class:`~repro.ftbfs.oracle.FTQueryOracle` — ``batch`` requests ride
  the :class:`~repro.core.query_batch.PointQueryBatch` planner, so a
  served batch gets the same plan→dedupe→execute pipeline and kernel
  ladder (one C multi-pair call per batch) as an in-process
  caller.  The accept loop is threaded (one thread per connection),
  but query execution itself is serialized behind one lock: the CSR
  kernel's pooled scratch belongs to the snapshot, not to a thread,
  so two handler threads must never search it at once.

* **Accounting.**  Per-endpoint request counts, error counts, QPS and
  p50/p99 latency (:class:`ServerStats`) are served to any client via
  a ``stats`` request and printed by the CLI on shutdown — the
  serving mirror of the snapshot cache's hit/miss counters, with the
  same exactness contract (hammered in ``tests/test_serve.py``).

Served answers are bit-identical to in-process oracle queries on every
engine tier — property-tested across the three hop engine families.
"""

from __future__ import annotations

import json
import os
import socket
import struct
import threading
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.errors import GraphError, ReproError

#: Frame size cap (compiled into both ends): a 4-byte length prefix
#: admits 4 GiB frames, which no sane query needs — reject early.
MAX_FRAME = 64 * 1024 * 1024

_LEN = struct.Struct("!I")

#: Address forms accepted everywhere in this module: a ``(host, port)``
#: tuple for TCP loopback, or a filesystem path string for an
#: ``AF_UNIX`` socket.
Address = Union[Tuple[str, int], str]

INF = float("inf")


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def send_msg(sock: socket.socket, obj: dict) -> None:
    """Send one length-prefixed JSON frame."""
    data = json.dumps(obj, separators=(",", ":")).encode()
    if len(data) > MAX_FRAME:
        raise GraphError(f"frame of {len(data)} bytes exceeds {MAX_FRAME}")
    sock.sendall(_LEN.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    buf = bytearray()
    while len(buf) < count:
        chunk = sock.recv(count - len(buf))
        if not chunk:
            return None
        buf.extend(chunk)
    return bytes(buf)


def recv_msg(sock: socket.socket) -> Optional[dict]:
    """Receive one frame; ``None`` on a cleanly closed connection."""
    head = _recv_exact(sock, _LEN.size)
    if head is None:
        return None
    (length,) = _LEN.unpack(head)
    if length > MAX_FRAME:
        raise GraphError(f"frame of {length} bytes exceeds {MAX_FRAME}")
    data = _recv_exact(sock, length)
    if data is None:
        return None
    return json.loads(data)


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------
class ServerStats:
    """Exact per-endpoint request accounting with latency percentiles.

    Counter updates run under one lock (the same discipline as
    :class:`~repro.core.snapshot_cache.SnapshotCache`): handler threads
    record concurrently and the totals must still be exact — the
    8-thread hammer in ``tests/test_serve.py`` asserts equality, not
    approximation.  Each endpoint keeps its last :attr:`MAX_SAMPLES`
    latencies in a fixed ring (the oldest overwritten), so a record
    costs O(1) under the lock however long the server has run;
    :meth:`snapshot` sorts a copy, and p50/p99 use the nearest-rank
    method over that window.
    """

    #: Latency samples retained per endpoint for the percentile report.
    MAX_SAMPLES = 8_192

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._t0 = time.monotonic()
        self._endpoints: Dict[str, dict] = {}

    def record(self, endpoint: str, seconds: float, error: bool = False) -> None:
        """Account one handled request (latency in seconds)."""
        with self._lock:
            ep = self._endpoints.get(endpoint)
            if ep is None:
                ep = {"count": 0, "errors": 0, "ring": []}
                self._endpoints[endpoint] = ep
            count = ep["count"]
            ep["count"] = count + 1
            if error:
                ep["errors"] += 1
            ring: List[float] = ep["ring"]
            if count < self.MAX_SAMPLES:
                ring.append(seconds)
            else:
                ring[count % self.MAX_SAMPLES] = seconds

    @staticmethod
    def _rank(samples: Sequence[float], q: float) -> float:
        i = max(0, min(len(samples) - 1, int(q * len(samples) + 0.5) - 1))
        return samples[i]

    def snapshot(self) -> dict:
        """The stats payload served to ``stats`` requests."""
        with self._lock:
            uptime = max(time.monotonic() - self._t0, 1e-9)
            copied = [
                (name, ep["count"], ep["errors"], list(ep["ring"]))
                for name, ep in sorted(self._endpoints.items())
            ]
        # Sorting outside the lock keeps recorders from waiting on it.
        endpoints = {}
        total = errors = 0
        for name, count, errs, ring in copied:
            samples = sorted(ring)
            endpoints[name] = {
                "count": count,
                "errors": errs,
                "qps": count / uptime,
                "p50_ms": 1000.0 * self._rank(samples, 0.50) if samples else 0.0,
                "p99_ms": 1000.0 * self._rank(samples, 0.99) if samples else 0.0,
            }
            total += count
            errors += errs
        return {
            "uptime_s": uptime,
            "requests": total,
            "errors": errors,
            "endpoints": endpoints,
        }


def format_stats(snapshot: dict) -> str:
    """Render a stats snapshot as the table the CLI prints on shutdown."""
    lines = [
        f"served {snapshot['requests']} requests "
        f"({snapshot['errors']} errors) in {snapshot['uptime_s']:.1f}s"
    ]
    for name, ep in snapshot["endpoints"].items():
        lines.append(
            f"  {name:<10s} {ep['count']:>8d} req  {ep['errors']:>6d} err  "
            f"{ep['qps']:>9.1f} qps  p50 {ep['p50_ms']:.2f} ms  "
            f"p99 {ep['p99_ms']:.2f} ms"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# server
# ----------------------------------------------------------------------
def _parse_faults(raw) -> List[Tuple[int, int]]:
    if not raw:
        return []
    out = []
    for item in raw:
        if len(item) != 2:
            raise GraphError(f"bad fault {item!r}; expected [u, v]")
        out.append((int(item[0]), int(item[1])))
    return out


def _parse_delta_adds(raw) -> List[Tuple]:
    """Delta ``adds`` entries: ``[u, v]`` or a weighted ``[u, v, w]``.

    The weight rides along untouched — :meth:`repro.core.graph.Graph
    .apply_delta` validates it (``check_weight``) so wire clients get
    the same error text as in-process callers.
    """
    if not raw:
        return []
    out = []
    for item in raw:
        if len(item) == 2:
            out.append((int(item[0]), int(item[1])))
        elif len(item) == 3:
            out.append((int(item[0]), int(item[1]), item[2]))
        else:
            raise GraphError(
                f"bad delta add {item!r}; expected [u, v] or [u, v, w]"
            )
    return out


def _wire_distance(d):
    """The ``"distance"`` response field for one raw oracle distance.

    ``None`` when unreachable; integral values collapse to ``int`` so
    hop-semantics servers keep emitting plain integers and weighted
    distances survive as JSON floats (the asymmetry ``2`` vs ``2.0``
    would otherwise leak host float formatting into the protocol).
    """
    if d == INF or d == -1:
        return None
    if isinstance(d, float) and d.is_integer():
        return int(d)
    return d


def _wire_hops(d):
    """The legacy ``"hops"`` field: ``-1`` when unreachable, ``None``
    when the distance is fractional (a weighted oracle; hop counts do
    not apply)."""
    dist = _wire_distance(d)
    if dist is None:
        return -1
    return dist if isinstance(dist, int) else None


class QueryServer:
    """Threaded accept loop serving one oracle over a local socket.

    Parameters
    ----------
    oracle:
        The :class:`~repro.ftbfs.oracle.FTQueryOracle` to serve
        (typically ``Artifact.oracle()``).
    host / port:
        TCP loopback endpoint; port 0 binds an ephemeral port (read
        the actual one from :attr:`address` after :meth:`start`).
    socket_path:
        Bind an ``AF_UNIX`` socket at this path instead of TCP.
    artifact:
        Optional source :class:`~repro.core.artifact.Artifact`, echoed
        by the ``info`` endpoint so clients can see what is serving.
    """

    def __init__(
        self,
        oracle,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_path: Optional[str] = None,
        artifact=None,
    ) -> None:
        self.oracle = oracle
        self.stats = ServerStats()
        self.artifact = artifact
        self._host = host
        self._port = port
        self._socket_path = socket_path
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        # The CSR kernel's pooled scratch is per-snapshot, not
        # per-thread — concurrent handler threads must take turns on
        # the oracle.
        self._qlock = threading.Lock()
        self._ops = {
            "ping": self._op_ping,
            "info": self._op_info,
            "point": self._op_point,
            "batch": self._op_batch,
            "path": self._op_path,
            "delta": self._op_delta,
            "stats": self._op_stats,
            "shutdown": self._op_shutdown,
        }

    # -- lifecycle -----------------------------------------------------
    @property
    def address(self) -> Address:
        """Where the server listens (valid after :meth:`start`)."""
        if self._socket_path is not None:
            return self._socket_path
        return (self._host, self._port)

    def start(self) -> Address:
        """Bind, listen and launch the accept thread; returns the address."""
        if self._socket_path is not None:
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(self._socket_path)
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self._host, self._port))
            self._port = listener.getsockname()[1]
        listener.listen(64)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()
        return self.address

    def serve_forever(self) -> None:
        """:meth:`start` (if needed) and block until :meth:`shutdown`."""
        if self._listener is None:
            self.start()
        self._stopped.wait()

    def shutdown(self) -> None:
        """Stop accepting, close the listener and unblock waiters."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        listener = self._listener
        if listener is not None:
            # A thread blocked in accept() does not wake on close()
            # (the kernel pins the open file until the syscall ends,
            # and keeps accepting into the backlog meanwhile) — poke
            # it with a throwaway self-connection first.
            try:
                if self._socket_path is not None:
                    poke = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                else:
                    poke = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                poke.settimeout(1.0)
                poke.connect(self.address)
                poke.close()
            except OSError:
                pass
            thread = self._accept_thread
            if thread is not None and thread is not threading.current_thread():
                thread.join(timeout=5.0)
            try:
                listener.close()
            except OSError:
                pass
        if self._socket_path is not None:
            try:
                os.unlink(self._socket_path)
            except OSError:
                pass

    # -- connection handling -------------------------------------------
    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stopped.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                break  # listener closed by shutdown()
            if self._stopped.is_set():
                conn.close()  # shutdown()'s wake-up poke
                break
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="repro-serve-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            while not self._stopped.is_set():
                try:
                    request = recv_msg(conn)
                except (GraphError, ValueError, OSError):
                    # Unframeable input: there is no request id to
                    # answer, and resynchronizing a corrupt stream is
                    # guesswork — drop the connection instead.
                    self.stats.record("malformed", 0.0, error=True)
                    return
                if request is None:
                    return
                try:
                    send_msg(conn, self.handle(request))
                except OSError:
                    return

    # -- dispatch ------------------------------------------------------
    def handle(self, request: dict) -> dict:
        """Answer one request dict (also the in-process test surface)."""
        op = request.get("op") if isinstance(request, dict) else None
        handler = self._ops.get(op)
        endpoint = op if handler is not None else "unknown"
        t0 = time.perf_counter()
        if handler is None:
            response = {
                "ok": False,
                "error": f"unknown op {op!r} (known: {sorted(self._ops)})",
                "error_type": "ProtocolError",
            }
        else:
            try:
                response = handler(request)
                response["ok"] = True
            except ReproError as err:
                response = {
                    "ok": False,
                    "error": str(err),
                    "error_type": type(err).__name__,
                }
            except (KeyError, TypeError, ValueError, OverflowError) as err:
                response = {
                    "ok": False,
                    "error": f"malformed request: {err!r}",
                    "error_type": "ProtocolError",
                }
            except Exception as err:
                # Anything else is a server bug, not a client error, but
                # the connection and the stats record must survive it;
                # the traceback goes to stderr for the operator.
                traceback.print_exc()
                response = {
                    "ok": False,
                    "error": f"internal error: {err!r}",
                    "error_type": "InternalError",
                }
        self.stats.record(
            endpoint, time.perf_counter() - t0, error=not response["ok"]
        )
        return response

    # -- endpoints -----------------------------------------------------
    def _op_ping(self, request: dict) -> dict:
        return {"pong": True}

    def _op_info(self, request: dict) -> dict:
        structure = self.oracle.structure
        g = structure.graph
        info = {
            "builder": structure.builder,
            "n": g.n,
            "m": g.m,
            "weighted": bool(getattr(g, "weighted", False)),
            "sources": list(structure.sources),
            "max_faults": structure.max_faults,
            "structure_edges": structure.size,
            "engine": getattr(self.oracle._paths, "name", "unknown"),
            "artifact": None,
        }
        if self.artifact is not None:
            info["artifact"] = {
                "path": str(self.artifact.path),
                "nbytes": self.artifact.nbytes,
                "content_hash": self.artifact.content_hash,
            }
        return info

    def _op_point(self, request: dict) -> dict:
        source = int(request["source"])
        target = int(request["target"])
        faults = _parse_faults(request.get("faults"))
        with self._qlock:
            d = self.oracle.distance(source, target, faults)
        return {"hops": _wire_hops(d), "distance": _wire_distance(d)}

    def _op_batch(self, request: dict) -> dict:
        queries = request["queries"]
        parsed = []
        for q in queries:
            source = int(q["source"])
            target = int(q["target"])
            faults = _parse_faults(q.get("faults"))
            # The raw batch planner does not validate; the oracle's
            # scalar-path check does.
            self.oracle._check(source, faults, (target,))
            parsed.append((source, target, tuple(faults)))
        with self._qlock:
            batch = self.oracle.query_batch()
            for source, target, faults in parsed:
                batch.add(source, target, faults, ())
            hops = batch.execute()
        return {
            "hops": [_wire_hops(h) for h in hops],
            "distances": [_wire_distance(h) for h in hops],
        }

    def _op_path(self, request: dict) -> dict:
        source = int(request["source"])
        target = int(request["target"])
        faults = _parse_faults(request.get("faults"))
        with self._qlock:
            d = self.oracle.distance(source, target, faults)
            if d == INF:
                return {"hops": -1, "distance": None, "vertices": None}
            path = self.oracle.path(source, target, faults)
        return {
            "hops": _wire_hops(d),
            "distance": _wire_distance(d),
            "vertices": list(path.vertices),
        }

    def _op_delta(self, request: dict) -> dict:
        """Absorb a topology update into the served structure in place.

        ``{"op": "delta", "adds": [[u, v] | [u, v, w], ...],
        "removes": [[u, v], ...]}`` — edges enter/leave the served
        subgraph (weighted adds carry their weight) without
        restarting the server or dropping preseeded caches: the next
        snapshot is patched incrementally
        (:class:`~repro.core.csr.DeltaCSRGraph`) and cached answers
        migrate under the survival certificates of
        :mod:`repro.core.delta`.  The patch + migration run eagerly
        (under the query lock, like any query) so the response can
        report the migration counters; post-delta answers are
        bit-identical to a freshly built server over the mutated edge
        set.
        """
        from repro.core.csr import csr_of
        from repro.core.snapshot_cache import shared_cache

        adds = _parse_delta_adds(request.get("adds"))
        removes = _parse_faults(request.get("removes"))
        with self._qlock:
            before = shared_cache().stats()
            added, removed = self.oracle.apply_delta(adds=adds, removes=removes)
            h = self.oracle._h
            csr_of(h)  # build the patched snapshot + migrate caches now
            after = shared_cache().stats()
        return {
            "added": [list(e) for e in added],
            "removed": [list(e) for e in removed],
            "n": h.n,
            "m": h.m,
            "structure_edges": self.oracle.structure.size,
            "cache": {
                key: after.get(key, 0) - before.get(key, 0)
                for key in ("delta_survived", "delta_evicted", "delta_rechecked")
            },
        }

    def _op_stats(self, request: dict) -> dict:
        return {"stats": self.stats.snapshot()}

    def _op_shutdown(self, request: dict) -> dict:
        # Reply first (the recorder runs in handle()), then stop: the
        # client gets its ack before the listener dies.
        threading.Timer(0.05, self.shutdown).start()
        return {"stopping": True}


# ----------------------------------------------------------------------
# client
# ----------------------------------------------------------------------
class ServeClient:
    """Small synchronous client for :class:`QueryServer` sockets.

    Accepts the same address forms the server produces: a ``(host,
    port)`` tuple (TCP) or a path string (unix socket).  Convenience
    methods raise :class:`~repro.core.errors.GraphError` on error
    responses; :meth:`request` returns the raw response dict.
    """

    def __init__(self, address: Address, timeout: float = 60.0) -> None:
        self.address = address
        if isinstance(address, str):
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            address = tuple(address)
        self._sock.settimeout(timeout)
        try:
            self._sock.connect(address)
        except OSError:
            self._sock.close()  # a refused connect must not leak the fd
            raise

    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request(self, op: str, **fields) -> dict:
        """Send one request frame and return the raw response dict."""
        fields["op"] = op
        send_msg(self._sock, fields)
        response = recv_msg(self._sock)
        if response is None:
            raise GraphError(f"server at {self.address!r} closed the connection")
        return response

    def _checked(self, op: str, **fields) -> dict:
        response = self.request(op, **fields)
        if not response.get("ok"):
            raise GraphError(
                f"{op} failed: {response.get('error')} "
                f"({response.get('error_type')})"
            )
        return response

    def ping(self) -> bool:
        """Round-trip liveness check."""
        return bool(self._checked("ping").get("pong"))

    def info(self) -> dict:
        """The server's structure/engine/artifact description."""
        response = self._checked("info")
        response.pop("ok")
        return response

    def point(self, source: int, target: int, faults: Sequence = ()) -> int:
        """Raw hop distance (``-1`` = unreachable), like the kernel's.

        ``None`` when the serving oracle is weighted and the distance
        is fractional — use :meth:`distance` for weighted servers.
        """
        return self._checked(
            "point", source=source, target=target, faults=[list(f) for f in faults]
        )["hops"]

    def distance(self, source: int, target: int, faults: Sequence = ()):
        """Exact served distance (weighted-aware; ``None`` = unreachable)."""
        return self._checked(
            "point", source=source, target=target, faults=[list(f) for f in faults]
        )["distance"]

    def batch(self, queries: Sequence[dict]) -> List[int]:
        """Hop distances for many ``{source, target, faults}`` queries."""
        return self._checked("batch", queries=list(queries))["hops"]

    def batch_distances(self, queries: Sequence[dict]) -> List:
        """Exact distances (weighted-aware) for many queries."""
        return self._checked("batch", queries=list(queries))["distances"]

    def path(
        self, source: int, target: int, faults: Sequence = ()
    ) -> Tuple[int, Optional[List[int]]]:
        """``(hops, vertices)`` of the surviving route (``-1, None`` if cut)."""
        response = self._checked(
            "path", source=source, target=target, faults=[list(f) for f in faults]
        )
        return response["hops"], response["vertices"]

    def delta(self, adds: Sequence = (), removes: Sequence = ()) -> dict:
        """Apply a topology update to the served structure in place.

        Returns the server's delta report: normalized ``added`` /
        ``removed`` edge lists, the updated ``n`` / ``m`` /
        ``structure_edges``, and the cache-migration counters
        (``delta_survived`` / ``delta_evicted`` / ``delta_rechecked``).
        """
        response = self._checked(
            "delta",
            adds=[list(e) for e in adds],
            removes=[list(e) for e in removes],
        )
        response.pop("ok")
        return response

    def stats(self) -> dict:
        """The server's :class:`ServerStats` snapshot."""
        return self._checked("stats")["stats"]

    def shutdown(self) -> None:
        """Ask the server to stop (acknowledged before it does)."""
        self._checked("shutdown")
