"""``repro serve`` subprocesses and the closed-loop clients that drive them."""

from __future__ import annotations

import os
import random
import select
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from common import ROOT, WORK, at_nominal, calibrate, read_peak_rss_mb, workload_env
from workloads import READ_CONNS, ChurnStream, ReadStream

#: ``ServerStats`` keeps this many latency samples per endpoint; the
#: warm-up sends more ``point`` requests than that before timing starts.
STATS_CAP = 8_192
WARMUP_POINTS = 8_400
START_TIMEOUT = 60.0
STOP_TIMEOUT = 15.0

#: Share of each op's replies kept for the reference check.
SAMPLE_RATE = {"point": 0.012, "path": 0.05, "batch": 0.05}
CHURN_SAMPLE_RATE = 0.04
#: Queries checked per sampled ``batch`` reply.
BATCH_ENTRIES_CHECKED = 4


class ServerProcess:
    """One server subprocess, stopped (and waited for) on every exit path.

    ``spans_out`` starts it through the tracing launcher instead of
    ``python -m repro serve``.
    """

    def __init__(self, artifact: str, spans_out: Optional[str] = None) -> None:
        if spans_out is None:
            prefix = [sys.executable, "-m", "repro"]
        else:
            prefix = [sys.executable, str(ROOT / "perfbench" / "serve_launcher.py"), spans_out]
        self.cmd = prefix + ["serve", artifact, "--port", "0"]
        self.proc: Optional[subprocess.Popen] = None
        self.address: Optional[Tuple[str, int]] = None
        self._stderr = None

    def start(self) -> float:
        """Spawn, wait for the first successful ping; returns set-up seconds."""
        from repro.serve import ServeClient

        WORK.mkdir(parents=True, exist_ok=True)
        self._stderr = open(WORK / "server.stderr", "w")
        t0 = time.monotonic()
        self.proc = subprocess.Popen(
            self.cmd,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=workload_env(),
            cwd=str(ROOT),
        )
        # Raw reads: a buffered reader could hold the banner line where
        # select() cannot see it.
        fd = self.proc.stdout.fileno()
        banner = b""
        deadline = t0 + START_TIMEOUT
        while self.address is None:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([fd], [], [], max(remaining, 0))
            if not ready:
                raise RuntimeError("server did not report its address in time")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RuntimeError(f"server exited with code {self.proc.wait()}")
            banner += chunk
            for line in banner.decode(errors="replace").splitlines():
                if "listening on" in line:
                    host, port = line.split()[-1].rsplit(":", 1)
                    self.address = (host, int(port))
        with ServeClient(self.address) as client:
            if not client.ping():
                raise RuntimeError("server did not answer ping")
        return time.monotonic() - t0

    def peak_rss_mb(self) -> Optional[float]:
        """The server's peak resident memory so far."""
        return read_peak_rss_mb(self.proc.pid) if self.proc else None

    def stop(self) -> None:
        """Ask for shutdown, then make sure the process has ended."""
        from repro.core.errors import GraphError
        from repro.serve import ServeClient

        proc = self.proc
        if proc is None:
            return
        try:
            if proc.poll() is None and self.address is not None:
                with ServeClient(self.address, timeout=5.0) as client:
                    client.shutdown()
                proc.wait(timeout=STOP_TIMEOUT)
        except (OSError, subprocess.TimeoutExpired, GraphError, ValueError):
            pass  # killed below
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
            if self._stderr is not None:
                self._stderr.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def spawn_setup_samples(artifact: str, count: int) -> List[float]:
    """Set-up time of ``count`` throwaway servers (spawn to first ping),
    each at nominal host speed (calibrated right before and after it)."""
    samples = []
    cal = calibrate()
    for _ in range(count):
        with ServerProcess(artifact) as server:
            setup = server.start()
        after = calibrate()
        samples.append(at_nominal(setup, (cal + after) / 2))
        cal = after
    return samples


class Window:
    """What one timed sub-window saw: latencies by op, failures."""

    def __init__(self) -> None:
        self.latency: Dict[str, List[float]] = {}
        self.errors: List[str] = []
        self.done = 0
        self.wall = 0.0

    def record(self, op: str, seconds: float) -> None:
        self.latency.setdefault(op, []).append(seconds)
        self.done += 1

    def merge(self, other: "Window") -> None:
        for op, values in other.latency.items():
            self.latency.setdefault(op, []).extend(values)
        self.errors.extend(other.errors)
        self.done += other.done


def _request(client, op: str, fields: dict, window: Window):
    """One request; ``None`` (and an error recorded) on failure."""
    from repro.core.errors import GraphError

    try:
        response = client.request(op, **fields)
    except (OSError, GraphError, ValueError) as err:
        window.errors.append(f"{op}: connection failed: {err!r}")
        return None
    if not response.get("ok"):
        window.errors.append(f"{op}: {response.get('error_type')}: {response.get('error')}")
        return None
    return response


def warm_up(address, seed: int, n: int, tree, other) -> None:
    """Send ``WARMUP_POINTS`` point requests over ``READ_CONNS`` connections."""
    from repro.serve import ServeClient

    conns = READ_CONNS
    errors: List[str] = []

    def run(conn: int) -> None:
        stream = ReadStream(seed + 1_000_003, conn, n, tree, other)
        window = Window()
        with ServeClient(address) as client:
            for _ in range(WARMUP_POINTS // conns + 1):
                op, fields = stream.point()
                if _request(client, op, fields, window) is None:
                    break
        errors.extend(window.errors)

    threads = [threading.Thread(target=run, args=(c,)) for c in range(conns)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise RuntimeError(f"warm-up failed: {errors[0]}")


def server_stats(address) -> dict:
    """The server's ``stats`` snapshot (also the traced window marker)."""
    from repro.serve import ServeClient

    with ServeClient(address) as client:
        return client.stats()


class ReadLoad:
    """The ``serve-read`` closed loop: 2 connections from one process.

    Request streams and reply sampling continue across :meth:`drive`
    calls, so a run split into sub-windows sends one seeded stream.
    Samples are ``(op, fields, response)``.
    """

    def __init__(self, seed: int, n: int, tree, other) -> None:
        self.streams = [ReadStream(seed, c, n, tree, other) for c in range(READ_CONNS)]
        self.keeps = [random.Random(f"serve-read-sample:{seed}:{c}") for c in range(READ_CONNS)]
        self.samples: List[tuple] = []

    def drive(self, address, seconds: float) -> Window:
        """Run every connection for ``seconds``; one merged :class:`Window`."""
        from repro.serve import ServeClient

        conns = len(self.streams)
        windows = [Window() for _ in range(conns)]
        gate = threading.Barrier(conns + 1)
        deadline = [0.0]

        def run(conn: int) -> None:
            window, stream, keep = windows[conn], self.streams[conn], self.keeps[conn]
            clock = time.perf_counter
            with ServeClient(address) as client:
                gate.wait()
                while clock() < deadline[0]:
                    op, fields = stream.next()
                    t0 = clock()
                    response = _request(client, op, fields, window)
                    if response is None:
                        break
                    window.record(op, clock() - t0)
                    if keep.random() < SAMPLE_RATE[op]:
                        self.samples.append((op, fields, response))

        threads = [threading.Thread(target=run, args=(c,)) for c in range(conns)]
        for t in threads:
            t.start()
        deadline[0] = time.perf_counter() + seconds
        t0 = time.perf_counter()
        gate.wait()
        for t in threads:
            t.join()
        merged = Window()
        for w in windows:
            merged.merge(w)
        merged.wall = time.perf_counter() - t0
        return merged


class ChurnLoad:
    """The ``serve-churn`` closed loop on one connection.

    Samples are ``("point", fields, response, phase)``; every delta reply
    is kept as ``("delta", fields, response, phase)``.
    """

    def __init__(self, seed: int, n: int, phases, script) -> None:
        self.stream = ChurnStream(seed, n, phases, script)
        self.keep = random.Random(f"serve-churn-sample:{seed}")
        self.samples: List[tuple] = []

    def drive(self, address, seconds: float) -> Window:
        """Run the connection for ``seconds``."""
        from repro.serve import ServeClient

        window = Window()
        clock = time.perf_counter
        with ServeClient(address) as client:
            t_start = clock()
            deadline = t_start + seconds
            while clock() < deadline:
                op, fields, phase = self.stream.next()
                t0 = clock()
                response = _request(client, op, fields, window)
                if response is None:
                    break
                window.record(op, clock() - t0)
                if op == "delta" or self.keep.random() < CHURN_SAMPLE_RATE:
                    self.samples.append((op, fields, response, phase))
            window.wall = clock() - t_start
        return window


def check_read_samples(samples: Sequence[tuple], g_ref, h_edges) -> Tuple[int, List[str]]:
    """Check sampled ``serve-read`` replies against ``G \\ F``."""
    from reference import check_path

    checked = 0
    problems: List[str] = []
    for op, fields, response in samples:
        if op == "batch":
            entries = list(zip(fields["queries"], response["hops"]))[:BATCH_ENTRIES_CHECKED]
        else:
            entries = [(fields, response["hops"])]
        for query, hops in entries:
            want = g_ref.dists(query["faults"])[query["target"]]
            checked += 1
            if op == "path":
                why = check_path(
                    response["vertices"], hops, query["source"], query["target"],
                    h_edges, query["faults"], want,
                )
            elif hops != want:
                why = f"{op} to {query['target']} F={query['faults']}: {hops} != {want}"
            else:
                why = None
            if why:
                problems.append(why)
    return checked, problems


def check_churn_samples(samples: Sequence[tuple], phase_refs, structure_edges: int) -> Tuple[int, List[str]]:
    """Check sampled churn reads against the mirror of ``H`` at their phase,
    and every delta reply against the script."""
    checked = 0
    problems: List[str] = []
    for op, fields, response, phase in samples:
        checked += 1
        if op == "delta":
            if (
                response["removed"] != fields["removes"]
                or response["added"] != fields["adds"]
                or response["structure_edges"] != structure_edges
            ):
                problems.append(f"delta {fields}: reply {response}")
            continue
        want = phase_refs[phase].dists(fields["faults"])[fields["target"]]
        if response["hops"] != want:
            problems.append(
                f"point to {fields['target']} F={fields['faults']} (phase {phase}): "
                f"{response['hops']} != {want}"
            )
    return checked, problems
