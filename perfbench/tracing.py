"""Span tracing around the package's public layer entry points.

:func:`install` replaces each timed public function or method with a
wrapper that records one span per call: name, start, end, parent span
and request id.  Each wrapped name is patched in every loaded module
that holds it, because callers import functions by name (the builder
imports ``all_single_replacements`` into its own namespace).  Spans
live in memory and are written once, at the end, by the caller.

Self time is a span's duration minus the time its child spans cover;
the per-name self times of one root span therefore sum to the root's
duration, which is how the build workloads check their attribution.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from common import percentile

#: Every per-layer metric the traced run reports, with its unit.  The
#: order matches ``per_layer`` in ``BENCHMARK.json``.
PER_LAYER: List[Tuple[str, str]] = [
    ("builder.context_s", "s"),
    ("builder.step1_s", "s"),
    ("builder.step1_calls", "count"),
    ("builder.step2_s", "s"),
    ("builder.step3_s", "s"),
    ("builder.self_s", "s"),
    ("planner.execute_s", "s"),
    ("planner.execute_calls", "count"),
    ("planner.queries", "count"),
    ("planner.unique", "count"),
    ("planner.cached", "count"),
    ("planner.repaired", "count"),
    ("planner.swept", "count"),
    ("planner.paired", "count"),
    ("planner.dedupe_ratio", "ratio"),
    ("planner.spec_execute_s", "s"),
    ("planner.spec_planned", "count"),
    ("planner.spec_hits", "count"),
    ("planner.spec_discards", "count"),
    ("planner.spec_hit_ratio", "ratio"),
    ("engine.search_s", "s"),
    ("engine.search_calls", "count"),
    ("engine.path_s", "s"),
    ("engine.path_calls", "count"),
    ("oracle.point_s", "s"),
    ("oracle.point_calls", "count"),
    ("oracle.sweep_s", "s"),
    ("oracle.sweep_calls", "count"),
    ("kernel.bfs_s", "s"),
    ("kernel.bfs_calls", "count"),
    ("kernel.bidir_s", "s"),
    ("kernel.bidir_pairs", "count"),
    ("kernel.pairs_c", "count"),
    ("kernel.pairs_numpy", "count"),
    ("kernel.sweeps_c", "count"),
    ("kernel.sweeps_numpy", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.entries", "count"),
    ("paths.constructed", "count"),
    ("paths.init_s", "s"),
    ("artifact.load_s", "s"),
    ("artifact.bytes", "bytes"),
    ("serve.recv_us_p50", "us"),
    ("serve.send_us_p50", "us"),
    ("serve.handle_point_us_p50", "us"),
    ("serve.handle_path_us_p50", "us"),
    ("serve.handle_batch_us_p50", "us"),
    ("serve.handle_delta_us_p50", "us"),
    ("serve.handle_self_us_p50", "us"),
    ("serve.stats_record_us_p50", "us"),
    ("serve.stats_record_us_p99", "us"),
    ("delta.apply_us_p50", "us"),
    ("delta.patch_us_p50", "us"),
    ("delta.migrate_us_p50", "us"),
    ("delta.migrate_us_p99", "us"),
    ("delta.survived", "count"),
    ("delta.evicted", "count"),
    ("delta.rechecked", "count"),
    ("delta.survive_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
]

#: Span names whose per-call durations are kept for percentiles.
_PERCENTILE_SPANS = frozenset(
    {
        "serve.recv",
        "serve.send",
        "serve.handle",
        "serve.stats_record",
        "delta.apply",
        "csr.snapshot",
        "delta.migrate",
    }
)

#: Spans recorded even while the window is closed (server start-up).
_ALWAYS_SPANS = frozenset({"artifact.load", "artifact.oracle"})

#: Span names that make up each reported self-time metric.
SELF_TIME_METRICS: Dict[str, Tuple[str, ...]] = {
    "builder.context_s": ("builder.context",),
    "builder.step1_s": ("builder.step1",),
    "builder.step2_s": ("builder.step2",),
    "builder.step3_s": ("builder.step3",),
    "builder.self_s": ("builder",),
    "planner.execute_s": ("planner.execute",),
    "planner.spec_execute_s": ("planner.spec_execute",),
    "engine.search_s": ("engine.search",),
    "engine.path_s": ("engine.path",),
    "oracle.point_s": ("oracle.point",),
    "oracle.sweep_s": ("oracle.sweep",),
    "kernel.bfs_s": ("kernel.bfs", "kernel.search"),
    "kernel.bidir_s": ("kernel.bidir", "kernel.bidir_batch"),
    "paths.init_s": ("paths.init",),
}

CALL_METRICS: Dict[str, Tuple[str, ...]] = {
    "builder.step1_calls": ("builder.step1",),
    "planner.execute_calls": ("planner.execute",),
    "engine.search_calls": ("engine.search",),
    "engine.path_calls": ("engine.path",),
    "oracle.point_calls": ("oracle.point",),
    "oracle.sweep_calls": ("oracle.sweep",),
    "kernel.bfs_calls": ("kernel.bfs",),
    "kernel.bidir_pairs": ("kernel.bidir",),
    "paths.constructed": ("paths.init",),
}


class _Agg:
    """Per-name totals; per-call arrays only for percentile spans."""

    __slots__ = ("calls", "total", "self_total", "durs", "selfs")

    def __init__(self, keep: bool) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0
        self.durs = array("d") if keep else None
        self.selfs = array("d") if keep else None


class _ThreadState:
    __slots__ = ("stack", "spans", "aggs", "request", "op")

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.spans: List[tuple] = []
        self.aggs: Dict[str, _Agg] = {}
        self.request = 0
        self.op: Optional[str] = None


#: Span records kept per thread; aggregates stay exact past this cap.
MAX_SPANS = 400_000


class Tracer:
    """In-memory span recorder with online self-time aggregation.

    ``recording`` opens and closes the measured window; spans outside
    it are not recorded (except server start-up spans).  At most
    :data:`MAX_SPANS` span records are kept per thread; the
    ``trace.dropped_spans`` counter counts the records not kept.
    """

    def __init__(self) -> None:
        self.recording = False
        self.counters: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def new_request(self) -> None:
        """Start a new request id on the calling thread."""
        st = self._state()
        st.request = next(self._ids)
        st.op = None

    def set_op(self, op: Optional[str]) -> None:
        """Tag the calling thread's current request with its op."""
        self._state().op = op

    def count(self, name: str, value: float = 1) -> None:
        """Add to a named counter (thread-safe)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def _close(self, st, name, sid, parent, t0, t1, self_time) -> None:
        dur = t1 - t0
        keys = (name,) if st.op is None else (name, f"{name}@{st.op}")
        for key in keys:
            agg = st.aggs.get(key)
            if agg is None:
                agg = st.aggs[key] = _Agg(name in _PERCENTILE_SPANS)
            agg.calls += 1
            agg.total += dur
            agg.self_total += self_time
            if agg.durs is not None:
                agg.durs.append(dur)
                agg.selfs.append(self_time)
        if len(st.spans) < MAX_SPANS:
            st.spans.append((sid, name, t0, t1, parent, st.request))
        else:
            self.count("trace.dropped_spans")

    def timed(self, name: str, fn: Callable, name_of: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to record one span per call while recording.

        ``name_of(args)`` may pick the span name per call.
        """
        tracer = self
        always = name in _ALWAYS_SPANS

        def wrapper(*args, **kwargs):
            if not (tracer.recording or always):
                return fn(*args, **kwargs)
            st = tracer._state()
            stack = st.stack
            frame = [next(tracer._ids), 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                span = name if name_of is None else name_of(args)
                tracer._close(st, span, frame[0], parent, t0, t1, dur - frame[1])

        functools.update_wrapper(wrapper, fn)
        return wrapper

    # -- patching ------------------------------------------------------
    def patch_attr(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` and remember the original for :meth:`uninstall`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def patch_method(self, cls, attr: str, name: str) -> None:
        """Wrap ``cls.attr`` if ``cls`` itself defines it."""
        fn = cls.__dict__.get(attr)
        if fn is not None:
            self.patch_attr(cls, attr, self.timed(name, fn))

    def patch_function(self, fn: Callable, name: str) -> None:
        """Wrap a module-level function in every loaded module holding it."""
        wrapped = self.timed(name, fn)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace or module is sys.modules.get(__name__):
                continue
            for attr, value in list(namespace.items()):
                if value is fn:
                    self.patch_attr(module, attr, wrapped)

    def uninstall(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------
    def aggregates(self) -> Dict[str, _Agg]:
        """Per-name aggregates merged across threads."""
        merged: Dict[str, _Agg] = {}
        for st in self._states:
            for key, agg in st.aggs.items():
                out = merged.get(key)
                if out is None:
                    out = merged[key] = _Agg(agg.durs is not None)
                out.calls += agg.calls
                out.total += agg.total
                out.self_total += agg.self_total
                if agg.durs is not None:
                    out.durs.extend(agg.durs)
                    out.selfs.extend(agg.selfs)
        return merged

    def spans(self) -> List[tuple]:
        """Every kept span record, ordered by start time."""
        out = [s for st in self._states for s in st.spans]
        out.sort(key=lambda s: s[2])
        return out


def install(tracer: Tracer, serving: bool) -> None:
    """Wrap the public entry points of every layer.

    ``serving`` adds the server-side layers (framing, dispatch, stats,
    artifact load, deltas).  The snapshot accessor ``csr_of`` is only
    wrapped then: a build calls it outside any delta, where it is not a
    layer this benchmark reports.
    """
    import repro.cli  # noqa: F401  (load every module that imports names)
    import repro.serve
    from repro.core import artifact, canonical, csr, delta, paths, query_batch
    from repro.ftbfs import oracle as ft_oracle
    from repro.replacement import base, dual, single

    tracer.patch_method(base.SourceContext, "__init__", "builder.context")
    tracer.patch_function(single.all_single_replacements, "builder.step1")
    tracer.patch_function(dual.pipi_replacement, "builder.step2")
    tracer.patch_function(dual.pid_replacement, "builder.step3")

    execute = query_batch.PointQueryBatch.__dict__["execute"]

    def planner_execute(batch):
        before = batch.stats
        try:
            return execute(batch)
        finally:
            if tracer.recording and not (batch._ns or "").startswith("spec:"):
                after = batch.stats
                for key, value in after.items():
                    tracer.count("planner." + key, value - before.get(key, 0))

    tracer.patch_attr(
        query_batch.PointQueryBatch,
        "execute",
        tracer.timed(
            "planner.execute",
            planner_execute,
            lambda args: "planner.spec_execute"
            if (args[0]._ns or "").startswith("spec:")
            else "planner.execute",
        ),
    )

    engines = {cls for cls in canonical.ENGINES.values() if isinstance(cls, type)}
    for cls in sorted(engines, key=lambda c: c.__name__):
        tracer.patch_method(cls, "search", "engine.search")
        tracer.patch_method(cls, "canonical_path", "engine.path")
    oracles = {getattr(cls, "oracle_class", None) for cls in engines} - {None}
    for cls in sorted(oracles, key=lambda c: c.__name__):
        tracer.patch_method(cls, "distance", "oracle.point")
        tracer.patch_method(cls, "distances_from", "oracle.sweep")
        tracer.patch_method(cls, "distances_bulk", "oracle.sweep")
    for cls in (csr.CSRGraph, csr.DeltaCSRGraph):
        tracer.patch_method(cls, "bfs", "kernel.bfs")
        tracer.patch_method(cls, "bfs_dists", "kernel.bfs")
        tracer.patch_method(cls, "search", "kernel.search")
        tracer.patch_method(cls, "bidir_distance", "kernel.bidir")
        tracer.patch_method(cls, "bidir_distances", "kernel.bidir_batch")
    tracer.patch_method(paths.Path, "__init__", "paths.init")

    if not serving:
        return
    tracer.patch_function(artifact.load_artifact, "artifact.load")
    tracer.patch_method(artifact.Artifact, "oracle", "artifact.oracle")
    tracer.patch_function(repro.serve.recv_msg, "serve.recv")
    tracer.patch_function(repro.serve.send_msg, "serve.send")
    tracer.patch_method(repro.serve.ServerStats, "record", "serve.stats_record")
    tracer.patch_method(ft_oracle.FTQueryOracle, "apply_delta", "delta.apply")
    tracer.patch_function(csr.csr_of, "csr.snapshot")
    tracer.patch_function(delta.migrate_cache, "delta.migrate")

    # A request starts when the server begins reading it; the wait for
    # its header is its own span, so recv self time is read + decode.
    recv = repro.serve.recv_msg  # the wrapper installed above
    exact = repro.serve._recv_exact
    header = repro.serve._LEN.size

    def recv_msg(sock):
        tracer.new_request()
        return recv(sock)

    waited = tracer.timed("serve.wait", exact)

    def recv_exact(sock, count):
        if count == header:
            return waited(sock, count)
        return exact(sock, count)

    tracer.patch_attr(repro.serve, "recv_msg", recv_msg)
    tracer.patch_attr(repro.serve, "_recv_exact", recv_exact)


def install_handle(tracer: Tracer, on_stats: Callable[[], None]) -> None:
    """Wrap ``QueryServer.handle``: one span per request, named by op.

    A ``stats`` request is the window marker: it calls ``on_stats``
    (which opens or closes the window) and is not itself recorded.
    """
    import repro.serve

    handle = repro.serve.QueryServer.__dict__["handle"]
    timed = tracer.timed("serve.handle", handle)

    def dispatch(server, request):
        op = request.get("op") if isinstance(request, dict) else None
        if op == "stats":
            on_stats()
            return handle(server, request)
        tracer.set_op(op if isinstance(op, str) else "unknown")
        return timed(server, request)

    tracer.patch_attr(repro.serve.QueryServer, "handle", dispatch)


def layer_metrics(aggs: Dict[str, _Agg], counters: Dict[str, float]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from span aggregates and counters.

    Layers that did no work report 0.  Counters carry what spans
    cannot: planner/cache/kernel/delta statistics, ``artifact.bytes``
    and ``trace.overhead_frac``, all filled in by the caller.
    """
    out: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = sum(aggs[n].self_total for n in names if n in aggs)
    for metric, names in CALL_METRICS.items():
        out[metric] = float(sum(aggs[n].calls for n in names if n in aggs))

    def us(key, q=0.5, self_time=False):
        a = aggs.get(key)
        if a is None or not a.durs:
            return 0.0
        return 1e6 * percentile(a.selfs if self_time else a.durs, q)

    out["serve.recv_us_p50"] = us("serve.recv", self_time=True)
    out["serve.send_us_p50"] = us("serve.send")
    for op in ("point", "path", "batch", "delta"):
        out[f"serve.handle_{op}_us_p50"] = us(f"serve.handle@{op}")
    out["serve.handle_self_us_p50"] = us("serve.handle", self_time=True)
    out["serve.stats_record_us_p50"] = us("serve.stats_record")
    out["serve.stats_record_us_p99"] = us("serve.stats_record", 0.99)
    out["delta.apply_us_p50"] = us("delta.apply@delta")
    out["delta.patch_us_p50"] = us("csr.snapshot@delta", self_time=True)
    out["delta.migrate_us_p50"] = us("delta.migrate@delta")
    out["delta.migrate_us_p99"] = us("delta.migrate@delta", 0.99)
    out["artifact.load_s"] = sum(
        aggs[n].total for n in ("artifact.load", "artifact.oracle") if n in aggs
    )

    for key, value in counters.items():
        if key in out:
            out[key] = float(value)
    q = out["planner.queries"]
    out["planner.dedupe_ratio"] = out["planner.unique"] / q if q else 0.0
    planned = out["planner.spec_planned"]
    out["planner.spec_hit_ratio"] = out["planner.spec_hits"] / planned if planned else 0.0
    looked = out["cache.hits"] + out["cache.misses"]
    out["cache.hit_ratio"] = out["cache.hits"] / looked if looked else 0.0
    moved = out["delta.survived"] + out["delta.evicted"]
    out["delta.survive_ratio"] = out["delta.survived"] / moved if moved else 0.0
    return out


def cache_counters(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, float]:
    """Snapshot-cache counter deltas under their per-layer names."""
    names = {
        "hits": "cache.hits",
        "misses": "cache.misses",
        "evictions": "cache.evictions",
        "spec_planned": "planner.spec_planned",
        "spec_hits": "planner.spec_hits",
        "spec_discards": "planner.spec_discards",
        "delta_survived": "delta.survived",
        "delta_evicted": "delta.evicted",
        "delta_rechecked": "delta.rechecked",
    }
    out = {metric: float(after.get(k, 0) - before.get(k, 0)) for k, metric in names.items()}
    out["cache.entries"] = float(after.get("entries", 0))
    return out


def dispatch_counters(stats: Optional[Dict[str, object]]) -> Dict[str, float]:
    """Kernel-tier dispatch counts (all 0 when no bulk kernel exists)."""
    s = stats or {}
    return {
        "kernel.pairs_c": float(s.get("pairs_c", 0) + s.get("pairs_c_mt", 0)),
        "kernel.pairs_numpy": float(
            s.get("pairs_dense", 0) + s.get("pairs_compact", 0) + s.get("pairs_cutover", 0)
        ),
        "kernel.sweeps_c": float(s.get("sweeps_c", 0)),
        "kernel.sweeps_numpy": float(s.get("sweeps_numpy", 0)),
    }


def self_time_sum(aggs: Dict[str, _Agg]) -> float:
    """Sum of self time over every recorded span name."""
    return sum(a.self_total for key, a in aggs.items() if "@" not in key)
