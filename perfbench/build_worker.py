"""One cold build in a fresh process, as ``repro build`` runs it.

Usage: ``build_worker.py GRAPH SPAWNED [--trace SPANS_OUT]``.

``SPAWNED`` is the parent's ``time.monotonic()`` just before it started
this process (the clock is system-wide), so set-up time covers
interpreter start, imports and graph generation.  The worker calls
``build_cons2ftbfs(graph, 0)`` with no engine argument and prints one
JSON line: timings, peak memory, the built edge set and, when traced,
the per-layer metrics (spans are written to ``SPANS_OUT``).
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv) -> int:
    graph_name, spawned = argv[0], float(argv[1])
    spans_out = argv[3] if len(argv) > 3 and argv[2] == "--trace" else None

    from common import use_sources

    use_sources()
    from workloads import graph_edges, make_graph

    from repro.core.bulk import kernel_dispatch_stats
    from repro.core.canonical import DEFAULT_ENGINE
    from repro.core.snapshot_cache import shared_cache
    from repro.ftbfs.cons2ftbfs import build_cons2ftbfs

    graph = make_graph(graph_name)
    setup_s = time.monotonic() - spawned

    build = build_cons2ftbfs
    tracer = None
    if spans_out is not None:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer, serving=False)
        build = tracer.timed("builder", build_cons2ftbfs)
        tracer.recording = True
    before = shared_cache().stats()
    t0 = time.perf_counter()
    structure = build(graph, 0)
    build_s = time.perf_counter() - t0
    after = shared_cache().stats()
    dispatch = kernel_dispatch_stats(graph)

    out = {
        "setup_s": setup_s,
        "build_s": build_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "structure_edges": structure.size,
        "edges": sorted(structure.edges),
        "graph_edges": len(graph_edges(graph)),
        "engine": DEFAULT_ENGINE,
        "c_kernel": c_kernel_state(),
        "dispatch": dispatch,
    }
    if tracer is not None:
        from tracing import cache_counters, dispatch_counters, layer_metrics, self_time_sum

        tracer.recording = False
        aggs = tracer.aggregates()
        counters = dict(tracer.counters)
        counters.update(cache_counters(before, after))
        counters.update(dispatch_counters(dispatch))
        out["layers"] = layer_metrics(aggs, counters)
        out["self_sum_s"] = self_time_sum(aggs)
        out["traced_build_s"] = aggs["builder"].total
        with open(spans_out, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "request"],
                    "spans": tracer.spans(),
                    "dropped": counters.get("trace.dropped_spans", 0),
                },
                fh,
            )
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


def c_kernel_state() -> str:
    """Whether the C kernel loaded in this process (without forcing it)."""
    from repro.core import ckernel

    state = ckernel._load_state
    if state is None:
        return "not attempted"
    return "loaded" if state[0] is not None else f"unavailable: {state[1]}"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
