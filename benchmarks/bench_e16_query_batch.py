"""E16 — batched point-query pipeline vs the per-pair scalar path.

The kernel made every restricted search pooled and allocation-free;
the feasibility *point queries* that dominate ``Cons2FTBFS`` stayed
scalar-per-pair.  This benchmark quantifies the batched point-query
pipeline (:mod:`repro.core.query_batch`) that replaced them:

**Feasibility workload** (the headline, enforced by CI).  For each
ladder entry, the construction's plannable step-2/3 feasibility probes
(:func:`repro.ftbfs.cons2ftbfs.feasibility_probes`) are answered three
ways, cold-cache each time:

* *batched (python)* — the plan → dedupe → grouped-execution
  pipeline under the ``lex-csr`` oracle with ``REPRO_C_KERNEL=off``:
  step-2 probes first try their zero-traversal step-1 certificates,
  the rest go through one
  :class:`~repro.core.query_batch.PointQueryBatch` execution
  (tree-repair fast path, then the pooled scalar loop) — the
  no-compiler path, informational;
* *batched (C)* — the identical pipeline under the same ``lex-csr``
  oracle with ``REPRO_C_KERNEL=on``, so the residue the tree repair
  leaves must execute in the compiled C multi-pair kernel (skipped,
  and recorded as such, on hosts where the C kernel cannot load);
* *per-pair scalar* — the identical probes looped through scalar
  ``oracle.distance`` point queries (the pre-batch code path, i.e.
  ``REPRO_QUERY_BATCH=0``'s behavior).

Each batched arm also records what the C kernel served
(:func:`repro.core.csr.kernel_dispatch_stats`), so the dispatch
decision is part of the persisted payload.  The C arm must meet
``REPRO_BENCH_MIN_BATCH_VS_SCALAR_C`` on *every* workload.

**Batch-size curve.**  ``distances_bulk`` (one fault set, one source,
many targets) against per-pair scalar queries across batch sizes — the
per-pair latency curve that shows where batching starts paying.

**End-to-end builds.**  ``build_cons2ftbfs`` wall time on the headline
workload across two arms — *batched* (the default pipeline: batched
step-2/3 target probes, sequential scalar step-3 ``d_restricted``
probes) and *scalar* (``REPRO_QUERY_BATCH=0``, the pre-batch
pipeline) — asserting byte-identical structures and recording which
kernel tier served each arm.

Environment knobs (used by CI's smoke run):

``REPRO_E16_SIZES``
    Comma list of ``kind:n:arg`` workloads, ``kind`` in
    ``chords`` (``arg`` = chord count) / ``er`` (``arg`` = edge
    probability).  Default ``chords:1000:300,er:1000:0.008`` — a
    sparse tree-plus-chords instance (deep canonical trees, the regime
    FT-BFS structures are built for) plus the E10 ER family.  The
    first entry is the headline workload of the build arms.
``REPRO_BENCH_MIN_BATCH_VS_SCALAR_C``
    Floor for the C arm, applied to every workload (default 0;
    asserted only when the C kernel is available — the nightly builds
    the extension and enforces 2.0; measured ≈2.6x ER / ≈4.5x chords
    at n=1000).
``REPRO_BENCH_ROUNDS``
    Best-of rounds per arm (default 2).
``REPRO_E16_SOURCES``
    Source count σ of the sharded multi-source build arm (default 4;
    the unit :mod:`repro.core.parallel` distributes across a process
    pool).
``REPRO_BENCH_JOBS`` / ``REPRO_BENCH_MIN_PARALLEL_SCALING``
    Worker-count axis and speedup floor of the parallel build arm
    (see :func:`_common.jobs_axis` / :func:`_common.scaling_floor`);
    the floor is applied only to job counts the host has cores for.
"""

import contextlib
import json
import os
import time

from repro.core import parallel
from repro.core.ckernel import c_kernel_available
from repro.core.csr import kernel_dispatch_stats
from repro.core.snapshot_cache import shared_cache
from repro.ftbfs.cons2ftbfs import build_cons2ftbfs, feasibility_probes
from repro.ftbfs.generic import build_ft_mbfs
from repro.replacement.base import SourceContext

from _common import (
    RESULTS_DIR,
    emit,
    emit_json,
    jobs_axis,
    parse_workloads,
    scaling_floor,
    table,
    workload_graph,
    workload_label,
)

BATCH_ENGINE = "lex-csr"


@contextlib.contextmanager
def _c_kernel(mode):
    """Pin ``REPRO_C_KERNEL`` for one timed arm (restored after)."""
    prev = os.environ.get("REPRO_C_KERNEL")
    os.environ["REPRO_C_KERNEL"] = mode
    try:
        yield
    finally:
        if prev is None:
            os.environ.pop("REPRO_C_KERNEL", None)
        else:
            os.environ["REPRO_C_KERNEL"] = prev


def _sizes():
    """The workload ladder, via the shared benchmark grammar.

    ``REPRO_E16_SIZES`` accepts every :func:`_common.parse_workload`
    form, so topology-corpus graphs (``topo:abilene.graphml``,
    ``topo:fattree:k=4``) plug into this benchmark unchanged.
    """
    return parse_workloads("REPRO_E16_SIZES", "chords:1000:300,er:1000:0.008")


def _graph(kind, n, arg, seed=20):
    return workload_graph(kind, n, arg, seed=seed)


def _rounds():
    return max(1, int(os.environ.get("REPRO_BENCH_ROUNDS", "2")))


def _time_batched(ctx, probes):
    """Answer every probe through the batched pipeline (cold cache)."""
    shared_cache().clear()
    source = ctx.source
    t0 = time.perf_counter()
    batch = ctx.query_batch()
    add = batch.add
    certified = 0
    for v, faults, certs in probes:
        if certs is not None:
            upper, lower = certs
            # Step-1 certificates (see cons2ftbfs._plan_vertex): a
            # surviving replacement path answers the probe outright.
            if not upper.has_edge(*faults[1]) or not lower.has_edge(*faults[0]):
                certified += 1
                continue
        add(source, v, faults)
    batch.execute()
    elapsed = time.perf_counter() - t0
    return elapsed, certified, batch.stats


def _time_scalar(ctx, probes):
    """Answer every probe with per-pair scalar point queries (cold)."""
    shared_cache().clear()
    distance = ctx.oracle.distance
    source = ctx.source
    t0 = time.perf_counter()
    for v, faults, _certs in probes:
        distance(source, v, faults)
    return time.perf_counter() - t0


def test_e16_feasibility_workload(benchmark):
    rounds = _rounds()
    have_c = c_kernel_available()
    rows = []
    entries = []
    for kind, n, arg in _sizes():
        g = _graph(kind, n, arg)
        n = n if n is not None else g.n  # topo workloads resolve n late
        shared_cache().clear()
        ctx = SourceContext(g, 0, BATCH_ENGINE)
        probes = feasibility_probes(ctx)  # runs step 1 once (untimed)
        best_b = best_s = best_c = float("inf")
        stats = stats_c = None
        dispatch = {}
        for _ in range(rounds):
            with _c_kernel("off"):  # python arm: C dispatch pinned off
                kernel_dispatch_stats(g, reset=True)
                elapsed, certified, stats = _time_batched(ctx, probes)
                dispatch["python"] = kernel_dispatch_stats(g)
            best_b = min(best_b, elapsed)
            if have_c:
                # The same probes through the same oracle with C
                # required; _time_batched clears the cache per arm, so
                # neither arm sees the other's answers.
                with _c_kernel("on"):
                    kernel_dispatch_stats(g, reset=True)
                    elapsed, _, stats_c = _time_batched(ctx, probes)
                    dispatch["c"] = kernel_dispatch_stats(g)
                best_c = min(best_c, elapsed)
            best_s = min(best_s, _time_scalar(ctx, probes))
        speedup = best_s / best_b
        speedup_c = best_s / best_c if have_c else None
        label = workload_label(kind, n, arg)
        rows.append(
            [
                label,
                len(probes),
                f"{1000.0 * best_s:.1f}",
                f"{1000.0 * best_b:.1f}",
                f"{speedup:.2f}x",
                f"{1000.0 * best_c:.1f}" if have_c else "n/a",
                f"{speedup_c:.2f}x" if have_c else "n/a",
            ]
        )
        entries.append(
            {
                "kind": kind,
                "n": n,
                "arg": arg,
                "m": g.m,
                "probes": len(probes),
                "certified": certified,
                "batched_seconds": best_b,
                "scalar_seconds": best_s,
                "speedup": speedup,
                "c_seconds": best_c if have_c else None,
                "speedup_c": speedup_c,
                "c_vs_python": (
                    best_b / best_c if have_c else None
                ),
                "executor_stats": stats,
                "executor_stats_c": stats_c,
                # Which kernel tier actually served each batched arm
                # (auto-dispatch made observable).
                "kernel_dispatch": dispatch,
            }
        )
    body = table(
        [
            "workload",
            "probes",
            "per-pair (ms)",
            "python (ms)",
            "speedup",
            "C (ms)",
            "speedup",
        ],
        rows,
    )
    body += (
        "\nCons2FTBFS step-2/3 feasibility probes answered via the "
        "\nbatched pipeline (python arm: REPRO_C_KERNEL=off; C arm: "
        "\nREPRO_C_KERNEL=on) vs per-pair scalar oracle.distance; "
        f"\nbest of {_rounds()} rounds, snapshot cache cleared per arm."
    )
    emit("E16", "batched feasibility checks vs per-pair scalar", body)
    headline = entries[0]
    emit_json(
        "e16",
        {
            "experiment": "e16_query_batch",
            "engine": BATCH_ENGINE,
            "c_engine": BATCH_ENGINE if have_c else None,
            "rounds": _rounds(),
            "workloads": entries,
            "headline": headline,
            "required_min_speedup_c": float(
                os.environ.get("REPRO_BENCH_MIN_BATCH_VS_SCALAR_C", "0")
            ),
        },
    )
    min_c = float(os.environ.get("REPRO_BENCH_MIN_BATCH_VS_SCALAR_C", "0"))
    if min_c and have_c:
        for entry in entries:
            assert entry["speedup_c"] >= min_c, (
                f"C-kernel feasibility checks only "
                f"{entry['speedup_c']:.2f}x faster than per-pair scalar "
                f"on {entry['kind']} n={entry['n']} (required {min_c}x "
                f"on every workload)"
            )
    kind, n, arg = _sizes()[0]
    if kind == "topo":  # corpus graphs are already mini-sized
        g_small = _graph(kind, n, arg)
    else:
        g_small = _graph(
            kind, min(n, 200), arg if kind == "er" else min(int(arg), 200)
        )
    ctx_small = SourceContext(g_small, 0, BATCH_ENGINE)
    probes_small = feasibility_probes(ctx_small)
    benchmark.pedantic(
        lambda: _time_batched(ctx_small, probes_small), rounds=1, iterations=1
    )


def test_e16_batch_size_curve(benchmark):
    kind, n, arg = _sizes()[0]
    g = _graph(kind, n, arg)
    n = n if n is not None else g.n
    shared_cache().clear()
    ctx = SourceContext(g, 0, BATCH_ENGINE)
    oracle = ctx.oracle
    tree_vertices = [v for v in ctx.tree.vertices() if v != ctx.source]
    edges = sorted(g.edges())
    faults = (edges[len(edges) // 3], edges[2 * len(edges) // 3])
    rows = []
    curve = []
    for size in (1, 4, 16, 64, 256, 1024):
        targets = [tree_vertices[i % len(tree_vertices)] for i in range(size)]
        pairs = [(ctx.source, t) for t in targets]
        shared_cache().clear()
        t0 = time.perf_counter()
        bulk = oracle.distances_bulk(pairs, faults)
        t_bulk = time.perf_counter() - t0
        shared_cache().clear()
        t0 = time.perf_counter()
        scalar = [oracle.distance(s, t, faults) for s, t in pairs]
        t_scalar = time.perf_counter() - t0
        assert bulk == scalar
        rows.append(
            [
                size,
                f"{1e6 * t_bulk / size:.1f}",
                f"{1e6 * t_scalar / size:.1f}",
            ]
        )
        curve.append(
            {
                "batch_size": size,
                "bulk_us_per_pair": 1e6 * t_bulk / size,
                "scalar_us_per_pair": 1e6 * t_scalar / size,
            }
        )
    emit(
        "E16-batch-curve",
        "per-pair latency vs batch size (distances_bulk)",
        table(["batch size", "bulk (us/pair)", "scalar (us/pair)"], rows),
    )
    path = emit_json("e16_curve", {"workload": [kind, n, arg], "curve": curve})
    assert path.exists()
    benchmark.pedantic(
        lambda: oracle.distances_bulk(
            [(ctx.source, t) for t in tree_vertices[:64]], faults
        ),
        rounds=1,
        iterations=1,
    )


#: The two end-to-end build arms: (label, REPRO_QUERY_BATCH).
#: ``batched`` is the default pipeline, ``scalar`` the pre-batch one.
BUILD_ARMS = [
    ("batched", "1"),
    ("scalar", "0"),
]


def test_e16_end_to_end_build(benchmark):
    kind, n, arg = _sizes()[0]  # the headline workload (chords n=1000)
    g = _graph(kind, n, arg)
    n = n if n is not None else g.n
    times = {}
    sizes = {}
    dispatch = {}
    for label, qb in BUILD_ARMS:
        os.environ["REPRO_QUERY_BATCH"] = qb
        try:
            best = float("inf")
            for _ in range(_rounds()):
                shared_cache().clear()
                kernel_dispatch_stats(g, reset=True)
                t0 = time.perf_counter()
                h = build_cons2ftbfs(g, 0, engine=BATCH_ENGINE)
                best = min(best, time.perf_counter() - t0)
            times[label] = best
            sizes[label] = frozenset(h.edges)
            # One cold build's kernel-tier dispatch (which tier served
            # the arm).
            dispatch[label] = kernel_dispatch_stats(g)
        finally:
            os.environ.pop("REPRO_QUERY_BATCH", None)
    assert len(set(sizes.values())) == 1, (
        "batched / scalar builds must be byte-identical"
    )
    scalar = times["scalar"]
    rows = [
        [label, f"{times[label]:.3f}", f"{scalar / times[label]:.2f}x"]
        for label, _qb in BUILD_ARMS
    ]
    emit(
        "E16-build",
        f"end-to-end build_cons2ftbfs arms ({workload_label(kind, n, arg)})",
        table(["arm", "seconds", "vs scalar"], rows),
    )
    emit_json(
        "e16_build",
        {
            "experiment": "e16_end_to_end_build",
            "workload": [kind, n, arg],
            "engine": BATCH_ENGINE,
            "rounds": _rounds(),
            "arms": {
                label: {
                    "seconds": times[label],
                    "speedup_vs_scalar": scalar / times[label],
                    "kernel_dispatch": dispatch[label],
                }
                for label, _qb in BUILD_ARMS
            },
        },
    )
    benchmark.pedantic(
        lambda: build_cons2ftbfs(g, 0, engine=BATCH_ENGINE),
        rounds=1,
        iterations=1,
    )


def test_e16_parallel_build(benchmark):
    """Sharded σ-source build across the jobs axis, bit-identity enforced.

    Times the same ``build_ft_mbfs`` workload (σ sources ×
    ``build_cons2ftbfs``) at every worker count of
    :func:`_common.jobs_axis`, asserts every parallel arm's structure
    is *bit-identical* to ``jobs=1``, and applies
    ``REPRO_BENCH_MIN_PARALLEL_SCALING`` to arms the host actually has
    cores for (a 1-core box records the axis as informational instead
    of failing on pool overhead).  The records merge into
    ``BENCH_e16.json`` under a ``"parallel"`` key so scaling history
    rides the same artifact as the batching history.
    """
    kind, n, arg = _sizes()[0]
    g = _graph(kind, n, arg)
    n = n if n is not None else g.n
    sigma = max(2, int(os.environ.get("REPRO_E16_SOURCES", "4")))
    sources = list(range(min(sigma, g.n)))
    rounds = _rounds()
    axis = jobs_axis()
    floor = scaling_floor()
    cores = os.cpu_count() or 1
    rows = []
    arms = []
    baseline_edges = None
    baseline_seconds = None
    for j in axis:
        best = float("inf")
        best_stats = {}
        for _ in range(rounds):
            shared_cache().clear()
            t0 = time.perf_counter()
            h = build_ft_mbfs(
                g, sources, 2, builder=build_cons2ftbfs,
                jobs=j, engine=BATCH_ENGINE,
            )
            elapsed = time.perf_counter() - t0
            if elapsed < best:
                best = elapsed
                best_stats = parallel.last_run_stats() if j > 1 else {}
        if baseline_edges is None:
            baseline_edges = h.edges
            baseline_seconds = best
        else:
            assert h.edges == baseline_edges, (
                f"jobs={j} build diverged from the jobs=1 structure"
            )
        scaling = baseline_seconds / best if best else 0.0
        effective = best_stats.get("effective_jobs", 1)
        degraded = best_stats.get("degraded")
        enforced = bool(floor) and j > 1 and cores >= j and not degraded
        rows.append(
            [
                j,
                effective,
                f"{best:.3f}",
                f"{scaling:.2f}x",
                f"{1000.0 * best_stats.get('merge_seconds', 0.0):.1f}",
                "yes" if enforced else "no",
            ]
        )
        arms.append(
            {
                "jobs": j,
                "effective_jobs": effective,
                "seconds": best,
                "scaling_vs_serial": scaling,
                "merge_seconds": best_stats.get("merge_seconds", 0.0),
                "degraded": degraded,
                "floor_enforced": enforced,
            }
        )
        if enforced:
            assert scaling >= floor, (
                f"σ={sigma} sharded build scaled only {scaling:.2f}x at "
                f"jobs={j} on a {cores}-core host (required {floor}x)"
            )
    body = table(
        ["jobs", "effective", "seconds", "scaling", "merge (ms)", "floor"],
        rows,
    )
    body += (
        f"\nσ={sigma}-source build_ft_mbfs(cons2) on "
        f"{workload_label(kind, n, arg)}, "
        f"\nbest of {rounds} rounds; structures bit-identical across "
        f"arms; host has {cores} core(s), floor={floor or 'off'}."
    )
    emit("E16-parallel", "sharded multi-source build scaling", body)
    record = {
        "workload": [kind, n, arg],
        "sources": sigma,
        "cores": cores,
        "rounds": rounds,
        "floor": floor,
        "arms": arms,
    }
    # Merge into the E16 artifact the feasibility test wrote earlier in
    # this run (or a previous one) rather than clobbering it.
    path = RESULTS_DIR / "BENCH_e16.json"
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload["parallel"] = record
    emit_json("e16", payload)
    benchmark.pedantic(
        lambda: build_ft_mbfs(
            g, sources[:2], 2, builder=build_cons2ftbfs,
            jobs=1, engine=BATCH_ENGINE,
        ),
        rounds=1,
        iterations=1,
    )
