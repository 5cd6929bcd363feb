"""Command-line interface: build, verify and query structures from the shell.

Examples::

    python -m repro build  --graph er:n=60,p=0.08,seed=42 --builder cons2 \
                           --source 0 --engine lex-csr --out h.json
    python -m repro verify h.json --exhaustive
    python -m repro query  h.json --target 37 --faults 0-29,1-22
    python -m repro info   h.json
    python -m repro lowerbound --n 150 --f 2 --check 25
    python -m repro bench  --graph er:n=120,p=0.05,seed=7 --builder cons2 \
                           --engine all --rounds 3
    python -m repro build  --graph er:n=200,p=0.035,seed=3 --out h.bin
    python -m repro serve  h.bin --port 7070

``build --out h.bin`` writes the mmap-loadable binary artifact
(``--format`` overrides the suffix rule) and ``serve`` answers point,
batch and replacement-path queries from it over a length-prefixed JSON
socket protocol — see ``docs/serving.md``.  ``verify``, ``query`` and
``info`` accept both serializations.  Set ``REPRO_RESULTS_DIR`` to
redirect every relative output path (structures, artifacts, ``bench
--json``) into a writable directory on read-only checkouts.

Engines (``--engine``): ``lex-csr`` (default; flat-array CSR kernel),
``lex`` (legacy layered reference),
``perturbed`` (paper-literal randomized weights),
plus the weighted family ``wlex`` / ``wlex-csr`` (deterministic
Dijkstra over real edge weights with an ECMP query surface — see
``docs/weighted.md``).  ``lex-csr`` runs its restricted searches,
full sweeps and multi-pair batches in the compiled C kernel whenever
it loads, and ``REPRO_C_KERNEL=on`` makes that a requirement (see
``docs/kernels.md``).  The weighted engines
compute weighted distances, so ``--engine all`` comparisons
(``bench``, ``scenarios``) deliberately leave them out: their report
bodies are only comparable to each other, not to the hop-count
engines; select them explicitly to sweep them (uniform-weight graphs
then reproduce the lex bodies bit-for-bit).
Builders answer their feasibility point queries through the batched
plan→dedupe→execute pipeline of :mod:`repro.core.query_batch`
(one C multi-pair call for the residue whenever the C kernel loads;
set ``REPRO_QUERY_BATCH=0`` to force per-pair scalar queries).  ``bench
--engine all`` times every hop engine on the same workload and
reports speedups against the legacy ``lex`` engine, the kernel tier
that actually served each arm's batched queries (auto-dispatch is
otherwise invisible — ``REPRO_C_KERNEL=auto`` accelerates ``lex-csr``
whenever the C kernel loads), plus the snapshot-cache
hit/miss/eviction counters of one cold build; the process-wide
snapshot cache (which lets builders share restricted-search results)
is cleared before every timed round so no engine is measured against
another's warm cache.  ``bench --sources K --jobs J`` times a σ=K
FT-MBFS build and adds a parallel arm per engine that re-runs it
sharded over a J-worker process pool (:mod:`repro.core.parallel`),
printing the effective jobs/threads, the speedup vs ``--jobs 1`` and
the merge overhead; on a 1-core host the parallel arm is skipped with
a note instead of reporting noise.

Graph specifications (``--graph``)::

    er:n=60,p=0.08,seed=1       Erdős–Rényi
    grid:rows=5,cols=8          grid
    torus:rows=5,cols=6         torus
    chords:n=60,chords=30,seed=1  random tree plus chords
    file:path.edges             edge-list file (see repro.core.io)
    topo:abilene.graphml        named topology (repro.core.topology):
    topo:fattree:k=4            a GraphML/edge-list file or a
                                fat-tree/ring/torus generator spec

``repro scenarios`` sweeps a failure-scenario blueprint (single-link,
dual-link, SRLG and rolling-maintenance fault scripts over a real
topology — see ``docs/scenarios.md``) against one or all canonical
engines in fresh-build and/or ``apply_delta`` execution mode,
asserting the differential bit-identity contract across every arm and
reporting per-scenario recovery metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.artifact import is_artifact, load_artifact, save_artifact
from repro.core.canonical import DEFAULT_ENGINE, ENGINES
from repro.core.errors import GraphError, ReproError, VerificationError
from repro.core.graph import Graph
from repro.core.io import load_graph, load_structure, resolve_out, save_structure
from repro.ftbfs import (
    FTQueryOracle,
    build_approx_ftmbfs,
    build_cons2ftbfs,
    build_dual_ftbfs_simple,
    build_generic_ftbfs,
    build_single_ftbfs,
    verify_structure,
    verify_structure_sampled,
)
from repro.generators import erdos_renyi, grid_graph, torus_graph, tree_plus_chords
from repro.lowerbound import (
    build_lower_bound_graph,
    check_witness,
    forced_edge_witnesses,
    theoretical_lower_bound,
)

BUILDERS: Dict[str, Callable] = {
    "cons2": lambda g, s, f, e: build_cons2ftbfs(g, s, engine=e),
    "simple": lambda g, s, f, e: build_dual_ftbfs_simple(g, s, engine=e),
    "single": lambda g, s, f, e: build_single_ftbfs(g, s, engine=e),
    "generic": lambda g, s, f, e: build_generic_ftbfs(g, s, f, engine=e),
    # The set-cover builder is oracle-driven; it has no canonical engine.
    "approx": lambda g, s, f, e: build_approx_ftmbfs(g, [s], f),
}

#: Builders that ignore the canonical engine entirely; the CLI refuses
#: to pretend an ``--engine`` choice affected them.
ENGINE_AGNOSTIC_BUILDERS = {"approx"}

#: Module-level single-source builders + fault budget per ``--builder``
#: name, for the σ-source sharded arm of ``repro bench`` (the lambdas
#: in ``BUILDERS`` cannot cross a process-pool boundary).
MBFS_BUILDERS: Dict[str, tuple] = {
    "cons2": (build_cons2ftbfs, 2),
    "simple": (build_dual_ftbfs_simple, 2),
    "single": (build_single_ftbfs, 1),
    "generic": (build_generic_ftbfs, None),  # budget comes from --f
}


def _hop_engines() -> List[str]:
    """Engine names ``--engine all`` expands to (hop semantics only).

    The weighted family (``wlex``/``wlex-csr``) answers in weighted
    distance, so its report bodies can never be identical to the hop
    engines' — cross-family sweeps would fail the differential check
    by construction, not by bug.  Weighted engines run when named
    explicitly.
    """
    return [
        name
        for name in sorted(ENGINES)
        if not getattr(ENGINES[name], "weighted", False)
    ]


def _mbfs_build(name: str, graph: Graph, sources, f: int, engine, jobs):
    """One σ-source FT-MBFS build for ``repro bench --sources K``."""
    from repro.ftbfs.generic import build_ft_mbfs

    func, budget = MBFS_BUILDERS[name]
    kwargs = {"engine": engine}
    if budget is None:
        budget = f
        kwargs["max_faults"] = f
    return build_ft_mbfs(
        graph, sources, budget, builder=func, jobs=jobs, **kwargs
    )


def parse_graph_spec(spec: str) -> Graph:
    """Materialize a ``kind:key=value,...`` graph specification."""
    if ":" not in spec:
        raise GraphError(f"graph spec {spec!r} must look like 'kind:args'")
    kind, _, argstr = spec.partition(":")
    if kind == "file":
        return load_graph(argstr)
    if kind == "topo":
        from repro.core.topology import load_topology

        return load_topology(argstr).graph
    kwargs: Dict[str, float] = {}
    if argstr:
        for item in argstr.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise GraphError(f"bad graph argument {item!r}")
            kwargs[key] = float(value) if "." in value else int(value)
    try:
        if kind == "er":
            return erdos_renyi(int(kwargs["n"]), float(kwargs["p"]),
                               seed=int(kwargs.get("seed", 0)))
        if kind == "grid":
            return grid_graph(int(kwargs["rows"]), int(kwargs["cols"]))
        if kind == "torus":
            return torus_graph(int(kwargs["rows"]), int(kwargs["cols"]))
        if kind == "chords":
            return tree_plus_chords(int(kwargs["n"]), int(kwargs["chords"]),
                                    seed=int(kwargs.get("seed", 0)))
    except KeyError as missing:
        raise GraphError(f"graph spec {spec!r} missing argument {missing}") from None
    raise GraphError(f"unknown graph kind {kind!r}")


def parse_faults(text: Optional[str]) -> List[tuple]:
    """Parse ``u-v,u-v,...`` fault lists."""
    if not text:
        return []
    out = []
    for item in text.split(","):
        a, _, b = item.partition("-")
        if not b:
            raise GraphError(f"bad fault {item!r}; expected 'u-v'")
        out.append((int(a), int(b)))
    return out


#: ``build --format auto`` picks the binary artifact for these suffixes.
ARTIFACT_SUFFIXES = (".bin", ".art", ".artifact")


def _out_format(fmt: str, out: str) -> str:
    """Resolve ``--format auto`` from the output suffix."""
    if fmt != "auto":
        return fmt
    return "artifact" if out.lower().endswith(ARTIFACT_SUFFIXES) else "json"


def _load_any(path: str):
    """Load either serialization: ``(structure, artifact-or-None)``.

    Every structure-consuming subcommand accepts both formats, so a
    precomputed artifact can be verified, queried and inspected with
    the same commands as a JSON structure.
    """
    if is_artifact(path):
        artifact = load_artifact(path)
        return artifact.structure(), artifact
    return load_structure(path), None


def cmd_build(args: argparse.Namespace) -> int:
    graph = parse_graph_spec(args.graph)
    builder = BUILDERS[args.builder]
    structure = builder(graph, args.source, args.f, args.engine)
    fmt = _out_format(args.format, args.out)
    if fmt == "artifact":
        out = save_artifact(structure, args.out)
    else:
        out = resolve_out(args.out)
        save_structure(structure, out)
    engine_label = (
        "n/a" if args.builder in ENGINE_AGNOSTIC_BUILDERS else args.engine
    )
    print(
        f"built {structure.builder}: n={graph.n} m={graph.m} "
        f"|H|={structure.size} f={structure.max_faults} "
        f"engine={engine_label} -> {out} ({fmt})"
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    structure, _ = _load_any(args.structure)
    try:
        if args.exhaustive:
            verify_structure(structure)
        else:
            verify_structure_sampled(structure, samples=args.samples)
    except VerificationError as err:
        print(f"INVALID: {err}")
        return 1
    mode = "exhaustive" if args.exhaustive else f"{args.samples} sampled fault sets"
    print(f"OK: structure verifies ({mode})")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    structure, artifact = _load_any(args.structure)
    if artifact is not None:
        oracle = artifact.oracle()
    else:
        oracle = FTQueryOracle(structure)
    faults = parse_faults(args.faults)
    source = args.source if args.source is not None else structure.sources[0]
    d = oracle.distance(source, args.target, faults)
    if d == float("inf"):
        print(f"dist({source} -> {args.target} | {faults}) = unreachable")
        return 0
    path = oracle.path(source, args.target, faults)
    shown = int(d) if float(d).is_integer() else d
    print(f"dist({source} -> {args.target} | {faults}) = {shown}")
    print("route:", "-".join(map(str, path.vertices)))
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    structure, artifact = _load_any(args.structure)
    g = structure.graph
    if artifact is not None:
        summary = artifact.summary()
        print(f"artifact:   {artifact.path} ({summary['nbytes']} bytes)")
        print(f"content:    {summary['content_hash']}")
        print(
            f"versions:   format={summary['format_version']} "
            f"abi={summary['abi_version']}"
        )
    print(f"builder:    {structure.builder}")
    print(f"graph:      n={g.n}, m={g.m}")
    print(f"sources:    {list(structure.sources)}")
    print(f"max faults: {structure.max_faults}")
    print(f"|E(H)|:     {structure.size} ({100.0 * structure.size / g.m:.1f}% of G)")
    print(f"exponent:   log_n |H| = {structure.density_exponent():.3f}")
    for key in ("max_new_edges", "new_ending_paths", "fallbacks"):
        if key in structure.stats:
            print(f"{key}: {structure.stats[key]}")
    return 0


def cmd_lowerbound(args: argparse.Namespace) -> int:
    inst = build_lower_bound_graph(args.n, args.f, sigma=args.sigma)
    print(
        f"G*_{args.f}: n={inst.graph.n} m={inst.graph.m} d={inst.d} "
        f"sigma={args.sigma}"
    )
    print(f"forced bipartite edges: {inst.forced_lower_bound()}")
    print(
        f"theory: Omega(sigma^(1-1/(f+1)) n^(2-1/(f+1))) = "
        f"{theoretical_lower_bound(args.n, args.f, args.sigma):.0f}"
    )
    if args.check:
        witnesses = forced_edge_witnesses(inst, limit=args.check)
        ok = sum(check_witness(inst, e, s, f) for e, s, f in witnesses)
        print(f"certificates checked: {ok}/{len(witnesses)} hold")
        if ok != len(witnesses):
            return 1
    return 0


def _kernel_tier_label(engine: str, stats: Optional[Dict[str, int]]) -> str:
    """Which kernel tier actually served an arm's searches and batches.

    Auto-dispatch (``REPRO_C_KERNEL``) makes the executing tier
    invisible in the timings, so ``repro bench`` derives it from the
    snapshot's C dispatch counters after the build.  Engines that never
    touch the C kernel report their fixed tier.
    """
    if engine == "lex":
        return "python (legacy)"
    if engine == "wlex":
        return "python (weighted heap)"
    if engine == "wlex-csr":
        return "csr (weighted dial; reference heap otherwise)"
    stats = stats or {}
    served = []
    if stats.get("pairs_c_mt"):
        served.append("c-mt")
    if any(stats.get(key) for key in ("searches_c", "full_sweeps_c", "pairs_c")):
        served.append("c")
    return "+".join(served) if served else "csr"


def cmd_bench(args: argparse.Namespace) -> int:
    """Time a builder under one or all canonical engines.

    Lets users compare the flat-array CSR kernel against the legacy
    reference on their own graphs without touching the benchmarks
    directory.  Reports best-of-``--rounds`` wall times, the speedup
    relative to the legacy ``lex`` engine when it is included, and the
    kernel tier that actually served each arm's batched point queries.

    ``--sources K`` switches the timed workload to a σ=K FT-MBFS
    build (sources ``0..K-1``), the unit :mod:`repro.core.parallel`
    can shard; ``--jobs J`` then adds a parallel arm per engine that
    re-times the same build with a J-worker pool and reports the
    speedup and merge overhead next to the serial time.  On a 1-core
    host the parallel arm is skipped with a note instead of reporting
    noise.  Each arm also prints the effective jobs and C kernel
    thread counts actually in force.
    """
    import json
    import time

    from repro.core import parallel
    from repro.core.ckernel import c_thread_count
    from repro.core.csr import kernel_dispatch_stats
    from repro.core.snapshot_cache import shared_cache

    graph = parse_graph_spec(args.graph)
    builder = BUILDERS[args.builder]
    if args.builder in ENGINE_AGNOSTIC_BUILDERS:
        # Timing it once per engine would present measurement noise as
        # engine speedups — refuse instead of fabricating a comparison.
        print(
            f"error: builder {args.builder!r} is oracle-driven and ignores "
            "the canonical engine; nothing to compare",
            file=sys.stderr,
        )
        return 2
    sigma = max(1, args.sources)
    if sigma > 1 and args.builder not in MBFS_BUILDERS:
        print(
            f"error: builder {args.builder!r} has no multi-source form; "
            "--sources requires one of "
            f"{', '.join(sorted(MBFS_BUILDERS))}",
            file=sys.stderr,
        )
        return 2
    source_list = list(range(min(sigma, graph.n)))
    jobs = parallel.effective_jobs(args.jobs)
    c_threads = c_thread_count()
    multicore = (os.cpu_count() or 1) > 1
    parallel_wanted = jobs > 1 and sigma > 1

    def timed_build(engine: str, jobs_val: int):
        """One cold arm build: σ-source MBFS or the single-source builder."""
        if sigma > 1:
            return _mbfs_build(
                args.builder, graph, source_list, args.f, engine, jobs_val
            )
        return builder(graph, args.source, args.f, engine)

    engines = _hop_engines() if args.engine == "all" else [args.engine]
    rounds = max(1, args.rounds)
    results = []
    for engine in engines:
        best = float("inf")
        size = None
        cache_stats = None
        tier_stats = None
        for _ in range(rounds):
            # Cold-cache timing: without this, later engines would be
            # served from earlier engines' shared snapshot-cache entries
            # and the comparison would measure cache hits, not engines.
            shared_cache().clear()
            shared_cache().reset_stats()
            kernel_dispatch_stats(graph, reset=True)
            t0 = time.perf_counter()
            structure = timed_build(engine, 1)
            best = min(best, time.perf_counter() - t0)
            size = structure.size
            # One cold build's worth of snapshot-cache traffic and
            # kernel-tier dispatch (each round starts from
            # clear+reset, so the last capture is representative,
            # not cumulative).
            cache_stats = shared_cache().stats()
            tier_stats = kernel_dispatch_stats(graph)
        par: Dict[str, object] = {
            "jobs": jobs,
            "c_threads": c_threads,
        }
        if not parallel_wanted:
            par["skipped"] = (
                "jobs=1 (serial)" if jobs <= 1 else "sources=1 (nothing to shard)"
            )
        elif not multicore:
            # A pool on a 1-core box measures scheduler thrash, not the
            # sharding; skip cleanly instead of reporting noise.
            par["skipped"] = "1-core host"
        else:
            par_best = float("inf")
            par_stats: Dict[str, object] = {}
            for _ in range(rounds):
                shared_cache().clear()
                shared_cache().reset_stats()
                kernel_dispatch_stats(graph, reset=True)
                t0 = time.perf_counter()
                par_structure = timed_build(engine, jobs)
                elapsed = time.perf_counter() - t0
                if elapsed < par_best:
                    par_best = elapsed
                    par_stats = parallel.last_run_stats()
            par["seconds"] = par_best
            par["speedup_vs_serial"] = best / par_best if par_best else None
            par["effective_jobs"] = par_stats.get("effective_jobs", 1)
            par["merge_seconds"] = par_stats.get("merge_seconds", 0.0)
            par["degraded"] = par_stats.get("degraded")
            par["identical"] = par_structure.edges == structure.edges
        results.append(
            {
                "engine": engine,
                "seconds": best,
                "structure_size": size,
                "snapshot_cache": cache_stats,
                "kernel_dispatch": tier_stats,
                "kernel_tier": _kernel_tier_label(engine, tier_stats),
                "parallel": par,
            }
        )
    baseline = next(
        (r["seconds"] for r in results if r["engine"] == "lex"), None
    )
    workload = f"σ={sigma} sources, " if sigma > 1 else ""
    print(
        f"bench {args.builder} on n={graph.n} m={graph.m} "
        f"({workload}best of {rounds} rounds)"
    )
    for r in results:
        speedup = (
            f"{baseline / r['seconds']:6.2f}x vs lex" if baseline else ""
        )
        r["speedup_vs_lex"] = baseline / r["seconds"] if baseline else None
        print(
            f"  {r['engine']:<10s} {1000.0 * r['seconds']:9.1f} ms  "
            f"|H|={r['structure_size']}  {speedup}"
        )
        tier = r["kernel_tier"]
        ds = r["kernel_dispatch"]
        if ds and any(ds.values()):
            print(
                f"             kernel: {tier} — searches "
                f"{ds.get('searches_c', 0)} c, full sweeps "
                f"{ds.get('full_sweeps_c', 0)} c; pairs "
                f"{ds.get('pairs_c_mt', 0)} c-mt / {ds['pairs_c']} c"
            )
        else:
            print(f"             kernel: {tier}")
        pr = r.get("parallel") or {}
        if "skipped" in pr:
            print(
                f"             parallel: skipped ({pr['skipped']}); "
                f"c-threads {pr['c_threads']}"
            )
        elif "seconds" in pr:
            note = ""
            if pr.get("degraded"):
                note = f", DEGRADED: {pr['degraded']}"
            elif not pr.get("identical", True):
                note = ", MISMATCH vs jobs=1"
            print(
                f"             parallel: jobs {pr['jobs']} "
                f"(effective {pr['effective_jobs']}), "
                f"c-threads {pr['c_threads']} — "
                f"{1000.0 * pr['seconds']:.1f} ms, "
                f"{pr['speedup_vs_serial']:.2f}x vs jobs=1, "
                f"merge {1000.0 * pr['merge_seconds']:.1f} ms{note}"
            )
        cs = r["snapshot_cache"]
        if cs is not None:
            total = cs["hits"] + cs["misses"]
            rate = 100.0 * cs["hits"] / total if total else 0.0
            print(
                f"             cache: {cs['hits']} hits / {cs['misses']} "
                f"misses ({rate:.0f}% hit rate), {cs['evictions']} evicted, "
                f"{cs['oversize']} oversize, {cs['entries']} live entries"
            )
    if args.json:
        payload = {
            "builder": args.builder,
            "graph": {"spec": args.graph, "n": graph.n, "m": graph.m},
            "rounds": rounds,
            "sources": sigma,
            "jobs": jobs,
            "c_threads": c_threads,
            "results": results,
        }
        json_out = resolve_out(args.json)
        with open(json_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {json_out}")
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    """Sweep a failure-scenario blueprint and report recovery metrics.

    Expands the blueprint deterministically (see
    :mod:`repro.core.scenario`), replays every scenario under the
    requested engine(s) and execution mode(s), asserts the
    differential contract — every arm's deterministic report body must
    be bit-identical — and prints per-scenario replacement-path
    stretch, affected/disconnected pair counts and structural delta
    cost.  ``--engine all`` covers every hop engine; ``--mode both``
    (the default) runs fresh-build and ``apply_delta`` arms.
    ``--json`` writes the merged report (one deterministic body + one
    volatile ``runs`` block per arm).
    """
    import json

    from repro.analysis import format_table
    from repro.core.scenario import (
        assert_identical_reports,
        load_blueprint,
        report_signature,
        strip_volatile,
        sweep_blueprint,
    )

    blueprint = load_blueprint(args.blueprint)
    topo = blueprint.topology()
    engines = _hop_engines() if args.engine == "all" else [args.engine]
    modes = ("fresh", "delta") if args.mode == "both" else (args.mode,)
    reports = []
    labels = []
    for engine in engines:
        for mode in modes:
            reports.append(
                sweep_blueprint(
                    blueprint, engine=engine, mode=mode, jobs=args.jobs
                )
            )
            labels.append(f"{engine}/{mode}")
    assert_identical_reports(reports, labels)
    body = strip_volatile(reports[0])
    print(
        f"blueprint {blueprint.name}: topology {blueprint.topology_ref} "
        f"(n={topo.n} m={topo.m}), {len(body['scenarios'])} scenarios, "
        f"sources {[s['name'] for s in body['sources']]}"
    )
    rows = []
    for entry in body["scenarios"]:
        stretch = entry["max_stretch"]
        rows.append([
            entry["id"],
            entry["kind"],
            len(entry["steps"]),
            entry["max_concurrent_faults"],
            entry["affected_pairs"],
            entry["disconnected_pairs"],
            f"{stretch:.2f}" if stretch is not None else "-",
            entry["delta_edits"],
        ])
    print(format_table(
        ["scenario", "kind", "steps", "faults", "affected",
         "disconnected", "max stretch", "delta edits"],
        rows,
    ))
    if "builder" in body:
        b = body["builder"]
        if "skipped" in b:
            print(
                f"builder {b['name']} (budget {b['budget']}): skipped "
                f"({b['skipped']}; FT-BFS structures certify hop "
                f"distances, not weighted ones)"
            )
        else:
            sizes = sorted(s["size"] for s in b["structures"].values())
            print(
                f"builder {b['name']} (budget {b['budget']}): |H| per source "
                f"{sizes}, {b['verified_steps']} within-budget scenario steps "
                f"verified via FTQueryOracle"
            )
    for report, label in zip(reports, labels):
        run = report["run"]
        print(
            f"  {label:<16s} {1000.0 * run['seconds']:8.1f} ms "
            f"(jobs {run['effective_jobs']})"
        )
    print(
        f"differential: {len(reports)} arm(s) bit-identical "
        f"(body {report_signature(reports[0])[:16]})"
    )
    if args.json:
        payload = dict(body)
        payload["runs"] = [r["run"] for r in reports]
        json_out = resolve_out(args.json)
        with open(json_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {json_out}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve point/batch/path queries from a saved structure or artifact.

    Artifacts are mmap-loaded and preseeded (no traversal for unfaulted
    queries); JSON structures are rebuilt into an oracle first.  The
    process runs until a client sends ``shutdown`` or the user
    interrupts it; either way the per-endpoint stats are printed on the
    way out.
    """
    from repro.serve import QueryServer, format_stats

    structure, artifact = _load_any(args.structure)
    engine = args.engine
    if artifact is not None:
        oracle = artifact.oracle(engine=engine)
        origin = f"artifact {artifact.path} ({artifact.nbytes} bytes, mmap)"
    else:
        oracle = FTQueryOracle(structure, engine=engine)
        origin = f"structure {args.structure} (rebuilt in-process)"
    server = QueryServer(
        oracle,
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        artifact=artifact,
    )
    address = server.start()
    g = structure.graph
    print(f"serving {structure.builder}: n={g.n} |H|={structure.size} "
          f"f={structure.max_faults} engine={engine or DEFAULT_ENGINE}")
    print(f"  from {origin}")
    if isinstance(address, str):
        print(f"  listening on unix socket {address}")
    else:
        print(f"  listening on {address[0]}:{address[1]}")
    sys.stdout.flush()
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        server.shutdown()
    print(format_stats(server.stats.snapshot()))
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run one (or all) of the E1-E19 experiment benchmarks via pytest."""
    import pathlib

    import pytest as _pytest

    bench_dir = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
    if not bench_dir.is_dir():
        print(f"error: benchmark directory not found at {bench_dir}", file=sys.stderr)
        return 2
    if args.id.lower() == "all":
        targets = [str(bench_dir)]
    else:
        matches = sorted(bench_dir.glob(f"bench_{args.id.lower()}_*.py"))
        if not matches:
            print(f"error: no benchmark matches id {args.id!r}", file=sys.stderr)
            return 2
        targets = [str(m) for m in matches]
    rc = _pytest.main(targets + ["--benchmark-only", "-q", "-s"])
    return int(rc)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault-tolerant BFS structures (Parter, PODC 2015)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a structure and save it")
    p_build.add_argument("--graph", required=True, help="graph spec (see module docs)")
    p_build.add_argument("--builder", choices=sorted(BUILDERS), default="cons2")
    p_build.add_argument("--source", type=int, default=0)
    p_build.add_argument("--f", type=int, default=2, help="fault budget (generic/approx)")
    p_build.add_argument(
        "--engine",
        choices=sorted(ENGINES),
        default=DEFAULT_ENGINE,
        help=(
            "canonical shortest-path engine (default: %(default)s); "
            "feasibility checks run through the batched point-query "
            "pipeline"
        ),
    )
    p_build.add_argument("--out", required=True)
    p_build.add_argument(
        "--format",
        choices=("auto", "json", "artifact"),
        default="auto",
        help=(
            "output serialization: 'artifact' = mmap-loadable binary for "
            "repro serve, 'json' = repro.core.io structure JSON; 'auto' "
            "(default) picks artifact for .bin/.art/.artifact suffixes"
        ),
    )
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="verify a saved structure")
    p_verify.add_argument("structure")
    p_verify.add_argument("--exhaustive", action="store_true")
    p_verify.add_argument("--samples", type=int, default=200)
    p_verify.set_defaults(func=cmd_verify)

    p_query = sub.add_parser("query", help="distance/route query under faults")
    p_query.add_argument("structure")
    p_query.add_argument("--target", type=int, required=True)
    p_query.add_argument("--source", type=int, default=None)
    p_query.add_argument("--faults", default="", help="comma list like 0-29,1-22")
    p_query.set_defaults(func=cmd_query)

    p_info = sub.add_parser("info", help="summarize a saved structure")
    p_info.add_argument("structure")
    p_info.set_defaults(func=cmd_info)

    p_lb = sub.add_parser("lowerbound", help="build/inspect G*_f (Thm 1.2)")
    p_lb.add_argument("--n", type=int, required=True)
    p_lb.add_argument("--f", type=int, default=2)
    p_lb.add_argument("--sigma", type=int, default=1)
    p_lb.add_argument("--check", type=int, default=0,
                      help="verify this many forced-edge certificates")
    p_lb.set_defaults(func=cmd_lowerbound)

    p_bench = sub.add_parser(
        "bench", help="time a builder under one or all engines"
    )
    p_bench.add_argument(
        "--graph", default="er:n=80,p=0.07,seed=20",
        help="graph spec (see module docs)",
    )
    p_bench.add_argument("--builder", choices=sorted(BUILDERS), default="cons2")
    p_bench.add_argument("--source", type=int, default=0)
    p_bench.add_argument("--f", type=int, default=2,
                         help="fault budget (generic/approx)")
    p_bench.add_argument(
        "--engine",
        choices=sorted(ENGINES) + ["all"],
        default="all",
        help="engine to time, or 'all' to compare (default)",
    )
    p_bench.add_argument("--rounds", type=int, default=3,
                         help="take the best of this many runs")
    p_bench.add_argument(
        "--sources", type=int, default=1,
        help=(
            "time a σ-source FT-MBFS build over sources 0..K-1 "
            "instead of a single-source build (the shardable unit)"
        ),
    )
    p_bench.add_argument(
        "--jobs", default=None,
        help=(
            "process-pool workers for a parallel arm per engine "
            "('auto' = one per CPU; default: REPRO_JOBS, else 1); "
            "needs --sources > 1 and a multi-core host"
        ),
    )
    p_bench.add_argument("--json", default=None,
                         help="also write machine-readable results here")
    p_bench.set_defaults(func=cmd_bench)

    p_scenarios = sub.add_parser(
        "scenarios",
        help="sweep a failure-scenario blueprint (see docs/scenarios.md)",
    )
    p_scenarios.add_argument(
        "--blueprint", required=True,
        help="scenario blueprint JSON (e.g. benchmarks/topologies/*.json)",
    )
    p_scenarios.add_argument(
        "--engine",
        choices=sorted(ENGINES) + ["all"],
        default="all",
        help=(
            "engine to sweep, or 'all' (default) to run every hop "
            "engine and assert differential identity"
        ),
    )
    p_scenarios.add_argument(
        "--mode",
        choices=("fresh", "delta", "both"),
        default="both",
        help=(
            "execution mode: fresh per-step rebuilds, incremental "
            "apply_delta, or 'both' (default; identity asserted)"
        ),
    )
    p_scenarios.add_argument(
        "--jobs", default=None,
        help=(
            "process-pool workers sharding the scenario sweep "
            "('auto' = one per CPU; default: REPRO_JOBS, else 1)"
        ),
    )
    p_scenarios.add_argument(
        "--json", default=None,
        help="also write the merged machine-readable report here",
    )
    p_scenarios.set_defaults(func=cmd_scenarios)

    p_serve = sub.add_parser(
        "serve", help="serve queries from a saved structure or artifact"
    )
    p_serve.add_argument("structure", help="artifact (.bin) or structure JSON")
    p_serve.add_argument(
        "--engine",
        choices=sorted(ENGINES),
        default=None,
        help="canonical engine answering served queries (default: %s)"
        % DEFAULT_ENGINE,
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0 = ephemeral, printed at startup)",
    )
    p_serve.add_argument(
        "--socket", default=None,
        help="serve on this unix socket path instead of TCP",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_exp = sub.add_parser(
        "experiment", help="run an experiment benchmark (E1..E19 or 'all')"
    )
    p_exp.add_argument("id", help="experiment id, e.g. e1, E19, all")
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
