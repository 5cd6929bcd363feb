"""Build-and-serve benchmark of the FT-BFS package on its shipped defaults.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--out results.jsonl]

``NAME`` is one of ``build-chords``, ``build-er``, ``serve-read``,
``serve-churn``, or ``all`` to run each in turn.  Every process that
runs the package does so with no ``REPRO_*`` knob set except the
results directory, so the defaults users get are what is measured.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same workload once untraced and once traced (half the time each) and
reports the per-layer metrics plus the tracing overhead.  Outputs are
checked against the independent BFS reference in ``reference.py``
after each timed window.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it are a readable report of every metric with its
unit and sample count.  ``--out`` appends the full record (report,
environment block) to a JSON-lines file for ``compare.py``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from common import (
    CAL_NOMINAL,
    ROOT,
    SRC,
    WORK,
    at_nominal,
    calibrate,
    have_sources,
    median,
    percentile,
    scrub_own_env,
    source_digest,
    use_sources,
    workload_env,
)

#: End-to-end metrics: every workload reports each of them.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("structure_edges", "edges"),
    ("latency_ms", "ms"),
    ("ops_per_s", "1/s"),
]

WORKLOADS = ("build-chords", "build-er", "serve-read", "serve-churn")

#: Fewest builds a build run times, however short ``--seconds`` is.
MIN_BUILDS = 3
#: Servers started (and stopped) per untraced serve run to sample set-up
#: time.  Like a build, a server start is one CPU-bound process, so each
#: is host-speed normalized; raw, the median moved 31% between two sets
#: of ten runs on the same code.
SETUP_SPAWNS = 7
#: Sub-windows a serve run's timed window is split into: throughput and
#: the p90 latency are medians across them, so a transient disturbance
#: of the host moves one sub-window, not the figure.  Over ten seeds on
#: a noisy host the p90 varied about 40% less than the p50 from run to
#: run, so the p90 is the serve workloads' ``latency_ms``.  (Serve
#: figures are not host-speed normalized: the calibration did not track
#: them and widened their spread about twofold.)
SUB_WINDOWS = 5
TAIL_Q = 0.90


class Run:
    """Everything one workload run measured and checked."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: Dict[str, float] = {}
        self.report: List[Tuple[str, float, str, int]] = []
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.problems: List[str] = []
        self.notes: Dict[str, object] = {}

    def show(self, name: str, value: float, unit: str, count: int) -> None:
        """Add one line to the readable report."""
        self.report.append((name, value, unit, count))

    def timing(self, name: str, seconds: List[float]) -> None:
        """Report a latency's median, and its p99 when 10+ samples lie beyond it."""
        if not seconds:
            return
        self.show(f"{name}_p50_ms", 1e3 * median(seconds), "ms", len(seconds))
        if len(seconds) >= 1000:
            self.show(f"{name}_p99_ms", 1e3 * percentile(seconds, 0.99), "ms", len(seconds))

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


# ----------------------------------------------------------------------
# build workloads
# ----------------------------------------------------------------------
def spawn_build(graph: str, spans_out: Optional[str] = None) -> dict:
    """One build in a fresh worker process; returns its report."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "build_worker.py"), graph]
    t0 = time.monotonic()
    cmd.append(repr(t0))
    if spans_out:
        cmd += ["--trace", spans_out]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=workload_env(), cwd=str(ROOT), timeout=170
    )
    if proc.returncode != 0:
        raise RuntimeError(f"build worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = time.monotonic() - t0
    return out


def check_builds(run: Run, n: int, g_edges, fault_sets, builds: List[dict]) -> None:
    """Check every distinct built structure against the BFS reference;
    each build whose structure mismatches counts as failed."""
    from reference import check_structure

    verdicts: Dict[tuple, bool] = {}
    for b in builds:
        key = tuple(map(tuple, b["edges"]))
        if key not in verdicts:
            checked, problems = check_structure(n, g_edges, key, fault_sets)
            run.checked += checked
            run.problems.extend(problems[:20])
            verdicts[key] = not problems
        run.attempted += 1
        if not verdicts[key]:
            run.failed += 1
    if len(verdicts) > 1:
        run.problems.append(f"{len(verdicts)} different structures from identical builds")


def run_build(run: Run, graph: str, seed: int, seconds: float, trace: bool) -> None:
    from workloads import build_fault_sets, graph_edges, make_graph

    plain: List[dict] = []
    traced: List[dict] = []
    spans = str(WORK / f"spans-{run.workload}.json")
    # A build is one CPU-bound process, and the host's speed drifts by
    # tens of percent over minutes: host speed is sampled before and
    # after every untraced build and each build is normalized by the
    # mean of the two samples around it (over ten seeds this cut the
    # run-to-run spread of build time from about 22% to 6%).
    cals = [calibrate()]
    t0 = time.monotonic()
    while True:
        elapsed = time.monotonic() - t0
        if trace:
            if traced and elapsed >= seconds:
                break
            traced.append(spawn_build(graph, spans))
        elif len(plain) >= MIN_BUILDS and elapsed >= seconds:
            break
        plain.append(spawn_build(graph))
        cals.append(calibrate())
    around = [(a + b) / 2 for a, b in zip(cals, cals[1:])]
    g = make_graph(graph)
    g_edges = graph_edges(g)
    check_builds(run, g.n, g_edges, build_fault_sets(seed, g.n, g_edges), plain + traced)

    build_s = [b["build_s"] for b in plain]
    setup_s = [b["setup_s"] for b in plain]
    rss = [b["peak_rss_mb"] for b in plain]
    edges = plain[0]["structure_edges"]
    run.metrics = {
        "setup_s": median([at_nominal(x, c) for x, c in zip(setup_s, around)]),
        "peak_rss_mb": median(rss),
        "structure_edges": float(edges),
        "latency_ms": 1e3 * median([at_nominal(x, c) for x, c in zip(build_s, around)]),
        "ops_per_s": len(plain) / sum(at_nominal(b["wall_s"], c) for b, c in zip(plain, around)),
    }
    run.show("host_speed", CAL_NOMINAL / median(around), "x", len(cals))
    run.show("setup_s", median(setup_s), "s", len(setup_s))
    run.show("build_s", median(build_s), "s", len(build_s))
    run.show("build_max_s", max(build_s), "s", len(build_s))
    run.show("structure_edges", float(edges), "edges", len(plain) + len(traced))
    run.show("peak_rss_mb", median(rss), "MiB", len(rss))
    run.notes.update(
        engine=plain[0]["engine"],
        c_kernel=plain[0]["c_kernel"],
        tier=plain[0]["dispatch"] or "python CSR kernel (no bulk kernel was built)",
        graph_edges=plain[0]["graph_edges"],
    )
    if trace:
        layers = {}
        for name in traced[0]["layers"]:
            layers[name] = median([t["layers"][name] for t in traced])
        for t in traced:
            gap = abs(t["self_sum_s"] - t["traced_build_s"])
            if gap > 1e-6 * max(t["traced_build_s"], 1.0):
                run.problems.append(
                    f"layer self times sum to {t['self_sum_s']:.6f}s, traced build_s is "
                    f"{t['traced_build_s']:.6f}s"
                )
        traced_s = median([t["build_s"] for t in traced])
        # Each traced build ran right before a plain one: pair them, so
        # host-speed drift between pairs cancels.
        layers["trace.overhead_frac"] = median(
            [t["build_s"] / p["build_s"] for t, p in zip(traced, plain)]
        ) - 1.0
        run.metrics = layers
        run.show("traced_build_s", traced_s, "s", len(traced))
        run.notes["spans"] = os.path.relpath(spans, ROOT)


# ----------------------------------------------------------------------
# serve workloads
# ----------------------------------------------------------------------
def ensure_artifact() -> str:
    """The saved ``build-er`` artifact, built once per source tree."""
    from workloads import ER_SPEC

    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"er-{source_digest()}.bin"
    if not path.is_file():
        tmp = WORK / f"er-{os.getpid()}.tmp.bin"
        cmd = [sys.executable, "-m", "repro", "build", "--graph", ER_SPEC, "--out", str(tmp)]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=workload_env(), cwd=str(ROOT), timeout=600
        )
        if proc.returncode != 0:
            raise RuntimeError(f"repro build failed: {proc.stderr[-2000:]}")
        os.replace(tmp, path)
    return str(path)


class Served:
    """The served structure as the client and the reference see it."""

    def __init__(self) -> None:
        from reference import DistanceReference, norm
        from workloads import graph_edges, make_graph, split_tree

        from repro.core.artifact import load_artifact

        self.artifact = ensure_artifact()
        g = make_graph("er")
        self.n = g.n
        self.g_edges = graph_edges(g)
        self.h_edges = sorted(norm(u, v) for u, v in load_artifact(self.artifact).structure().edges)
        self.g_ref = DistanceReference(self.n, self.g_edges)
        self.tree, self.other = split_tree(self.n, self.h_edges)


def run_server(run: Run, served: Served, seed: int, seconds: float, churn: bool,
                  spans_out: Optional[str] = None) -> dict:
    """One server: start, warm up past the stats cap, time, check, stop."""
    from serving import (
        STATS_CAP,
        ChurnLoad,
        ReadLoad,
        ServerProcess,
        Window,
        check_churn_samples,
        check_read_samples,
        server_stats,
        warm_up,
    )
    from workloads import churn_phases, delta_script

    from repro.serve import ServeClient

    out: dict = {}
    if churn:
        script = delta_script(seed, served.h_edges, served.g_edges)
        phases = churn_phases(served.h_edges, script)
        load = ChurnLoad(seed, served.n, phases, script)
    else:
        load = ReadLoad(seed, served.n, served.tree, served.other)
    with ServerProcess(served.artifact, spans_out) as server:
        server.start()
        warm_up(server.address, seed, served.n, served.tree, served.other)
        # Memory after a fixed amount of work; the closed-loop window's
        # request count (and cache growth) depends on speed.
        out["peak_rss_mb"] = server.peak_rss_mb()
        before = server_stats(server.address)  # opens a traced window
        point_count = before["endpoints"].get("point", {}).get("count", 0)
        if point_count < STATS_CAP:
            run.problems.append(f"point endpoint holds {point_count} samples < {STATS_CAP} before timing")
        windows = [load.drive(server.address, seconds / SUB_WINDOWS) for _ in range(SUB_WINDOWS)]
        out["server_stats"] = server_stats(server.address)  # closes a traced window
        out["peak_rss_mb_end"] = server.peak_rss_mb()
        with ServeClient(server.address) as client:
            out["info"] = client.info()
    if spans_out is not None:
        with open(spans_out) as fh:
            dump = json.load(fh)
        out["layers"] = dump["layers"]
        run.notes["c_kernel"] = dump["c_kernel"]
        run.notes["tier"] = dump["dispatch"] or "python CSR kernel (no bulk kernel was built)"
        if not dump["window_closed"]:
            run.problems.append("the traced server never closed its recording window")

    if churn:
        from reference import DistanceReference

        refs = [DistanceReference(served.n, p) for p in phases]
        checked, problems = check_churn_samples(load.samples, refs, len(served.h_edges))
    else:
        checked, problems = check_read_samples(load.samples, served.g_ref, frozenset(served.h_edges))
    run.checked += checked
    run.problems.extend(problems[:20])
    run.failed += len(problems)
    total = Window()
    for w in windows:
        total.merge(w)
    run.attempted += total.done + len(total.errors)
    run.failed += len(total.errors)
    run.problems.extend(total.errors[:5])

    primary = "delta" if churn else "point"
    out["latency"] = total.latency
    out["done"] = total.done
    out["qps"] = median([w.done / w.wall for w in windows])
    out["tail"] = median(
        [percentile(w.latency[primary], TAIL_Q) for w in windows if w.latency.get(primary)]
    )
    out["server_point_p50_ms"] = out["server_stats"]["endpoints"].get("point", {}).get("p50_ms", 0.0)
    return out


def run_serve(run: Run, seed: int, seconds: float, trace: bool, churn: bool) -> None:
    from serving import spawn_setup_samples

    served = Served()
    primary = "delta" if churn else "point"
    if trace:
        spans = str(WORK / f"spans-{run.workload}.json")
        plain = run_server(run, served, seed, seconds / 2, churn)
        traced = run_server(run, served, seed, seconds / 2, churn, spans_out=spans)
        layers = traced["layers"]
        layers["trace.overhead_frac"] = plain["qps"] / traced["qps"] - 1.0
        run.metrics = layers
        run.show("qps_untraced", plain["qps"], "req/s", plain["done"])
        run.show("qps_traced", traced["qps"], "req/s", traced["done"])
        run.notes["spans"] = os.path.relpath(spans, ROOT)
        run.notes["engine"] = plain["info"]["engine"]
        return

    setups = spawn_setup_samples(served.artifact, SETUP_SPAWNS)
    s = run_server(run, served, seed, seconds, churn)
    lat = s["latency"]
    run.metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": s["peak_rss_mb"],
        "structure_edges": float(s["info"]["structure_edges"]),
        "latency_ms": 1e3 * s["tail"],
        "ops_per_s": s["qps"],
    }
    run.show("setup_s_at_nominal_speed", median(setups), "s", len(setups))
    run.show("qps", s["qps"], "req/s", s["done"])
    for op in ("point", "path", "batch", "delta"):
        run.timing(op, lat.get(op, []))
    if len(lat[primary]) < 1000:
        run.notes["warning"] = (
            f"only {len(lat[primary])} {primary} requests: its p99 has fewer "
            "than 10 samples beyond it; lengthen --seconds"
        )
    run.show("server_point_p50_ms", s["server_point_p50_ms"], "ms",
             s["server_stats"]["endpoints"].get("point", {}).get("count", 0))
    run.show("structure_edges", float(s["info"]["structure_edges"]), "edges", 1)
    run.show("peak_rss_mb", s["peak_rss_mb"], "MiB", 1)
    run.show("peak_rss_mb_end_of_window", s["peak_rss_mb_end"], "MiB", 1)
    run.show(f"{primary}_p90_ms_subwindow_median", 1e3 * s["tail"], "ms", len(lat[primary]))
    run.notes["engine"] = s["info"]["engine"]
    run.notes["c_kernel"] = run.notes["tier"] = "reported by traced runs only"


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def environment(knobs: Dict[str, str]) -> dict:
    """The environment block recorded with every result."""
    import numpy

    from repro.core.canonical import DEFAULT_ENGINE

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=str(ROOT), timeout=10
        ).stdout.strip() or "unknown (not a git checkout)"
    except OSError:
        commit = "unknown (git not available)"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "default_engine": DEFAULT_ENGINE,
        "repro_knobs_present": knobs,
        "workload_knobs": {k: v for k, v in workload_env().items() if k.startswith("REPRO_")},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Run:
    run = Run(name)
    if name == "build-chords":
        run_build(run, "chords", seed, seconds, trace)
    elif name == "build-er":
        run_build(run, "er", seed, seconds, trace)
    elif name == "serve-read":
        run_serve(run, seed, seconds, trace, churn=False)
    elif name == "serve-churn":
        run_serve(run, seed, seconds, trace, churn=True)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return run


def result_line(run: Run, trace: bool) -> dict:
    """The contract's last-line JSON object."""
    from tracing import PER_LAYER

    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": run.metrics[name], "unit": unit} for name, unit in units},
    }


def print_report(run: Run, trace: bool, env: dict) -> None:
    print(f"== {run.workload} ({'traced' if trace else 'untraced'})")
    for name, value, unit, count in run.report:
        print(f"  {name:<24} {value:>14.4f} {unit:<6} n={count}")
    frac = run.failed / run.attempted if run.attempted else 0.0
    print(f"  {'failed_frac':<24} {frac:>14.4f} {'ratio':<6} failed={run.failed} attempted={run.attempted}")
    print(f"  reference checks: {run.checked}, problems: {len(run.problems)}")
    for problem in run.problems[:10]:
        print(f"    ! {problem}")
    if trace:
        from tracing import PER_LAYER

        for name, _ in PER_LAYER:
            print(f"  {name:<28} {run.metrics[name]:>16.6f}")
    print("  env: " + json.dumps({**env, **run.notes}, sort_keys=True, default=str))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append the full record to this JSON-lines file")
    args = parser.parse_args(argv)

    if not have_sources():
        print("error: no package sources (src/repro) next to the benchmark", file=sys.stderr)
        return 2
    knobs = scrub_own_env()
    use_sources()
    # The one build step of a python checkout: byte-compile the package
    # so no measured process pays for compiling it.
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    env = environment(knobs)
    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        run = run_workload(name, args.seed, args.seconds, trace)
        print_report(run, trace, env)
        lines[name] = result_line(run, trace)
        if args.out:
            record = {
                "workload": name,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "result": lines[name],
                "report": run.report,
                "problems": run.problems[:20],
                "env": {**env, **run.notes},
            }
            with open(args.out, "a") as fh:
                fh.write(json.dumps(record, default=str) + "\n")
    sys.stdout.flush()
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
