"""The benchmark's own tests.

Run with ``python3 -m pytest perfbench/selftest.py -q`` from the root of
the checkout (the file is named so the package's test suite does not
collect it).
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys

import pytest

from common import ROOT, have_sources, use_sources, workload_env

pytestmark = pytest.mark.skipif(not have_sources(), reason="needs the package sources")
use_sources()

import reference  # noqa: E402
import run  # noqa: E402
import serving  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def small_graph(n=40, p=0.1, seed=3):
    from repro.generators import erdos_renyi

    return erdos_renyi(n, p, seed=seed)


def test_seeded_read_streams_repeat():
    g = small_graph()
    h = workloads.graph_edges(g)
    tree, other = workloads.split_tree(g.n, h)

    def stream(seed, conn):
        s = workloads.ReadStream(seed, conn, g.n, tree, other)
        return [s.next() for _ in range(300)]

    assert stream(7, 0) == stream(7, 0)
    assert stream(7, 0) != stream(8, 0)
    assert stream(7, 0) != stream(7, 1)
    ops = [op for op, _ in stream(7, 0)]
    assert set(ops) == {"point", "path", "batch"}


def test_seeded_delta_scripts_repeat_and_keep_h_inside_g():
    g = small_graph(n=60, p=0.15)
    g_edges = workloads.graph_edges(g)
    h_edges = sorted(random.Random(1).sample(g_edges, len(g_edges) // 2))
    script = workloads.delta_script(5, h_edges, g_edges)
    assert script == workloads.delta_script(5, h_edges, g_edges)
    assert script != workloads.delta_script(6, h_edges, g_edges)
    phases = workloads.churn_phases(h_edges, script)
    assert all(len(p) == len(h_edges) and p <= set(g_edges) for p in phases)
    for (drop, add), phase in zip(script, phases):
        assert drop in phase and add not in phase

    def cycle(seed):
        s = workloads.ChurnStream(seed, g.n, phases, script)
        return [s.next() for _ in range(3 * (workloads.CHURN_READS + 1))]

    assert cycle(2) == cycle(2)
    assert [op for op, _, _ in cycle(2)].count("delta") == 3


def test_reference_agrees_with_distance_oracle():
    from repro.core.canonical import DistanceOracle

    for seed in range(4):
        g = small_graph(seed=seed)
        edges = workloads.graph_edges(g)
        ref = reference.DistanceReference(g.n, edges)
        oracle = DistanceOracle(g)
        rng = random.Random(seed)
        for _ in range(30):
            faults = rng.sample(edges, rng.randrange(3))
            want = ref.dists(faults)
            for t in range(g.n):
                d = oracle.distance(0, t, faults)
                assert want[t] == (-1 if math.isinf(d) else d)


def test_planted_wrong_structure_counts_as_failed():
    from repro.ftbfs.cons2ftbfs import build_cons2ftbfs
    from repro.generators import tree_plus_chords

    g = tree_plus_chords(40, 15)
    g_edges = workloads.graph_edges(g)
    h_edges = sorted(build_cons2ftbfs(g, 0).edges)
    fault_sets = workloads.build_fault_sets(1, g.n, g_edges)

    good = run.Run("t")
    run.check_builds(good, g.n, g_edges, fault_sets, [{"edges": h_edges}])
    assert good.failed == 0 and good.correct

    want = reference.bfs(reference.adjacency(g.n, g_edges), 0)
    needed = next(
        e for e in h_edges
        if reference.bfs(reference.adjacency(g.n, [f for f in h_edges if f != e]), 0) != want
    )
    bad = run.Run("t")
    planted = [e for e in h_edges if e != needed]
    run.check_builds(bad, g.n, g_edges, fault_sets, [{"edges": h_edges}, {"edges": planted}])
    assert bad.failed == 1 and bad.attempted == 2
    assert not bad.correct


def test_self_times_sum_to_the_root_span():
    tracer = tracing.Tracer()

    def leaf(k):
        return sum(range(k))

    timed_leaf = tracer.timed("leaf", leaf)

    def middle():
        return [timed_leaf(2000) for _ in range(3)]

    timed_middle = tracer.timed("middle", middle)
    root = tracer.timed("root", lambda: [timed_middle() for _ in range(4)])
    tracer.recording = True
    root()
    aggs = tracer.aggregates()
    assert aggs["leaf"].calls == 12 and aggs["middle"].calls == 4
    assert tracing.self_time_sum(aggs) == pytest.approx(aggs["root"].total, rel=1e-9)
    parents = {s[0]: s[4] for s in tracer.spans()}
    names = {s[0]: s[1] for s in tracer.spans()}
    assert all(names[parents[i]] == "middle" for i, name in names.items() if name == "leaf")


def test_install_patches_every_lookup_site_and_uninstalls():
    from repro.ftbfs import cons2ftbfs
    from repro.replacement import single

    original = single.all_single_replacements
    tracer = tracing.Tracer()
    tracing.install(tracer, serving=False)
    try:
        assert cons2ftbfs.all_single_replacements is not original
        assert cons2ftbfs.all_single_replacements is single.all_single_replacements
    finally:
        tracer.uninstall()
    assert cons2ftbfs.all_single_replacements is original


def test_metric_lists_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS


@pytest.fixture(scope="module")
def small_artifact(tmp_path_factory):
    out = tmp_path_factory.mktemp("art") / "small.bin"
    subprocess.run(
        [sys.executable, "-m", "repro", "build", "--graph", "er:n=40,p=0.1", "--out", str(out)],
        check=True, capture_output=True, env=workload_env(), cwd=str(ROOT), timeout=120,
    )
    return str(out)


@pytest.mark.parametrize("traced", [False, True])
def test_failed_workload_leaves_no_server_process(small_artifact, tmp_path, traced):
    spans = str(tmp_path / "spans.json") if traced else None
    server = serving.ServerProcess(small_artifact, spans)
    with pytest.raises(RuntimeError, match="workload failed"):
        with server:
            server.start()
            pid = server.proc.pid
            raise RuntimeError("workload failed")
    assert server.proc.returncode is not None
    assert not os.path.exists(f"/proc/{pid}")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build-er", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
