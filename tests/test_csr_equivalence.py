"""Equivalence of the CSR kernel (python and C) with the legacy engines.

The ``lex-csr`` engine must be *bit-for-bit* interchangeable with the
legacy ``LexShortestPaths``: identical distances, identical canonical
parents, identical canonical paths — under arbitrary banned
edge/vertex restrictions.  These tests drive the engines over the
shared graph zoo and randomized fault sets (plus hypothesis-generated
random graphs) and compare every observable.  The CSR
:class:`DistanceOracle` (including its memo cache and the
bidirectional point query) is checked against the legacy
:class:`PythonDistanceOracle` the same way.

Wherever the C kernel loads, the engine runs its searches in C; the
python loops stay the reference because :func:`tier_outputs` runs each
search on both tiers of one snapshot and compares every readout.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.canonical import (
    INF,
    CSRLexShortestPaths,
    DistanceOracle,
    LexShortestPaths,
    PerturbedShortestPaths,
    PythonDistanceOracle,
    make_engine,
    multi_source_distances,
)
from repro.core.ckernel import c_kernel_available
from repro.core.csr import DeltaCSRGraph, csr_of, kernel_dispatch_stats
from repro.core.errors import GraphError
from repro.core.graph import Graph
from repro.core.snapshot_cache import shared_cache
from repro.generators import erdos_renyi, path_graph

from tests.zoo import random_restriction, zoo_params

#: The C tier needs a loadable C kernel (compiler or prebuilt
#: extension); hosts without one run the rest of the suite plus the
#: fallback tests in tests/test_query_batch.py.
needs_ckernel = pytest.mark.skipif(
    not c_kernel_available(), reason="compiled C kernel unavailable"
)


@zoo_params()
def test_full_search_equivalence_under_random_faults(name, graph):
    """Distances, parents and paths agree on every zoo graph × fault set."""
    legacy = LexShortestPaths(graph)
    csr = CSRLexShortestPaths(graph)
    rng = random.Random(hash(name) & 0xFFFF)
    for trial in range(12):
        be, bv = random_restriction(graph, rng)
        res_l = legacy.search(0, banned_edges=be, banned_vertices=bv)
        res_c = csr.search(0, banned_edges=be, banned_vertices=bv)
        assert res_l.distances() == res_c.distances()
        for v in graph.vertices():
            assert res_l.parent(v) == res_c.parent(v)
            if res_l.reached(v):
                assert res_l.path(v) == res_c.path(v)


@zoo_params()
def test_canonical_path_equivalence_targeted(name, graph):
    """Target-limited searches extract identical canonical paths."""
    legacy = LexShortestPaths(graph)
    csr = CSRLexShortestPaths(graph)
    rng = random.Random(1 + (hash(name) & 0xFFFF))
    for trial in range(8):
        be, bv = random_restriction(graph, rng)
        full = legacy.search(0, banned_edges=be, banned_vertices=bv)
        for v in graph.vertices():
            if not full.reached(v):
                continue
            expect = legacy.canonical_path(
                0, v, banned_edges=be, banned_vertices=bv
            )
            assert csr.canonical_path(
                0, v, banned_edges=be, banned_vertices=bv
            ) == expect


@zoo_params()
def test_distance_oracle_equivalence(name, graph):
    """CSR oracle (memo, bidir, sweeps) == legacy oracle."""
    new = DistanceOracle(graph)
    old = PythonDistanceOracle(graph)
    rng = random.Random(2 + (hash(name) & 0xFFFF))
    for trial in range(40):
        be, bv = random_restriction(graph, rng, forbid=())
        s = rng.randrange(graph.n)
        t = rng.randrange(graph.n)
        # point query twice: second hit exercises the memo cache
        assert new.distance(s, t, be, bv) == old.distance(s, t, be, bv)
        assert new.distance(s, t, be, bv) == old.distance(s, t, be, bv)
        expect_vec = old.distances_from(s, be, bv)
        assert new.distances_from(s, be, bv) == expect_vec


@zoo_params()
def test_multi_source_batch_matches_per_source(name, graph):
    rng = random.Random(3 + (hash(name) & 0xFFFF))
    be, bv = random_restriction(graph, rng, forbid=())
    sources = list(graph.vertices())[:4]
    batch = multi_source_distances(graph, sources, be, bv)
    old = PythonDistanceOracle(graph)
    for s, vec in zip(sources, batch):
        assert vec == old.distances_from(s, be, bv)


@needs_ckernel
@zoo_params()
def test_c_tier_engine_and_oracle_equivalence(name, graph, monkeypatch):
    """``lex-csr`` with the C tier required is bit-identical to the
    legacy reference.

    Under ``REPRO_C_KERNEL=on`` the engine's searches and the planner's
    multi-pair residue must run in C (they raise rather than fall
    back), and the dispatch counters must show C answered some pairs,
    so the test cannot pass on the python kernel.  Engine searches
    must match the legacy engine observable-for-observable, and the
    oracle's batch-first surface (``distances_bulk``, which sends the
    pairs the tree repair leaves to the C multi-pair kernel) must
    agree element-for-element with per-pair legacy scalar queries.
    """
    monkeypatch.setenv("REPRO_C_KERNEL", "on")
    shared_cache().clear()  # every answer from a kernel, none memoized
    legacy = LexShortestPaths(graph)
    eng = CSRLexShortestPaths(graph)
    oracle = DistanceOracle(graph)
    kernel_dispatch_stats(graph, reset=True)
    old = PythonDistanceOracle(graph)
    rng = random.Random(7 + (hash(name) & 0xFFFF))
    for trial in range(10):
        be, bv = random_restriction(graph, rng)
        res_l = legacy.search(0, banned_edges=be, banned_vertices=bv)
        res_c = eng.search(0, banned_edges=be, banned_vertices=bv)
        assert res_l.distances() == res_c.distances()
        for v in graph.vertices():
            assert res_l.parent(v) == res_c.parent(v)
        pairs = [
            (rng.randrange(graph.n), rng.randrange(graph.n)) for _ in range(12)
        ]
        assert oracle.distances_bulk(pairs, be, bv) == [
            old.distance(s, t, be, bv) for s, t in pairs
        ]
    stats = kernel_dispatch_stats(graph)
    assert stats["pairs_c"] > 0


@zoo_params()
def test_perturbed_csr_inner_loop_matches_lex_distances(name, graph):
    """The CSR-rewritten Dijkstra still yields hop-exact distances."""
    per = PerturbedShortestPaths(graph, seed=11).search(0)
    lex = CSRLexShortestPaths(graph).search(0)
    assert per.distances() == lex.distances()


class TestEngineContract:
    def test_registry_and_default(self):
        g = path_graph(4)
        assert isinstance(make_engine(g), CSRLexShortestPaths)
        assert isinstance(make_engine(g, "lex-csr"), CSRLexShortestPaths)
        assert isinstance(make_engine(g, "lex"), LexShortestPaths)

    def test_banned_source_rejected(self):
        g = path_graph(3)
        with pytest.raises(GraphError):
            CSRLexShortestPaths(g).search(0, banned_vertices=[0])

    def test_invalid_source_rejected(self):
        g = path_graph(3)
        with pytest.raises(GraphError):
            CSRLexShortestPaths(g).search(9)

    @pytest.mark.parametrize("factory", [CSRLexShortestPaths], ids=["csr"])
    def test_search_memo_promotion(self, factory):
        """A repeated restriction with a deeper target is answered correctly
        (the cached target-stopped search must not serve it stale)."""
        g = path_graph(8)
        eng = factory(g)
        near = eng.search(0, banned_edges=[(5, 6)], target=2)
        assert near.dist(2) == 2
        far = eng.search(0, banned_edges=[(5, 6)], target=5)
        assert far.dist(5) == 5
        assert not far.reached(7)  # the ban really cuts
        again = eng.search(0, banned_edges=[(5, 6)])
        assert again.dist(5) == 5 and not again.reached(6)

    @pytest.mark.parametrize(
        "engine_factory,oracle_factory",
        [(CSRLexShortestPaths, DistanceOracle)],
        ids=["csr"],
    )
    def test_engine_sees_graph_mutation(self, engine_factory, oracle_factory):
        """Mutating the graph after engine/oracle construction must not
        serve stale snapshots or stale memo entries (the legacy default
        engine read adjacency live on every search)."""
        g = path_graph(4)
        eng = engine_factory(g)
        oracle = oracle_factory(g)
        assert eng.search(0).dist(3) == 3
        assert oracle.distance(0, 3) == 3
        g.add_edge(0, 3)
        assert eng.search(0).dist(3) == 1
        assert oracle.distance(0, 3) == 1
        assert oracle.distances_from(0) == [0, 1, 2, 1]

    @pytest.mark.parametrize("factory", [CSRLexShortestPaths], ids=["csr"])
    def test_memo_results_stable_across_mixed_targets(self, factory):
        g = erdos_renyi(24, 0.15, seed=6)
        eng = factory(g)
        ref = LexShortestPaths(g)
        rng = random.Random(9)
        for _ in range(60):
            be, bv = random_restriction(g, rng)
            v = rng.randrange(1, g.n)
            res = eng.search(0, banned_edges=be, banned_vertices=bv, target=v)
            expect = ref.search(0, banned_edges=be, banned_vertices=bv, target=v)
            assert res.dist(v) == expect.dist(v)
            if expect.reached(v):
                assert res.path(v) == expect.path(v)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=18),
    p=st.floats(min_value=0.1, max_value=0.5),
    seed=st.integers(min_value=0, max_value=10_000),
    fault_seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_random_graph_random_faults_equivalence(n, p, seed, fault_seed):
    g = erdos_renyi(n, p, seed=seed)
    rng = random.Random(fault_seed)
    be, bv = random_restriction(g, rng)
    res_l = LexShortestPaths(g).search(0, banned_edges=be, banned_vertices=bv)
    res_c = CSRLexShortestPaths(g).search(0, banned_edges=be, banned_vertices=bv)
    assert res_l.distances() == res_c.distances()
    for v in range(g.n):
        assert res_l.parent(v) == res_c.parent(v)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=18),
    p=st.floats(min_value=0.1, max_value=0.5),
    seed=st.integers(min_value=0, max_value=10_000),
    fault_seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_bidirectional_distance_equivalence(n, p, seed, fault_seed):
    g = erdos_renyi(n, p, seed=seed)
    rng = random.Random(fault_seed)
    be, bv = random_restriction(g, rng, forbid=())
    new = DistanceOracle(g)
    old = PythonDistanceOracle(g)
    for s in range(min(g.n, 4)):
        for t in range(g.n):
            assert new.distance(s, t, be, bv) == old.distance(s, t, be, bv)


# ----------------------------------------------------------------------
# the C restricted search behind CSRGraph.bfs / bfs_dists
# ----------------------------------------------------------------------
def tier_outputs(csr, source, eids, verts, target=None, parents=True):
    """One search per kernel tier of one snapshot: ``[C, python]``.

    Each entry is ``(hops, dists, parents)`` for a parent-producing
    search, ``(dists, last_distance per vertex)`` for a distance-only
    sweep.  The dispatch counters prove the first search ran in C and
    the second did not.
    """
    key = "searches_c" if parents else "full_sweeps_c"
    out = []
    with pytest.MonkeyPatch.context() as mp:
        for mode in ("on", "off"):
            mp.setenv("REPRO_C_KERNEL", mode)
            before = csr.dispatch_stats[key]
            ban = csr.stamp_edge_ids(eids, verts)
            if parents:
                hops = csr.bfs(source, ban, target)
                dist, parent = csr.collect()
                out.append((hops, list(dist), list(parent)))
            else:
                csr.bfs_dists(source, ban)
                out.append(
                    (
                        csr.distances_list(),
                        [csr.last_distance(v) for v in range(csr.n)],
                    )
                )
            assert csr.dispatch_stats[key] - before == (mode == "on")
    return out


def check_tiers_against_legacy(graph, csr, be, bv, source, target):
    """C == python kernel on one restriction, and both == legacy ``lex``
    (full searches observable for observable; targeted searches on the
    target itself, since ``lex`` stops at the end of the target's
    layer rather than at its discovery)."""
    eids = csr.resolve_edge_ids(be)
    c_full, py_full = tier_outputs(csr, source, eids, bv)
    assert c_full == py_full
    c_sweep, py_sweep = tier_outputs(csr, source, eids, bv, parents=False)
    assert c_sweep == py_sweep
    assert c_sweep[0] == c_full[1]  # the sweep's distances are the search's
    c_hit, py_hit = tier_outputs(csr, source, eids, bv, target=target)
    assert c_hit == py_hit
    if source in bv:  # a banned source reaches nothing
        assert c_full[1] == [-1] * csr.n and c_hit[0] == -1
        return
    legacy = LexShortestPaths(graph)
    full = legacy.search(source, banned_edges=be, banned_vertices=bv)
    assert c_full[1] == full.distances()
    assert c_full[2] == [full.parent(v) for v in range(graph.n)]
    assert c_hit[0] == full.dist_or_unreached(target)
    if full.reached(target):
        assert c_hit[1][target] == c_hit[0]
        # the target's canonical path is final at its discovery
        v = target
        while v != source:
            assert c_hit[2][v] == full.parent(v)
            v = c_hit[2][v]


@needs_ckernel
@zoo_params()
def test_c_search_matches_python_kernel_and_legacy(name, graph):
    """Full, target-stopped and distance-only searches agree across the
    C tier, the python kernel and legacy ``lex`` — edge and vertex
    bans, banned sources, the source as target, unreachable targets."""
    csr = csr_of(graph)
    rng = random.Random(11 + (hash(name) & 0xFFFF))
    for trial in range(16):
        be, bv = random_restriction(graph, rng, forbid=())
        source = rng.randrange(graph.n)
        target = source if trial % 5 == 0 else rng.randrange(graph.n)
        check_tiers_against_legacy(graph, csr, be, bv, source, target)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=18),
    p=st.floats(min_value=0.1, max_value=0.5),
    seed=st.integers(min_value=0, max_value=10_000),
    fault_seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_c_search_matches_python_kernel(n, p, seed, fault_seed):
    if not c_kernel_available():
        pytest.skip("compiled C kernel unavailable")
    g = erdos_renyi(n, p, seed=seed)
    rng = random.Random(fault_seed)
    be, bv = random_restriction(g, rng, forbid=())
    source = rng.randrange(g.n)
    check_tiers_against_legacy(g, csr_of(g), be, bv, source, rng.randrange(g.n))


@needs_ckernel
def test_c_search_serves_only_the_live_stamp(monkeypatch):
    """A stamp may serve several searches (pooling invariant 2), but a
    search under an older stamp than the live one runs on the python
    kernel, which still holds that stamp: C only knows the live one."""
    monkeypatch.setenv("REPRO_C_KERNEL", "on")
    csr = csr_of(path_graph(6))
    cut = csr.stamp_edge_ids(csr.resolve_edge_ids([(2, 3)]), [])
    csr.stamp_edge_ids(csr.resolve_edge_ids([(4, 5)]), [])  # the live stamp
    before = csr.dispatch_stats["searches_c"]
    assert csr.bfs(0, cut, 3) == -1  # (2, 3) still cuts 3 off
    assert csr.dispatch_stats["searches_c"] == before


@needs_ckernel
def test_c_kernel_rejects_ids_outside_range(monkeypatch):
    """The C side indexes its scratch with every id unchecked, so each
    entry point rejects an out-of-range source, target, banned edge id
    or banned vertex with GraphError before the call reaches C — ids
    too wide for int32 included, which must not surface as an
    OverflowError from the narrowing."""
    monkeypatch.setenv("REPRO_C_KERNEL", "on")
    csr = csr_of(path_graph(5))
    ck = csr.c_kernel()
    m = csr.eid_cap
    huge = (2**40, 2**70)
    bad_bans = [([m], []), ([-1], []), ([], [5]), ([], [-1])]
    bad_bans += [([big], []) for big in huge] + [([], [big]) for big in huge]
    for source in (5, -1) + huge:
        with pytest.raises(GraphError):
            ck.bfs(source, None, [], [])
        with pytest.raises(GraphError):
            ck.multi_pair_dists([(source, 4, [], [])])
        with pytest.raises(GraphError):
            ck.multi_pair_dists([(0, source, [], [])])
    for eids, verts in bad_bans:
        with pytest.raises(GraphError):
            ck.bfs(0, 4, eids, verts)
        with pytest.raises(GraphError):
            ck.multi_pair_dists([(0, 4, eids, verts)])
    assert ck.bfs(0, 4, [], []) == 4
    assert ck.multi_pair_dists([(0, 4, [], [3])]) == [-1]


@needs_ckernel
@pytest.mark.parametrize("factory", [CSRLexShortestPaths], ids=["csr"])
def test_c_engine_memo_promotion_matches_legacy(factory, monkeypatch):
    """With C required, engine searches — target-stopped, served from
    the memo, promoted to full — match legacy ``lex`` exactly, and the
    counters show the searches and sweeps ran in C."""
    monkeypatch.setenv("REPRO_C_KERNEL", "on")
    shared_cache().clear()
    g = erdos_renyi(30, 0.12, seed=8)
    eng = factory(g)
    oracle = DistanceOracle(g)
    legacy = LexShortestPaths(g)
    old = PythonDistanceOracle(g)
    kernel_dispatch_stats(g, reset=True)
    rng = random.Random(4)
    for _ in range(12):
        be, bv = random_restriction(g, rng)
        full = legacy.search(0, banned_edges=be, banned_vertices=bv)
        order = [v for v in range(g.n) if full.reached(v)]
        rng.shuffle(order)
        for v in order[:4] + [None]:  # targets, then a full search
            res = eng.search(0, banned_edges=be, banned_vertices=bv, target=v)
            if v is None:
                assert res.distances() == full.distances()
                assert [res.parent(w) for w in range(g.n)] == [
                    full.parent(w) for w in range(g.n)
                ]
            else:
                assert res.path(v) == full.path(v)
        assert oracle.distances_from(3, be, bv) == old.distances_from(3, be, bv)
    stats = kernel_dispatch_stats(g)
    assert stats["searches_c"] > 0 and stats["full_sweeps_c"] > 0


@needs_ckernel
def test_c_search_on_patched_snapshots():
    """Delta-patched snapshots (stable edge ids, an id appended past the
    old edge count) search identically in C and python, whether their
    flat arrays are spliced from a flattened parent or walked from an
    unflattened one."""
    g = erdos_renyi(30, 0.15, seed=5)
    csr_of(g)
    rng = random.Random(2)
    for step in range(3):
        edges = sorted(g.edges())
        absent = [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        ]
        g.apply_delta(adds=absent[:2], removes=edges[3:4])
        csr = csr_of(g)
        assert isinstance(csr, DeltaCSRGraph)
        assert csr.edge_index[absent[1]] == csr.eid_cap - 1  # appended id
        if step == 0:
            continue  # stays unflattened: the next snapshot walks its rows
        assert list(csr.nbr) == [w for row in csr.rows for w in row]
        assert list(csr.arc_eid) == [e for row in csr.arcs for _, e in row]
        for trial in range(8):
            be, bv = random_restriction(g, rng, forbid=())
            be = be + [absent[trial % 2]]  # ban a delta edge every time
            source, target = rng.randrange(g.n), rng.randrange(g.n)
            check_tiers_against_legacy(g, csr, be, bv, source, target)


@needs_ckernel
def test_c_search_on_adopted_snapshot(tmp_path):
    """An artifact's snapshot (mmap-backed memoryviews) searches
    identically in C and python, and the C kernel copies its arrays
    rather than view them, so closing the artifact still works."""
    from repro.core.artifact import load_artifact, save_artifact
    from repro.ftbfs.cons2ftbfs import build_cons2ftbfs

    s = build_cons2ftbfs(erdos_renyi(24, 0.18, seed=6), 0)
    path = save_artifact(s, tmp_path / "h.bin")
    with load_artifact(path) as art:
        h = art.subgraph()
        csr = csr_of(h)
        assert isinstance(csr.indptr, memoryview)
        rng = random.Random(3)
        for _ in range(10):
            be, bv = random_restriction(h, rng, forbid=())
            check_tiers_against_legacy(h, csr, be, bv, 0, rng.randrange(h.n))
        assert csr._ck is not None
    # leaving the block closed the mapping: no view pinned it


def test_c_off_keeps_lex_csr_on_python(monkeypatch):
    """Under ``REPRO_C_KERNEL=off`` ``lex-csr`` never builds a C kernel,
    so there are no C counters to read."""
    from repro.ftbfs.cons2ftbfs import build_cons2ftbfs

    monkeypatch.setenv("REPRO_C_KERNEL", "off")
    shared_cache().clear()
    g = erdos_renyi(40, 0.12, seed=9)
    ref = build_cons2ftbfs(g, 0, engine="lex")
    assert build_cons2ftbfs(g, 0, engine="lex-csr").edges == ref.edges
    assert csr_of(g)._ck is None
    assert kernel_dispatch_stats(g) is None


def test_c_on_broken_load_raises_for_lex_csr(monkeypatch):
    """``REPRO_C_KERNEL=on`` makes a ``lex-csr`` search that cannot
    reach C raise instead of quietly running the python kernel."""
    from repro.core import ckernel

    monkeypatch.setenv("REPRO_C_KERNEL", "on")
    monkeypatch.setattr(ckernel, "_load_state", (None, "simulated broken extension"))
    shared_cache().clear()
    g = erdos_renyi(20, 0.2, seed=1)
    with pytest.raises(RuntimeError, match="simulated broken extension"):
        CSRLexShortestPaths(g).search(0)


def test_c_auto_broken_load_falls_back_silently(monkeypatch):
    """Under ``auto`` a broken load leaves ``lex-csr`` on the python
    kernel with identical answers and no C counters."""
    from repro.core import ckernel

    monkeypatch.setenv("REPRO_C_KERNEL", "auto")
    monkeypatch.setattr(ckernel, "_load_state", (None, "simulated missing extension"))
    shared_cache().clear()
    g = erdos_renyi(20, 0.2, seed=1)
    res = CSRLexShortestPaths(g).search(0, banned_edges=sorted(g.edges())[:2])
    ref = LexShortestPaths(g).search(0, banned_edges=sorted(g.edges())[:2])
    assert res.distances() == ref.distances()
    assert [res.parent(v) for v in range(g.n)] == [ref.parent(v) for v in range(g.n)]
    assert DistanceOracle(g).distances_from(0) == (
        PythonDistanceOracle(g).distances_from(0)
    )
    assert csr_of(g)._ck is None and kernel_dispatch_stats(g) is None
