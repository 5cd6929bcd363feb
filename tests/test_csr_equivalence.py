"""Equivalence of the CSR and numpy bulk kernels with the legacy engines.

The ``lex-csr`` and ``lex-bulk`` engines must be *bit-for-bit*
interchangeable with the legacy ``LexShortestPaths``: identical
distances, identical canonical parents, identical canonical paths —
under arbitrary banned edge/vertex restrictions.  These tests drive the
engines over the shared graph zoo and randomized fault sets (plus
hypothesis-generated random graphs) and compare every observable.  The
CSR :class:`DistanceOracle` (including its memo cache and the
bidirectional point query) and the :class:`BulkDistanceOracle` are
checked against the legacy :class:`PythonDistanceOracle` the same way.

The zoo graphs sit below the bulk kernel's vectorization crossover
(where it would delegate to the python kernel and the test would prove
nothing about the numpy path), so bulk engines here are built with a
*forced-vectorized* kernel via :func:`forced_bulk_engine`.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bulk import BulkCSRKernel, kernel_dispatch_stats
from repro.core.canonical import (
    INF,
    BulkDistanceOracle,
    BulkLexShortestPaths,
    CSRLexShortestPaths,
    DistanceOracle,
    LexShortestPaths,
    PerturbedShortestPaths,
    PythonDistanceOracle,
    make_engine,
    multi_source_distances,
)
from repro.core.ckernel import c_kernel_available
from repro.core.csr import csr_of
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


def force_vectorized(graph):
    """Attach a bulk kernel with the size threshold disabled."""
    csr = csr_of(graph)
    csr._bulk = BulkCSRKernel(csr, min_bulk_n=0)
    return csr._bulk


def forced_bulk_engine(graph):
    """A ``lex-bulk`` engine whose kernel always takes the numpy path."""
    force_vectorized(graph)
    return BulkLexShortestPaths(graph)


def forced_bulk_oracle(graph):
    """A :class:`BulkDistanceOracle` sweeping on the forced numpy kernel."""
    force_vectorized(graph)
    return BulkDistanceOracle(graph)


@zoo_params()
def test_full_search_equivalence_under_random_faults(name, graph):
    """Distances, parents and paths agree on every zoo graph × fault set."""
    legacy = LexShortestPaths(graph)
    csr = CSRLexShortestPaths(graph)
    bulk = forced_bulk_engine(graph)
    rng = random.Random(hash(name) & 0xFFFF)
    for trial in range(12):
        be, bv = random_restriction(graph, rng)
        res_l = legacy.search(0, banned_edges=be, banned_vertices=bv)
        res_c = csr.search(0, banned_edges=be, banned_vertices=bv)
        res_b = bulk.search(0, banned_edges=be, banned_vertices=bv)
        assert res_l.distances() == res_c.distances() == res_b.distances()
        for v in graph.vertices():
            assert res_l.parent(v) == res_c.parent(v) == res_b.parent(v)
            if res_l.reached(v):
                assert res_l.path(v) == res_c.path(v) == res_b.path(v)


@zoo_params()
def test_canonical_path_equivalence_targeted(name, graph):
    """Target-limited searches extract identical canonical paths."""
    legacy = LexShortestPaths(graph)
    csr = CSRLexShortestPaths(graph)
    bulk = forced_bulk_engine(graph)
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
            assert bulk.canonical_path(
                0, v, banned_edges=be, banned_vertices=bv
            ) == expect


@zoo_params()
def test_distance_oracle_equivalence(name, graph):
    """CSR + bulk oracles (memo, bidir, bulk sweeps) == legacy oracle."""
    new = DistanceOracle(graph)
    bulk = forced_bulk_oracle(graph)
    old = PythonDistanceOracle(graph)
    rng = random.Random(2 + (hash(name) & 0xFFFF))
    for trial in range(40):
        be, bv = random_restriction(graph, rng, forbid=())
        s = rng.randrange(graph.n)
        t = rng.randrange(graph.n)
        # point query twice: second hit exercises the memo cache
        assert new.distance(s, t, be, bv) == old.distance(s, t, be, bv)
        assert new.distance(s, t, be, bv) == old.distance(s, t, be, bv)
        assert bulk.distance(s, t, be, bv) == old.distance(s, t, be, bv)
        expect_vec = old.distances_from(s, be, bv)
        assert new.distances_from(s, be, bv) == expect_vec
        assert bulk.distances_from(s, be, bv) == expect_vec


@zoo_params()
def test_multi_source_batch_matches_per_source(name, graph):
    rng = random.Random(3 + (hash(name) & 0xFFFF))
    be, bv = random_restriction(graph, rng, forbid=())
    sources = list(graph.vertices())[:4]
    batch = multi_source_distances(graph, sources, be, bv)
    bulk_batch = forced_bulk_oracle(graph).multi_source_distances(
        sources, be, bv
    )
    old = PythonDistanceOracle(graph)
    for s, vec, bvec in zip(sources, batch, bulk_batch):
        expect = old.distances_from(s, be, bv)
        assert vec == expect
        assert bvec == expect


@needs_ckernel
@zoo_params()
def test_c_tier_engine_and_oracle_equivalence(name, graph, monkeypatch):
    """``lex-bulk`` with the C tier required is bit-identical to the
    legacy reference.

    Under ``REPRO_C_KERNEL=on`` the forced-vectorized bulk kernel must
    answer its batch entry points in C (it raises rather than fall
    back), and the dispatch counters must show C answered some of
    them, so the test cannot pass on the numpy tier.  Engine searches
    must match the legacy engine observable-for-observable, and the
    oracle's batch-first surface (``distances_bulk``, which routes
    through the C multi-pair / shared-sweep kernels) must agree
    element-for-element with per-pair legacy scalar queries.
    """
    monkeypatch.setenv("REPRO_C_KERNEL", "on")
    shared_cache().clear()  # every answer from a kernel, none memoized
    legacy = LexShortestPaths(graph)
    force_vectorized(graph)
    eng = BulkLexShortestPaths(graph)
    oracle = BulkDistanceOracle(graph)
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
    assert stats["pairs_c"] + stats["sweeps_c"] > 0


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
        assert isinstance(make_engine(g, "lex-bulk"), BulkLexShortestPaths)

    def test_bulk_engine_pairs_with_bulk_oracle(self):
        assert BulkLexShortestPaths.oracle_class is BulkDistanceOracle

    def test_bulk_delegates_below_threshold(self):
        """On small graphs the bulk kernel hands off to the python
        kernel (and still answers correctly)."""
        g = path_graph(6)
        eng = make_engine(g, "lex-bulk")
        assert not eng._kernel.vectorized
        assert eng.search(0).dist(5) == 5

    def test_banned_source_rejected(self):
        g = path_graph(3)
        with pytest.raises(GraphError):
            CSRLexShortestPaths(g).search(0, banned_vertices=[0])

    def test_banned_source_rejected_bulk(self):
        g = path_graph(3)
        with pytest.raises(GraphError):
            forced_bulk_engine(g).search(0, banned_vertices=[0])

    def test_invalid_source_rejected(self):
        g = path_graph(3)
        with pytest.raises(GraphError):
            CSRLexShortestPaths(g).search(9)

    @pytest.mark.parametrize(
        "factory", [CSRLexShortestPaths, forced_bulk_engine], ids=["csr", "bulk"]
    )
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
        [
            (CSRLexShortestPaths, DistanceOracle),
            (forced_bulk_engine, forced_bulk_oracle),
        ],
        ids=["csr", "bulk"],
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
        if engine_factory is forced_bulk_engine:
            # The mutation retires the forced kernel with its snapshot;
            # re-force so the post-mutation asserts still exercise the
            # vectorized path (not the sub-threshold delegation).
            force_vectorized(g)
        assert eng.search(0).dist(3) == 1
        assert oracle.distance(0, 3) == 1
        assert oracle.distances_from(0) == [0, 1, 2, 1]
        if engine_factory is forced_bulk_engine:
            assert eng._kernel.vectorized  # the numpy path was re-tested

    @pytest.mark.parametrize(
        "factory", [CSRLexShortestPaths, forced_bulk_engine], ids=["csr", "bulk"]
    )
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

    def test_bulk_natural_vectorization_on_large_graph(self):
        """Above the size threshold the default-built bulk engine runs
        the numpy path (no forcing) and stays bit-identical."""
        g = erdos_renyi(600, 0.012, seed=13)
        bulk = BulkLexShortestPaths(g)
        assert bulk._kernel.vectorized
        csr = CSRLexShortestPaths(g)
        rng = random.Random(17)
        for _ in range(6):
            be, bv = random_restriction(g, rng)
            res_b = bulk.search(0, banned_edges=be, banned_vertices=bv)
            res_c = csr.search(0, banned_edges=be, banned_vertices=bv)
            assert res_b.distances() == res_c.distances()
            assert [res_b.parent(v) for v in range(g.n)] == [
                res_c.parent(v) for v in range(g.n)
            ]


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
    res_b = forced_bulk_engine(g).search(0, banned_edges=be, banned_vertices=bv)
    assert res_l.distances() == res_c.distances() == res_b.distances()
    for v in range(g.n):
        assert res_l.parent(v) == res_c.parent(v) == res_b.parent(v)


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
