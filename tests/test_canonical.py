"""Tests for the canonical shortest-path engines.

Cross-checks distances against networkx (an independent BFS
implementation), verifies the uniqueness/consistency contracts the
paper's ``W`` demands, and exercises the restriction (banned sets)
machinery.
"""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.canonical import (
    ENGINES,
    INF,
    DistanceOracle,
    LexShortestPaths,
    PerturbedShortestPaths,
    PythonDistanceOracle,
    bfs_distance,
    bfs_distances,
    eccentricity,
    make_engine,
    multi_source_distances,
)
from repro.core.ckernel import c_kernel_available
from repro.core.errors import DisconnectedError, GraphError
from repro.core.graph import Graph
from repro.core.snapshot_cache import shared_cache
from repro.generators import erdos_renyi, grid_graph, path_graph

from tests.zoo import zoo_params


def to_nx(g: Graph) -> nx.Graph:
    ng = nx.Graph()
    ng.add_nodes_from(g.vertices())
    ng.add_edges_from(g.edges())
    return ng


@zoo_params()
def test_distances_match_networkx(name, graph):
    res = LexShortestPaths(graph).search(0)
    truth = nx.single_source_shortest_path_length(to_nx(graph), 0)
    for v in graph.vertices():
        expected = truth.get(v, INF)
        assert res.dist(v) == expected


@zoo_params()
def test_perturbed_distances_match_lex(name, graph):
    lex = LexShortestPaths(graph).search(0)
    per = PerturbedShortestPaths(graph, seed=7).search(0)
    assert lex.distances() == per.distances()


@zoo_params()
def test_paths_are_shortest_and_valid(name, graph):
    engine = LexShortestPaths(graph)
    res = engine.search(0)
    for v in graph.vertices():
        if not res.reached(v):
            continue
        p = res.path(v)
        assert p.source == 0 and p.target == v
        assert len(p) == res.dist(v)
        for a, b in p.directed_edges():
            assert graph.has_edge(a, b)


@zoo_params()
def test_lex_minimality(name, graph):
    """The canonical path is lexicographically minimal among shortest paths."""
    engine = LexShortestPaths(graph)
    res = engine.search(0)
    ng = to_nx(graph)
    for v in list(graph.vertices())[:8]:
        if v == 0 or not res.reached(v):
            continue
        best = min(
            (tuple(p) for p in nx.all_shortest_paths(ng, 0, v)),
        )
        assert res.path(v).vertices == best


@zoo_params()
def test_prefix_consistency(name, graph):
    """Prefixes of canonical paths are canonical (optimal substructure)."""
    engine = LexShortestPaths(graph)
    res = engine.search(0)
    for v in graph.vertices():
        if not res.reached(v) or v == 0:
            continue
        p = res.path(v)
        for w in p.vertices[1:-1]:
            assert p.prefix(w) == res.path(w)


def test_suffix_consistency_er():
    """Suffixes of canonical paths are canonical from their own source."""
    g = erdos_renyi(18, 0.2, seed=13)
    engine = LexShortestPaths(g)
    res = engine.search(0)
    for v in range(g.n):
        if not res.reached(v) or v == 0:
            continue
        p = res.path(v)
        for w in p.vertices[1:-1]:
            from_w = engine.search(w, target=v)
            assert p.suffix(w) == from_w.path(v)


class TestRestrictions:
    def test_banned_edge(self, diamond):
        engine = LexShortestPaths(diamond)
        res = engine.search(0, banned_edges=[(0, 1)])
        assert res.dist(3) == 2
        assert res.path(3).vertices == (0, 2, 3)

    def test_banned_both_short_routes(self, diamond):
        engine = LexShortestPaths(diamond)
        res = engine.search(0, banned_edges=[(0, 1), (0, 2)])
        assert res.dist(3) == 3
        assert res.path(3).vertices == (0, 4, 5, 3)

    def test_banned_vertex(self, diamond):
        engine = LexShortestPaths(diamond)
        res = engine.search(0, banned_vertices=[1, 2])
        assert res.dist(3) == 3
        assert not res.reached(1)

    def test_disconnection_reports_inf(self):
        g = path_graph(4)
        res = LexShortestPaths(g).search(0, banned_edges=[(1, 2)])
        assert res.dist(3) == INF
        assert res.dist_or_unreached(3) == -1
        with pytest.raises(DisconnectedError):
            res.path(3)

    def test_banned_source_rejected(self):
        g = path_graph(3)
        with pytest.raises(GraphError):
            LexShortestPaths(g).search(0, banned_vertices=[0])
        with pytest.raises(GraphError):
            PerturbedShortestPaths(g).search(0, banned_vertices=[0])

    def test_invalid_source(self):
        g = path_graph(3)
        with pytest.raises(GraphError):
            LexShortestPaths(g).search(9)
        with pytest.raises(GraphError):
            PerturbedShortestPaths(g).search(9)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_result_rejects_vertices_outside_range(self, engine):
        """A negative id must not alias vertex n-1, and n is not a
        vertex: every per-vertex accessor raises a typed error."""
        g = path_graph(5)
        res = make_engine(g, engine).search(0)
        assert res.dist(4) == 4 and res.parent(4) == 3
        for v in (-1, 5):
            for accessor in (
                res.dist,
                res.dist_or_unreached,
                res.parent,
                res.reached,
                res.path,
            ):
                with pytest.raises(GraphError):
                    accessor(v)

    def test_target_early_stop_consistent(self):
        g = erdos_renyi(20, 0.15, seed=3)
        engine = LexShortestPaths(g)
        full = engine.search(0)
        for v in range(g.n):
            if not full.reached(v):
                continue
            stopped = engine.search(0, target=v)
            assert stopped.path(v) == full.path(v)

    def test_perturbed_restrictions(self, diamond):
        engine = PerturbedShortestPaths(diamond, seed=1)
        res = engine.search(0, banned_edges=[(0, 1), (0, 2)])
        assert res.dist(3) == 3


@pytest.mark.parametrize("mode", ["on", "off"])
@pytest.mark.parametrize(
    "family", [DistanceOracle, PythonDistanceOracle], ids=["csr", "python"]
)
def test_sources_outside_range_rejected(family, mode, monkeypatch):
    """A source outside ``[0, n)`` raises GraphError in both hop-oracle
    families (planned batch probes included) and in the one-shot
    helpers, on either kernel tier: -1 must not alias vertex n-1, and n
    must not surface as a bare IndexError.  An out-of-range *target*
    keeps its "never found" answer."""
    if mode == "on" and not c_kernel_available():
        pytest.skip("compiled C kernel unavailable")
    monkeypatch.setenv("REPRO_C_KERNEL", mode)
    shared_cache().clear()
    g = path_graph(6)
    oracle = family(g)
    for source in (-1, 6, 9):
        for call, args in (
            (oracle.distance, (source, 0)),
            (oracle.distances_from, (source,)),
            (oracle.distances_bulk, ([(source, 0)],)),
            (bfs_distances, (g, source)),
            (bfs_distance, (g, source, 0)),
            (multi_source_distances, (g, [source])),
        ):
            with pytest.raises(GraphError):
                call(*args)
        batch = oracle.batch()
        batch.add(source, 0, ((2, 3),))
        with pytest.raises(GraphError):
            batch.execute()
    for target in (-1, 6, 9):
        assert oracle.distance(0, target) == INF
        assert bfs_distance(g, 0, target) == INF
    assert oracle.distances_from(5) == [5, 4, 3, 2, 1, 0]


class TestPerturbedWeights:
    def test_weights_deterministic_per_seed(self):
        g = erdos_renyi(10, 0.3, seed=2)
        a = PerturbedShortestPaths(g, seed=5)
        b = PerturbedShortestPaths(g, seed=5)
        for e in g.edges():
            assert a.weight(*e) == b.weight(*e)

    def test_weights_dominated_by_hops(self):
        g = erdos_renyi(10, 0.3, seed=2)
        eng = PerturbedShortestPaths(g, seed=5)
        res = eng.search(0)
        plain = bfs_distances(g, 0)
        for v in range(g.n):
            assert res.dist_or_unreached(v) == plain[v]

    def test_path_weight_uniqueness(self):
        """Two distinct equal-length paths get distinct W-weights."""
        g = Graph(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
        eng = PerturbedShortestPaths(g, seed=3)
        from repro.core.paths import Path

        w1 = eng.path_weight(Path([0, 1, 3]))
        w2 = eng.path_weight(Path([0, 2, 3]))
        assert w1 != w2

    def test_canonical_path_minimizes_weight(self):
        g = erdos_renyi(14, 0.25, seed=8)
        eng = PerturbedShortestPaths(g, seed=9)
        ng = to_nx(g)
        for v in range(1, 8):
            if not nx.has_path(ng, 0, v):
                continue
            chosen = eng.canonical_path(0, v)
            for alt in nx.all_shortest_paths(ng, 0, v):
                from repro.core.paths import Path

                assert eng.path_weight(chosen) <= eng.path_weight(Path(alt))


class TestMakeEngine:
    def test_by_name(self):
        g = path_graph(3)
        assert isinstance(make_engine(g, "lex"), LexShortestPaths)
        assert isinstance(make_engine(g, "perturbed"), PerturbedShortestPaths)

    def test_unknown(self):
        with pytest.raises(GraphError):
            make_engine(path_graph(2), "magic")


class TestDistanceOracle:
    def test_matches_engine(self):
        g = erdos_renyi(15, 0.2, seed=4)
        oracle = DistanceOracle(g)
        res = LexShortestPaths(g).search(0)
        assert oracle.distances_from(0) == res.distances()

    def test_point_queries_reuse_buffers(self):
        g = grid_graph(4, 4)
        oracle = DistanceOracle(g)
        for _ in range(3):
            assert oracle.distance(0, 15) == 6
            assert oracle.distance(0, 15, banned_edges=[(0, 1), (0, 4)]) == INF

    def test_banned_source_distance(self):
        g = path_graph(3)
        oracle = DistanceOracle(g)
        assert oracle.distance(0, 2, banned_vertices=[0]) == INF

    def test_self_distance(self):
        g = path_graph(3)
        assert DistanceOracle(g).distance(1, 1) == 0

    def test_helpers(self):
        g = path_graph(5)
        assert bfs_distance(g, 0, 4) == 4
        assert bfs_distances(g, 2) == [2, 1, 0, 1, 2]
        assert eccentricity(g, 0) == 4


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=16),
    p=st.floats(min_value=0.1, max_value=0.5),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_lex_distances_vs_networkx(n, p, seed):
    g = erdos_renyi(n, p, seed=seed)
    res = LexShortestPaths(g).search(0)
    truth = nx.single_source_shortest_path_length(to_nx(g), 0)
    assert all(res.dist(v) == truth.get(v, INF) for v in g.vertices())


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=14),
    seed=st.integers(min_value=0, max_value=10_000),
    banned_count=st.integers(min_value=0, max_value=3),
)
def test_property_restricted_search_equals_edge_removal(n, seed, banned_count):
    """Banned-edge traversal == traversal of the physically reduced graph."""
    g = erdos_renyi(n, 0.35, seed=seed)
    edges = sorted(g.edges())
    banned = edges[:banned_count]
    reduced = g.without_edges(banned)
    res_masked = LexShortestPaths(g).search(0, banned_edges=banned)
    res_reduced = LexShortestPaths(reduced).search(0)
    assert res_masked.distances() == res_reduced.distances()
    for v in range(n):
        if res_masked.reached(v):
            assert res_masked.path(v) == res_reduced.path(v)


class TestDistanceOracleStampRegression:
    def test_banned_source_does_not_leak_previous_marks(self):
        """Regression: a banned-source query must report everything
        unreachable instead of echoing the previous query's marks."""
        g = path_graph(4)
        oracle = DistanceOracle(g)
        assert oracle.distances_from(0) == [0, 1, 2, 3]
        assert oracle.distances_from(0, banned_vertices=[0]) == [-1, -1, -1, -1]
        assert oracle.distance(0, 3, banned_vertices=[0]) == INF
        # and a fresh query afterwards is unaffected
        assert oracle.distances_from(1) == [1, 0, 1, 2]
