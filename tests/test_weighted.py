"""Differential-test harness for the weighted + ECMP engine family.

Proves the two weighted engines correct against each other and against
an independent brute force (see ``docs/weighted.md``):

* ``wlex`` (reference heap Dijkstra) ≡ ``wlex-csr`` (Dial on the CSR
  kernel, the reference search for other weights) ≡ Bellman–Ford on
  distances, across fault restrictions;
* exact parent equality between the engines (the settle-rank tie-break
  is deterministic) plus parent validity against the distances;
* ECMP: predecessor DAGs identical across engines, ``ecmp_paths``
  equals an independent brute-force enumeration of all shortest paths;
* uniform weights reproduce the hop engines **bit-for-bit** (the lex
  tie-break contract);
* the Dial bucket queue and the reference search it delegates
  non-Dial weights to are bit-identical;
* weight validation, sentinel normalization, delta cache eviction,
  weighted topology loaders, and the oracle/batch/registry surfaces.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.canonical import (
    ENGINES,
    INF,
    UNREACHABLE,
    UNREACHED,
    make_engine,
    normalize_distance,
)
from repro.core.errors import DisconnectedError, GraphError
from repro.core.graph import Graph, check_weight
from repro.core.snapshot_cache import SnapshotCache, shared_cache
from repro.core.topology import load_edge_list, load_graphml
from repro.core.weighted import (
    DIAL_MAX_WEIGHT,
    CSRWeightedShortestPaths,
    ReferenceWeightedDistanceOracle,
    WeightedDistanceOracle,
    WeightedLexShortestPaths,
)
from tests.zoo import (
    random_restriction,
    random_weighted_graph,
    reweight,
    weighted_zoo_params,
    zoo_params,
)


# ----------------------------------------------------------------------
# independent brute forces
# ----------------------------------------------------------------------
def bellman_ford(graph, source, banned_edges=(), banned_vertices=()):
    """Brute-force weighted distances (no Dijkstra, no tie-break).

    Plain |V|-round edge relaxation over the surviving edge set —
    shares nothing with either engine, which is what makes it a real
    third arm of the differential.
    """
    be = {(u, v) if u < v else (v, u) for (u, v) in map(tuple, banned_edges)}
    bv = set(banned_vertices)
    live = [
        (u, v, graph.weight(u, v))
        for (u, v) in graph.edges()
        if (u, v) not in be and u not in bv and v not in bv
    ]
    dist = [INF] * graph.n
    dist[source] = 0
    for _ in range(graph.n):
        changed = False
        for u, v, w in live:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
            if dist[v] + w < dist[u]:
                dist[u] = dist[v] + w
                changed = True
        if not changed:
            break
    return dist


def brute_shortest_paths(graph, source, target, banned_edges=(), banned_vertices=()):
    """All equal-cost shortest paths by bidirectional-pruned DFS.

    Uses Bellman–Ford vectors from *both* endpoints to extend a path
    only along edges that stay on some shortest path — independent of
    the engines' predecessor-DAG construction.
    """
    be = {(u, v) if u < v else (v, u) for (u, v) in map(tuple, banned_edges)}
    bv = set(banned_vertices)
    d_src = bellman_ford(graph, source, banned_edges, banned_vertices)
    d_dst = bellman_ford(graph, target, banned_edges, banned_vertices)
    total = d_src[target]
    if total == INF:
        return None
    adj = graph.adjacency()
    out = []

    def walk(u, cost, path):
        if u == target:
            out.append(tuple(path))
            return
        for v in adj[u]:
            e = (u, v) if u < v else (v, u)
            if v in bv or e in be:
                continue
            w = graph.weight(u, v)
            if cost + w + d_dst[v] == total:
                path.append(v)
                walk(v, cost + w, path)
                path.pop()

    walk(source, 0, [source])
    return sorted(out)


def restrictions_for(graph, seed, rounds=4, forbid=(0,)):
    """A deterministic list of restrictions, always including the empty one."""
    rng = random.Random(f"test_weighted:{seed}")
    out = [((), ())]
    for _ in range(rounds):
        out.append(random_restriction(graph, rng, forbid=forbid))
    return out


def parents_of(res, n):
    """The full canonical-parent vector of a search result."""
    return [res.parent(v) for v in range(n)]


def engine_pair(graph):
    """Fresh independent engine arms (private cache: no cross-test reuse)."""
    return (
        WeightedLexShortestPaths(graph),
        CSRWeightedShortestPaths(graph, cache=SnapshotCache()),
    )


def assert_search_agreement(graph, source, be, bv):
    """The core three-arm differential on one (source, restriction)."""
    ref, csr = engine_pair(graph)
    r1 = ref.search(source, be, bv)
    r2 = csr.search(source, be, bv)
    assert list(r1.distances()) == list(r2.distances())
    assert parents_of(r1, graph.n) == parents_of(r2, graph.n)
    bf = bellman_ford(graph, source, be, bv)
    got = list(r1.distances())
    expect = [UNREACHED if d == INF else d for d in bf]
    assert got == expect
    # Parent validity: every reached non-source parent sits one tight
    # edge above its child; the source is its own parent.
    parents = parents_of(r1, graph.n)
    assert parents[source] == source
    for v in range(graph.n):
        if v == source:
            continue
        if got[v] == UNREACHED:
            assert parents[v] == UNREACHED
        else:
            p = parents[v]
            assert p != UNREACHED
            assert got[p] + graph.weight(p, v) == got[v]


# ----------------------------------------------------------------------
# the differential over the weighted zoo
# ----------------------------------------------------------------------
@weighted_zoo_params()
class TestWeightedZooDifferential:
    def test_engines_match_each_other_and_bellman_ford(self, name, graph):
        sources = (0, graph.n // 2)
        for be, bv in restrictions_for(graph, name, forbid=sources):
            for source in sources:
                assert_search_agreement(graph, source, be, bv)

    def test_ecmp_dag_identical_across_engines(self, name, graph):
        ref, csr = engine_pair(graph)
        for be, bv in restrictions_for(graph, f"dag:{name}", rounds=2):
            assert ref.ecmp_dag(0, be, bv) == csr.ecmp_dag(0, be, bv)


# ----------------------------------------------------------------------
# property-based differential (hypothesis)
# ----------------------------------------------------------------------
class TestWeightedProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 18),
        p=st.floats(0.1, 0.5),
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["tie-int", "big-int", "float"]),
        fault_seed=st.integers(0, 10_000),
    )
    def test_random_weighted_graphs(self, n, p, seed, kind, fault_seed):
        graph = random_weighted_graph(n, p, seed, kind=kind)
        rng = random.Random(fault_seed)
        be, bv = random_restriction(graph, rng)
        assert_search_agreement(graph, 0, be, bv)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(2, 10),
        p=st.floats(0.2, 0.6),
        seed=st.integers(0, 10_000),
        fault_seed=st.integers(0, 10_000),
    )
    def test_ecmp_paths_match_brute_force(self, n, p, seed, fault_seed):
        graph = random_weighted_graph(n, p, seed, kind="tie-int")
        rng = random.Random(fault_seed)
        be, bv = random_restriction(graph, rng, max_edges=2, max_vertices=2)
        target = graph.n - 1
        expected = brute_shortest_paths(graph, 0, target, be, bv)
        ref, csr = engine_pair(graph)
        if expected is None:
            for eng in (ref, csr):
                with pytest.raises(DisconnectedError):
                    eng.ecmp_paths(0, target, be, bv)
            return
        got_ref = ref.ecmp_paths(0, target, be, bv)
        got_csr = csr.ecmp_paths(0, target, be, bv)
        assert got_ref == expected
        assert got_csr == expected
        # lex-sorted, deterministic ordering; every path costs the same
        assert got_ref == sorted(got_ref)
        costs = {
            sum(graph.weight(a, b) for a, b in zip(p0, p0[1:]))
            for p0 in got_ref
        }
        assert len(costs) == 1


# ----------------------------------------------------------------------
# ECMP edge cases
# ----------------------------------------------------------------------
def diamond_chain(k):
    """k stacked diamonds: exactly ``2**k`` equal-cost 0→end paths."""
    g = Graph(3 * k + 1)
    s = 0
    for i in range(k):
        a, b, t = 3 * i + 1, 3 * i + 2, 3 * i + 3
        for u, v in ((s, a), (s, b), (a, t), (b, t)):
            g.add_edge(u, v, 1)
        s = t
    return g


class TestEcmpEdgeCases:
    def test_disconnected_pair_raises(self):
        g = reweight(Graph(4, [(0, 1), (1, 2), (2, 3)]), 7)
        for eng in engine_pair(g):
            with pytest.raises(DisconnectedError):
                eng.ecmp_paths(0, 3, banned_edges=[(1, 2)])

    def test_path_count_and_limit_guard(self):
        g = diamond_chain(5)
        target = g.n - 1
        for eng in engine_pair(g):
            paths = eng.ecmp_paths(0, target)
            assert len(paths) == 32
            assert len(set(paths)) == 32
            with pytest.raises(GraphError) as err:
                eng.ecmp_paths(0, target, limit=31)
            assert "equal-cost paths" in str(err.value)

    def test_dag_is_tiebreak_independent(self):
        g = diamond_chain(3)
        ref, csr = engine_pair(g)
        dag = ref.ecmp_dag(0)
        assert dag == csr.ecmp_dag(0)
        assert dag[0] == ()  # source has no predecessors
        # both diamond arms are predecessors of every merge vertex
        for i in range(3):
            assert dag[3 * i + 3] == (3 * i + 1, 3 * i + 2)

    def test_banned_vertex_prunes_dag_and_paths(self):
        g = diamond_chain(2)
        for eng in engine_pair(g):
            dag = eng.ecmp_dag(0, banned_vertices=[1])
            assert dag[3] == (2,)
            paths = eng.ecmp_paths(0, g.n - 1, banned_vertices=[1])
            assert len(paths) == 2
            assert all(1 not in p for p in paths)


# ----------------------------------------------------------------------
# uniform weights ≡ hop engines, bit-for-bit
# ----------------------------------------------------------------------
@zoo_params()
class TestUniformWeightBitIdentity:
    def test_uniform_weights_reproduce_lex_engines(self, name, graph):
        pairs = [
            (WeightedLexShortestPaths(graph), ENGINES["lex"](graph)),
            (
                CSRWeightedShortestPaths(graph, cache=SnapshotCache()),
                ENGINES["lex-csr"](graph, cache=SnapshotCache()),
            ),
        ]
        for be, bv in restrictions_for(graph, f"uniform:{name}", rounds=2):
            for weighted_eng, hop_eng in pairs:
                rw = weighted_eng.search(0, be, bv)
                rh = hop_eng.search(0, be, bv)
                # json round-trip catches 2.0-vs-2 type drift, not just
                # value equality: "bit-for-bit" is the contract.
                assert json.dumps(list(rw.distances())) == json.dumps(
                    list(rh.distances())
                )
                assert parents_of(rw, graph.n) == parents_of(rh, graph.n)


# ----------------------------------------------------------------------
# Dial bucket queue vs the delegated reference search
# ----------------------------------------------------------------------
class TestDialVsHeap:
    def test_dial_engages_only_for_small_integers(self):
        tie = random_weighted_graph(12, 0.3, seed=5, kind="tie-int")
        big = random_weighted_graph(12, 0.3, seed=5, kind="big-int")
        flt = random_weighted_graph(12, 0.3, seed=5, kind="float")
        assert CSRWeightedShortestPaths(tie, cache=SnapshotCache())._use_dial
        assert not CSRWeightedShortestPaths(big, cache=SnapshotCache())._use_dial
        assert not CSRWeightedShortestPaths(flt, cache=SnapshotCache())._use_dial

    def test_boundary_weight_is_dial_eligible(self):
        g = Graph(3)
        g.add_edge(0, 1, DIAL_MAX_WEIGHT)
        g.add_edge(1, 2, 1)
        assert CSRWeightedShortestPaths(g, cache=SnapshotCache())._use_dial
        g2 = Graph(3)
        g2.add_edge(0, 1, DIAL_MAX_WEIGHT + 1)
        g2.add_edge(1, 2, 1)
        assert not CSRWeightedShortestPaths(g2, cache=SnapshotCache())._use_dial

    def test_dial_and_heap_are_bit_identical(self):
        """Dial against the reference heap search that non-Dial
        weights delegate to, forced on the same tie-heavy graph."""
        for seed in range(4):
            graph = random_weighted_graph(14, 0.3, seed=seed, kind="tie-int")
            dial = CSRWeightedShortestPaths(graph, cache=SnapshotCache())
            heap = CSRWeightedShortestPaths(graph, cache=SnapshotCache())
            assert dial._use_dial
            heap._use_dial = False  # delegate to the reference search
            sources = (0, graph.n - 1)
            for be, bv in restrictions_for(
                graph, f"dial:{seed}", rounds=3, forbid=sources
            ):
                for source in sources:
                    # target first: an early-exit search, then the
                    # memo's promotion of it to a full search
                    for target in (graph.n // 2, None):
                        rd = dial.search(source, be, bv, target=target)
                        rh = heap.search(source, be, bv, target=target)
                        assert list(rd.distances()) == list(rh.distances())
                        assert parents_of(rd, graph.n) == parents_of(
                            rh, graph.n
                        )

    @pytest.mark.parametrize("kind", ["big-int", "float"])
    def test_non_dial_weights_run_the_reference_inside_the_memo(self, kind):
        graph = random_weighted_graph(14, 0.3, seed=2, kind=kind)
        engine = CSRWeightedShortestPaths(graph, cache=SnapshotCache())
        assert not engine._use_dial
        reference = WeightedLexShortestPaths(graph)
        for be, bv in restrictions_for(graph, f"memo:{kind}", rounds=3):
            got = engine.search(0, be, bv)
            want = reference.search(0, be, bv)
            assert list(got.distances()) == list(want.distances())
            assert parents_of(got, graph.n) == parents_of(want, graph.n)
            assert engine.search(0, be, bv) is got  # served by the memo

    def test_target_early_exit_matches_full_search(self):
        graph = random_weighted_graph(14, 0.3, seed=9, kind="tie-int")
        for eng in engine_pair(graph):
            full = eng.search(0)
            for t in range(graph.n):
                res = eng.search(0, target=t)
                assert res.dist(t) == full.dist(t)
                if full.reached(t):
                    assert res.path(t) == full.path(t)


# ----------------------------------------------------------------------
# weight validation
# ----------------------------------------------------------------------
class TestWeightValidation:
    BAD = [0, -1, -0.5, float("nan"), float("inf"), True, False, "2", None]

    @pytest.mark.parametrize("bad", BAD, ids=[repr(b) for b in BAD])
    def test_check_weight_rejects(self, bad):
        with pytest.raises(GraphError):
            check_weight(bad)

    @pytest.mark.parametrize("bad", [0, -3, float("nan"), True])
    def test_add_edge_rejects_bad_weight(self, bad):
        g = Graph(3)
        with pytest.raises(GraphError):
            g.add_edge(0, 1, bad)
        assert not g.has_edge(0, 1)

    def test_apply_delta_rejects_bad_weighted_add(self):
        g = Graph(4, [(0, 1), (1, 2)])
        with pytest.raises(GraphError):
            g.apply_delta(adds=[(2, 3, 0)])
        assert not g.has_edge(2, 3)

    def test_check_weight_accepts_positive_numbers(self):
        for ok in (1, 2, 64, 65, 0.5, 1e-9, 2.5):
            check_weight(ok)


# ----------------------------------------------------------------------
# sentinels and normalization on weighted paths
# ----------------------------------------------------------------------
class TestWeightedSentinels:
    def test_unreachable_normalizes_to_the_documented_sentinel(self):
        g = Graph(4)
        g.add_edge(0, 1, 2)
        g.add_edge(2, 3, 3)  # second component
        oracle = WeightedDistanceOracle(g, cache=SnapshotCache())
        assert oracle.distance(0, 3) == INF
        assert normalize_distance(oracle.distance(0, 3)) == UNREACHABLE
        vec = oracle.distances_from(0)
        assert vec[3] == UNREACHED
        assert normalize_distance(vec[3]) == UNREACHABLE

    def test_integral_weighted_distances_collapse_to_int(self):
        g = Graph(3)
        g.add_edge(0, 1, 2)
        g.add_edge(1, 2, 3)
        oracle = WeightedDistanceOracle(g, cache=SnapshotCache())
        d = normalize_distance(oracle.distance(0, 2))
        assert d == 5 and isinstance(d, int)

    def test_fractional_distances_pass_through(self):
        g = Graph(3)
        g.add_edge(0, 1, 0.5)
        g.add_edge(1, 2, 0.25)
        oracle = WeightedDistanceOracle(g, cache=SnapshotCache())
        assert normalize_distance(oracle.distance(0, 2)) == 0.75

    def test_batch_coercion_contract(self):
        g = Graph(5)
        g.add_edge(0, 1, 2)
        g.add_edge(1, 2, 0.5)
        oracle = WeightedDistanceOracle(g, cache=SnapshotCache())
        batch = oracle.batch()
        s_int = batch.add(0, 1)
        s_frac = batch.add(0, 2)
        s_cut = batch.add(0, 4)
        s_dup = batch.add(0, 1)
        assert [s_int, s_frac, s_cut, s_dup] == [0, 1, 2, 3]
        out = batch.execute()
        assert out == [2, 2.5, UNREACHED, 2]
        assert isinstance(out[s_int], int)
        assert out[s_frac] == 2.5
        assert out[s_cut] == UNREACHED
        assert out[s_dup] == out[s_int]


# ----------------------------------------------------------------------
# apply_delta: weighted cache eviction + correctness
# ----------------------------------------------------------------------
class TestWeightedDelta:
    def test_wsearch_entries_are_evicted_not_migrated(self):
        graph = random_weighted_graph(12, 0.35, seed=3, kind="tie-int")
        engine = CSRWeightedShortestPaths(graph)  # shared cache on purpose
        cache = shared_cache()
        engine.search(0)
        old_csr = engine._snapshot()
        key = (0, (), ())
        assert cache.get(old_csr, engine._search_ns, key) is not None
        victim = sorted(graph.edges())[0]
        graph.apply_delta(removes=[victim])
        new_csr = engine._snapshot()  # triggers migrate_cache
        # hop-layering certificates are unsound for weighted searches:
        # the wsearch: namespace must never survive a delta.
        assert cache.get(new_csr, engine._search_ns, key) is None

    def test_post_delta_searches_match_fresh_engine(self):
        graph = random_weighted_graph(12, 0.35, seed=4, kind="tie-int")
        engine = CSRWeightedShortestPaths(graph, cache=SnapshotCache())
        engine.search(0)  # warm the memo pre-delta
        victim = sorted(graph.edges())[-1]
        graph.apply_delta(removes=[victim], adds=[])
        fresh = CSRWeightedShortestPaths(graph.copy(), cache=SnapshotCache())
        for source in (0, graph.n // 2):
            ra = engine.search(source)
            rb = fresh.search(source)
            assert list(ra.distances()) == list(rb.distances())
            assert parents_of(ra, graph.n) == parents_of(rb, graph.n)
        bf = bellman_ford(graph, 0)
        assert list(engine.search(0).distances()) == [
            UNREACHED if d == INF else d for d in bf
        ]

    def test_weighted_adds_carry_their_weight(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        g.apply_delta(adds=[(0, 3, 5)])
        assert g.weight(0, 3) == 5
        assert g.weighted
        ref, csr = engine_pair(g)
        assert ref.search(0).dist(3) == 3  # hop path 0-1-2-3 beats w=5 edge
        assert csr.search(0).dist(3) == 3


# ----------------------------------------------------------------------
# weighted topology loaders
# ----------------------------------------------------------------------
GRAPHML_DELAY = """<graphml>
  <key id="d0" for="edge" attr.name="delay" attr.type="double"/>
  <graph edgedefault="undirected">
    <node id="a"/><node id="b"/><node id="c"/>
    <edge source="a" target="b"><data key="d0">7</data></edge>
    <edge source="b" target="c"><data key="d0">2.5</data></edge>
    <edge source="a" target="c"/>
  </graph>
</graphml>
"""


class TestWeightedLoaders:
    def test_graphml_delay_attribute_becomes_weights(self, tmp_path):
        path = tmp_path / "delays.graphml"
        path.write_text(GRAPHML_DELAY)
        topo = load_graphml(path)
        g = topo.graph
        assert g.weighted
        assert g.weight(*topo.edge(("a", "b"))) == 7
        assert g.weight(*topo.edge(("b", "c"))) == 2.5
        assert g.weight(*topo.edge(("a", "c"))) == 1  # no datum: unit

    def test_graphml_bad_weight_names_the_file(self, tmp_path):
        path = tmp_path / "bad.graphml"
        path.write_text(GRAPHML_DELAY.replace(">7<", ">-7<"))
        with pytest.raises(GraphError) as err:
            load_graphml(path)
        assert "bad.graphml" in str(err.value)

    def test_edge_list_triples(self, tmp_path):
        path = tmp_path / "weighted.edges"
        path.write_text("a b 3\nb c 1.5\nc d\n")
        topo = load_edge_list(path)
        g = topo.graph
        assert g.weighted
        assert g.weight(*topo.edge(("a", "b"))) == 3
        assert g.weight(*topo.edge(("b", "c"))) == 1.5
        assert g.weight(*topo.edge(("c", "d"))) == 1

    def test_edge_list_bad_weight_names_the_file(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("a b zero\n")
        with pytest.raises(GraphError) as err:
            load_edge_list(path)
        assert "bad.edges" in str(err.value)


# ----------------------------------------------------------------------
# oracle surface equivalence
# ----------------------------------------------------------------------
class TestOracleSurfaces:
    def _oracles(self, graph):
        return (
            WeightedDistanceOracle(graph, cache=SnapshotCache()),
            ReferenceWeightedDistanceOracle(graph),
        )

    def test_oracles_agree_everywhere(self):
        graph = random_weighted_graph(13, 0.3, seed=11, kind="float")
        a, b = self._oracles(graph)
        for be, bv in restrictions_for(graph, "oracle", rounds=3):
            for s in (0, 5):
                assert a.distances_from(s, be, bv) == b.distances_from(s, be, bv)
                for t in (0, 6, graph.n - 1):
                    assert a.distance(s, t, be, bv) == b.distance(s, t, be, bv)
            pairs = [(0, t) for t in range(graph.n)] + [(5, 0), (5, 12)]
            assert a.distances_bulk(pairs, be, bv) == b.distances_bulk(pairs, be, bv)
            assert a.multi_source_distances([0, 5], be, bv) == (
                b.multi_source_distances([0, 5], be, bv)
            )

    def test_banned_source_conventions(self):
        graph = random_weighted_graph(8, 0.4, seed=2)
        for oracle in self._oracles(graph):
            assert oracle.distance(3, 0, banned_vertices=[3]) == INF
            assert oracle.distances_from(3, banned_vertices=[3]) == (
                [UNREACHED] * graph.n
            )
            assert oracle.distance(0, graph.n + 5) == INF

    def test_bulk_matches_point_queries(self):
        graph = random_weighted_graph(10, 0.35, seed=6, kind="tie-int")
        oracle = WeightedDistanceOracle(graph, cache=SnapshotCache())
        pairs = [(s, t) for s in range(3) for t in range(graph.n)]
        bulk = oracle.distances_bulk(pairs, banned_edges=[(0, 1)])
        point = [
            oracle.distance(s, t, banned_edges=[(0, 1)]) for s, t in pairs
        ]
        assert bulk == point


# ----------------------------------------------------------------------
# registry wiring
# ----------------------------------------------------------------------
class TestRegistry:
    def test_engines_registered(self):
        assert ENGINES["wlex"] is WeightedLexShortestPaths
        assert ENGINES["wlex-csr"] is CSRWeightedShortestPaths

    def test_make_engine_constructs_weighted_engines(self):
        g = random_weighted_graph(6, 0.5, seed=1)
        assert isinstance(make_engine(g, "wlex"), WeightedLexShortestPaths)
        assert isinstance(make_engine(g, "wlex-csr"), CSRWeightedShortestPaths)

    def test_weighted_flag_partitions_the_registry(self):
        weighted = {
            name for name, cls in ENGINES.items()
            if getattr(cls, "weighted", False)
        }
        assert weighted == {"wlex", "wlex-csr"}

    def test_oracle_class_wiring(self):
        assert WeightedLexShortestPaths.oracle_class is (
            ReferenceWeightedDistanceOracle
        )
        assert CSRWeightedShortestPaths.oracle_class is WeightedDistanceOracle
        assert ReferenceWeightedDistanceOracle.ENGINE_CLASS is (
            WeightedLexShortestPaths
        )
