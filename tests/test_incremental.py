"""Incremental topology updates: deltas, migration, repair — bit-identity.

The contract of the delta path (``Graph.apply_delta`` →
:class:`~repro.core.csr.DeltaCSRGraph` → the survival certificates of
:mod:`repro.core.delta` → :meth:`~repro.replacement.base.SourceContext
.absorb_delta` → :meth:`~repro.ftbfs.oracle.FTQueryOracle.apply_delta`
→ the server's ``delta`` op) is that incrementality is *pure
optimization*: every answer after any chain of deltas must be
bit-identical to rebuilding from scratch on the mutated edge set, under
every engine, with every cache state.
"""

import pickle
import random

import pytest

from repro.core import csr as csr_module
from repro.core import delta as delta_module
from repro.core import parallel
from repro.core.canonical import ENGINES, DistanceOracle, make_engine
from repro.core.csr import CSRGraph, DeltaCSRGraph, csr_of
from repro.core.errors import GraphError
from repro.core.graph import Graph
from repro.core.snapshot_cache import shared_cache
from repro.ftbfs import FTQueryOracle, build_cons2ftbfs
from repro.generators import erdos_renyi
from repro.replacement.base import SourceContext

#: Every canonical hop engine arm, kernel ladder order.
ENGINE_ARMS = ["lex", "lex-csr"]

#: 0-1-3 / 0-2-3 square: tree parents from 0 are {1: 0, 2: 0, 3: 1},
#: so (2, 3) is a non-tree arc with the uncertifiable-from-distances
#: depth gap |d2 - d3| == 1 and (1, 3) is a tree arc.
SQUARE = [(0, 1), (0, 2), (1, 3), (2, 3)]


def non_edge(graph, rng):
    while True:
        u, v = rng.sample(range(graph.n), 2)
        e = (min(u, v), max(u, v))
        if not graph.has_edge(*e):
            return e


def search_sig(res, n):
    return (
        [res.dist_or_unreached(v) for v in range(n)],
        [res.parent(v) for v in range(n)],
    )


# ----------------------------------------------------------------------
# Graph.apply_delta: validation, merging, cancellation
# ----------------------------------------------------------------------
class TestApplyDelta:
    def test_atomic_validation(self):
        g = Graph(4, SQUARE)
        with pytest.raises(GraphError, match="existing edge"):
            g.apply_delta(adds=[(0, 1)])
        with pytest.raises(GraphError, match="absent"):
            g.apply_delta(removes=[(1, 2)])
        with pytest.raises(GraphError, match="both added and removed"):
            g.apply_delta(adds=[(0, 3)], removes=[(0, 3)])
        # nothing was applied: the graph is untouched
        assert sorted(g.edges()) == SQUARE
        assert g.apply_delta() == ((), ())

    def test_returns_sorted_normalized_tuples(self):
        g = Graph(4, SQUARE)
        added, removed = g.apply_delta(adds=[(3, 0)], removes=[(3, 2), (1, 0)])
        assert added == ((0, 3),)
        assert removed == ((0, 1), (2, 3))

    def test_consecutive_deltas_merge_into_one_patch(self):
        g = Graph(5, SQUARE)
        parent = csr_of(g)
        g.apply_delta(adds=[(0, 3)])
        g.apply_delta(adds=[(3, 4)], removes=[(2, 3)])
        snap = csr_of(g)
        assert isinstance(snap, DeltaCSRGraph)
        assert snap.overlay_churn == 3
        fresh = csr_of(Graph(5, sorted(g.edges())))
        assert snap.edge_index.keys() == fresh.edge_index.keys()
        del parent

    def test_cancelling_delta_readopts_parent_snapshot(self):
        g = Graph(4, SQUARE)
        snap = csr_of(g)
        g.apply_delta(adds=[(0, 3)])
        g.apply_delta(removes=[(0, 3)])
        assert csr_of(g) is snap  # net-zero churn: same arrays, new version
        assert snap.version == g.version

    def test_raw_mutation_stales_pending_delta(self):
        g = Graph(5, SQUARE)
        csr_of(g)
        g.apply_delta(adds=[(0, 3)])
        g.add_edge(3, 4)  # non-delta mutation: the record must not apply
        snap = csr_of(g)
        assert not isinstance(snap, DeltaCSRGraph)
        assert snap.m == 6


# ----------------------------------------------------------------------
# DeltaCSRGraph: patched snapshots and the overlay budget
# ----------------------------------------------------------------------
class TestDeltaSnapshot:
    def test_patched_snapshot_matches_fresh_flatten(self):
        rng = random.Random(2)
        g = erdos_renyi(30, 0.12, seed=2)
        csr_of(g)
        for _ in range(4):
            add = non_edge(g, rng)
            remove = rng.choice(sorted(g.edges()))
            g.apply_delta(adds=[add], removes=[remove])
            snap = csr_of(g)
            assert isinstance(snap, DeltaCSRGraph)
            fresh = csr_of(Graph(g.n, sorted(g.edges())))
            for s in range(g.n):
                a = DistanceOracle(g).distances_from(s)
                b = DistanceOracle(Graph(g.n, sorted(g.edges()))).distances_from(s)
                assert a == b

    def test_overlay_budget_forces_reflatten(self, monkeypatch):
        monkeypatch.setattr(csr_module, "DELTA_MAX_OVERLAY", 2)
        g = Graph(6, SQUARE)
        csr_of(g)
        g.apply_delta(adds=[(0, 4)], removes=[(2, 3)])  # churn 2: fits
        snap = csr_of(g)
        assert isinstance(snap, DeltaCSRGraph) and snap.overlay_churn == 2
        g.apply_delta(adds=[(4, 5)], removes=[(0, 4)])  # cumulative 4: over
        snap = csr_of(g)
        assert type(snap) is CSRGraph and snap.overlay_churn == 0


# ----------------------------------------------------------------------
# every engine, bit-identical through churn
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINE_ARMS)
def test_churn_script_bit_identity(engine):
    """Six single-edge swaps; after each, searches, distance vectors and
    faulted point queries on the long-lived state must equal a fresh
    build over the mutated edge set (fresh Graph = fresh snapshot =
    none of the migrated cache entries are shared)."""
    rng = random.Random(7)
    g = erdos_renyi(36, 0.11, seed=7)
    eng = make_engine(g, engine)
    oracle_cls = getattr(eng, "oracle_class", DistanceOracle)
    orc = oracle_cls(g)
    for s in (0, 1, 5):  # warm state that must survive or migrate
        eng.search(s)
        orc.distances_from(s)
    for _ in range(6):
        add = non_edge(g, rng)
        remove = rng.choice(sorted(g.edges()))
        g.apply_delta(adds=[add], removes=[remove])
        fresh = Graph(g.n, sorted(g.edges()))
        feng = make_engine(fresh, engine)
        forc = oracle_cls(fresh)
        fault = sorted(g.edges())[0]
        for s in (0, 1, 5):
            assert search_sig(eng.search(s), g.n) == search_sig(
                feng.search(s), g.n
            )
            assert orc.distances_from(s) == forc.distances_from(s)
            for t in (2, g.n - 1):
                assert orc.distance(s, t, banned_edges=[fault]) == forc.distance(
                    s, t, banned_edges=[fault]
                )


# ----------------------------------------------------------------------
# survival certificates and cache migration
# ----------------------------------------------------------------------
class TestMigration:
    def test_counters_account_for_every_entry(self):
        cache = shared_cache()
        cache.clear()
        g = erdos_renyi(30, 0.12, seed=4)
        orc = DistanceOracle(g)
        eng = make_engine(g, "lex-csr")
        for s in range(6):
            eng.search(s)
            orc.distances_from(s)
            orc.distance(s, g.n - 1)
        before = cache.stats()
        g.apply_delta(removes=[sorted(g.edges())[3]])
        csr_of(g)
        after = cache.stats()
        survived = after["delta_survived"] - before["delta_survived"]
        evicted = after["delta_evicted"] - before["delta_evicted"]
        assert survived + evicted > 0
        assert after["delta_rechecked"] >= before["delta_rechecked"]

    def test_vec_survives_through_complete_search_entry(self):
        """Deleting the non-tree arc (2, 3) fails the distance-only
        layering certificate (|d2 - d3| == 1) but the same-key complete
        search entry proves every label unchanged: the vector must
        migrate, exactly."""
        cache = shared_cache()
        cache.clear()
        g = Graph(4, SQUARE)
        make_engine(g, "lex-csr").search(0)  # complete, parent-carrying
        vec = DistanceOracle(g).distances_from(0)
        assert vec == [0, 1, 1, 2]
        g.apply_delta(removes=[(2, 3)])
        child = csr_of(g)
        table = cache.namespace(child, "vec:csr")
        assert table.get((0, (), ())) == [0, 1, 1, 2]
        assert DistanceOracle(g).distances_from(0) == [0, 1, 1, 2]

    def test_vec_evicts_without_complete_search_cover(self):
        """Same delta, but the only search entry is a target-stopped
        prefix: an incomplete entry covers only some labels and must
        not certify the vector."""
        cache = shared_cache()
        cache.clear()
        g = Graph(4, SQUARE)
        make_engine(g, "lex-csr").search(0, target=1)  # cached incomplete
        DistanceOracle(g).distances_from(0)
        g.apply_delta(removes=[(2, 3)])
        child = csr_of(g)
        assert (0, (), ()) not in cache.namespace(child, "vec:csr")

    def test_tree_arc_delete_evicts_search(self):
        cache = shared_cache()
        cache.clear()
        g = Graph(4, SQUARE)
        make_engine(g, "lex-csr").search(0)
        g.apply_delta(removes=[(1, 3)])  # tree arc: labels change
        child = csr_of(g)
        assert (0, (), ()) not in cache.namespace(child, "search:lex-csr")
        assert search_sig(make_engine(g, "lex-csr").search(0), 4) == search_sig(
            make_engine(Graph(4, sorted(g.edges())), "lex-csr").search(0), 4
        )

    def test_recheck_budget_bounds_point_refreshes(self, monkeypatch):
        def warm_points():
            cache = shared_cache()
            cache.clear()
            g = erdos_renyi(20, 0.18, seed=5)
            orc = DistanceOracle(g)
            fault = [sorted(g.edges())[4]]
            for t in range(g.n):
                orc.distance(0, t, banned_edges=fault)
            g.apply_delta(removes=[sorted(g.edges())[0]])
            return cache, csr_of(g)

        monkeypatch.setattr(delta_module, "DELTA_RECHECK", 0)
        cache, child = warm_points()
        zero_budget = len(cache.namespace(child, "pt:csr"))
        monkeypatch.setattr(delta_module, "DELTA_RECHECK", 256)
        cache, child = warm_points()
        # with budget the uncertified points are refreshed in place
        assert len(cache.namespace(child, "pt:csr")) > zero_budget


# ----------------------------------------------------------------------
# per-source structure repair (SourceContext.absorb_delta)
# ----------------------------------------------------------------------
class TestAbsorbDelta:
    def test_noop_keeps_tree_object(self):
        g = Graph(4, SQUARE)
        ctx = SourceContext(g, 0)
        tree = ctx.tree
        added, removed = g.apply_delta(removes=[(2, 3)])  # non-tree arc
        info = ctx.absorb_delta(added=added, removed=removed)
        assert info["mode"] == "noop" and info["damage"] == 0.0
        assert ctx.tree is tree  # π cache and all

    def test_repair_rederives_dirty_subtree(self):
        g = Graph(4, SQUARE)
        ctx = SourceContext(g, 0)
        added, removed = g.apply_delta(removes=[(1, 3)])  # tree arc of 3
        info = ctx.absorb_delta(added=added, removed=removed)
        assert info["mode"] == "repair"
        assert info["damage"] == pytest.approx(0.25)
        assert ctx.tree.parent(3) == 2  # rerouted through the survivor

    def test_damage_threshold_forces_rebuild(self, monkeypatch):
        monkeypatch.setattr(delta_module, "DELTA_MAX_DAMAGE", 0.0)
        g = Graph(4, SQUARE)
        ctx = SourceContext(g, 0)
        ctx.fault_distances((0, 1))
        added, removed = g.apply_delta(removes=[(1, 3)])
        info = ctx.absorb_delta(added=added, removed=removed)
        assert info["mode"] == "rebuild"
        assert info["fault_dropped"] == 1 and not ctx._fault_dist

    def test_reachability_expansion_forces_rebuild(self):
        g = Graph(5, SQUARE)  # vertex 4 isolated
        ctx = SourceContext(g, 0)
        added, removed = g.apply_delta(adds=[(3, 4)])
        info = ctx.absorb_delta(added=added, removed=removed)
        assert info["mode"] == "rebuild"
        assert ctx.tree.reached(4) and ctx.depth(4) == 3

    def test_fault_vector_pruning_is_exact(self):
        g = erdos_renyi(24, 0.16, seed=9)
        ctx = SourceContext(g, 0)
        faults = [e for e in sorted(g.edges()) if 0 not in e][:5]
        for e in faults:
            ctx.fault_distances(e)
        added, removed = g.apply_delta(removes=[faults[0]])
        info = ctx.absorb_delta(added=added, removed=removed)
        assert info["fault_kept"] + info["fault_dropped"] == len(faults)
        fresh = SourceContext(Graph(g.n, sorted(g.edges())), 0)
        for e, vec in ctx._fault_dist.items():
            assert list(vec) == list(fresh.fault_distances(e))

    @pytest.mark.parametrize("trial", range(8))
    def test_randomized_bit_identity(self, trial):
        rng = random.Random(100 + trial)
        g = erdos_renyi(30, 0.12, seed=trial)
        shared_cache().clear()
        ctx = SourceContext(g, 0)
        for e in rng.sample(sorted(g.edges()), 4):
            ctx.fault_distances(e)
        adds = [non_edge(g, rng)]
        removes = rng.sample(sorted(g.edges()), 2)
        added, removed = g.apply_delta(adds=adds, removes=removes)
        ctx.absorb_delta(added=added, removed=removed)
        fresh = SourceContext(Graph(g.n, sorted(g.edges())), 0)
        for v in range(g.n):
            assert ctx.tree.reached(v) == fresh.tree.reached(v)
            if ctx.tree.reached(v):
                assert ctx.tree.depth(v) == fresh.tree.depth(v)
                assert ctx.tree.parent(v) == fresh.tree.parent(v)
        for e, vec in ctx._fault_dist.items():
            assert list(vec) == list(fresh.fault_distances(e))


# ----------------------------------------------------------------------
# FTQueryOracle.apply_delta and the served `delta` op
# ----------------------------------------------------------------------
def sample_structure(n=24, p=0.18, seed=6):
    return build_cons2ftbfs(erdos_renyi(n, p, seed=seed), 0)


class TestOracleDelta:
    def test_post_delta_answers_match_fresh_oracle(self):
        rng = random.Random(11)
        s = sample_structure()
        oracle = FTQueryOracle(s)
        add = non_edge(s.subgraph(), rng)
        remove = [e for e in sorted(s.edges) if 0 not in e][0]
        added, removed = oracle.apply_delta(adds=[add], removes=[remove])
        assert add in added and remove in removed
        assert add in oracle.structure.edges
        assert remove not in oracle.structure.edges
        fresh = FTQueryOracle(oracle.structure)
        fault = [e for e in sorted(oracle.structure.edges) if 0 not in e][:1]
        for t in range(s.graph.n):
            assert oracle.distance(0, t) == fresh.distance(0, t)
            assert oracle.distance(0, t, fault) == fresh.distance(0, t, fault)

    def test_host_graph_keeps_superset_invariant(self):
        s = sample_structure()
        oracle = FTQueryOracle(s)
        g = s.graph
        add = non_edge(g, random.Random(13))  # absent even from G
        oracle.apply_delta(adds=[add])
        assert oracle.structure.graph.has_edge(*add)
        oracle.structure.subgraph()  # H ⊆ G revalidates cleanly

    def test_perturbed_engine_refuses_deltas(self):
        s = sample_structure()
        if "perturbed" not in ENGINES:
            pytest.skip("perturbed engine unavailable")
        oracle = FTQueryOracle(s, engine="perturbed")
        with pytest.raises(GraphError, match="perturbed"):
            oracle.apply_delta(removes=[sorted(s.edges)[0]])


class TestServedDelta:
    def test_delta_op_end_to_end(self):
        from repro.serve import QueryServer, ServeClient

        rng = random.Random(17)
        s = sample_structure()
        oracle = FTQueryOracle(s)
        server = QueryServer(oracle)
        address = server.start()
        try:
            with ServeClient(address) as client:
                add = non_edge(s.subgraph(), rng)
                remove = [e for e in sorted(s.edges) if 0 not in e][1]
                resp = client.delta(adds=[add], removes=[remove])
                assert resp["added"] == [list(add)]
                assert resp["removed"] == [list(remove)]
                assert resp["structure_edges"] == len(oracle.structure.edges)
                assert {
                    "delta_survived",
                    "delta_evicted",
                    "delta_rechecked",
                } <= resp["cache"].keys()
                fresh = FTQueryOracle(oracle.structure)
                for t in range(s.graph.n):
                    want = fresh.distance(0, t)
                    assert client.point(0, t, []) == (
                        -1 if want == float("inf") else int(want)
                    )
        finally:
            server.shutdown()


# ----------------------------------------------------------------------
# mutation after artifact load (adopted snapshots)
# ----------------------------------------------------------------------
class TestMutationAfterLoad:
    def test_loaded_oracle_absorbs_delta_and_keeps_preseeds(self, tmp_path):
        from repro.core.artifact import load_artifact, save_artifact

        s = sample_structure()
        path = save_artifact(s, tmp_path / "h.bin")
        cache = shared_cache()
        cache.clear()
        with load_artifact(path) as art:
            oracle = art.oracle()  # preseeds vec/pt/search namespaces
            before = cache.stats()["delta_survived"]
            rng = random.Random(19)
            add = non_edge(s.subgraph(), rng)
            remove = [e for e in sorted(s.edges) if 0 not in e][0]
            oracle.apply_delta(adds=[add], removes=[remove])
            oracle.distance(0, 0)  # first query patches + migrates
            assert cache.stats()["delta_survived"] > before  # preseeds moved
            fresh = FTQueryOracle(oracle.structure)
            for t in range(s.graph.n):
                assert oracle.distance(0, t) == fresh.distance(0, t)
            # post-delta state persists and round-trips
            path2 = save_artifact(oracle.structure, tmp_path / "h2.bin")
            with load_artifact(path2) as art2:
                assert art2.structure().edges == oracle.structure.edges

    def test_adopted_snapshot_invalidates_on_raw_mutation(self, tmp_path):
        from repro.core.artifact import load_artifact, save_artifact

        s = sample_structure()
        path = save_artifact(s, tmp_path / "h.bin")
        with load_artifact(path) as art:
            g = art.subgraph()
            adopted = csr_of(g)
            rng = random.Random(23)
            add = non_edge(g, rng)
            g.add_edge(*add)  # loose mutation: wholesale invalidation
            snap = csr_of(g)
            assert snap is not adopted
            assert not isinstance(snap, DeltaCSRGraph)
            fresh = Graph(g.n, sorted(g.edges()))
            assert DistanceOracle(g).distances_from(0) == DistanceOracle(
                fresh
            ).distances_from(0)

    def test_adopted_snapshot_patches_on_delta(self, tmp_path):
        from repro.core.artifact import load_artifact, save_artifact

        s = sample_structure()
        path = save_artifact(s, tmp_path / "h.bin")
        with load_artifact(path) as art:
            g = art.subgraph()
            adopted = csr_of(g)
            g.apply_delta(removes=[sorted(g.edges())[2]])
            snap = csr_of(g)
            assert isinstance(snap, DeltaCSRGraph)
            fresh = Graph(g.n, sorted(g.edges()))
            assert DistanceOracle(g).distances_from(0) == DistanceOracle(
                fresh
            ).distances_from(0)
            del adopted


# ----------------------------------------------------------------------
# satellite: memoized pickled graph payloads for the process pool
# ----------------------------------------------------------------------
class TestPayloadMemo:
    def test_memo_hits_on_same_version_and_invalidates_on_delta(self):
        g = erdos_renyi(16, 0.2, seed=3)
        first = parallel.graph_payload(g)
        assert parallel.graph_payload(g) is first  # same version: memo hit
        g.apply_delta(adds=[non_edge(g, random.Random(3))])
        second = parallel.graph_payload(g)
        assert second is not first
        assert second.value == (g.n, sorted(g.edges()))

    def test_wrapper_unpickles_to_raw_value(self):
        g = erdos_renyi(12, 0.2, seed=4)
        wrapped = parallel.graph_payload(g)
        assert pickle.loads(pickle.dumps(wrapped)) == wrapped.value

    def test_unwrap_resolves_wrappers_inline(self):
        g = erdos_renyi(12, 0.2, seed=5)
        wrapped = parallel.graph_payload(g)
        assert parallel._unwrap_payload(wrapped) == wrapped.value
        assert parallel._unwrap_payload((wrapped, "x")) == (wrapped.value, "x")
        assert parallel._unwrap_payload("plain") == "plain"
