"""The process-wide snapshot cache: correctness of sharing + invalidation.

Three behaviors matter:

* **Invalidation** — entries are keyed on the graph's CSR snapshot, so
  a graph mutation (version bump → new snapshot) must make every
  consumer recompute; serving a stale distance would silently corrupt
  constructions.
* **Accounting** — hits/misses/evictions are observable, so regressions
  in cache effectiveness are testable instead of anecdotal.
* **Cross-instance sharing** — the point of centralizing the memos:
  two oracles, two engines, or two different builders on one graph must
  answer each other's repeated restricted searches.
"""

import gc

from repro.core.canonical import (
    CSRLexShortestPaths,
    DistanceOracle,
    shared_cache,
)
from repro.core.snapshot_cache import SnapshotCache
from repro.core.csr import csr_of
from repro.ftbfs import build_dual_ftbfs_simple, build_single_ftbfs
from repro.generators import erdos_renyi, path_graph


def test_hit_miss_accounting():
    cache = SnapshotCache()
    g = path_graph(6)
    oracle = DistanceOracle(g, cache=cache)
    assert cache.stats()["hits"] == 0 and cache.stats()["misses"] == 0
    assert oracle.distance(0, 5) == 5
    first = cache.stats()
    assert first["misses"] >= 1 and first["hits"] == 0
    assert oracle.distance(0, 5) == 5
    second = cache.stats()
    assert second["hits"] == first["hits"] + 1
    assert second["misses"] == first["misses"]
    cache.reset_stats()
    stats = cache.stats()
    assert stats["hits"] == stats["misses"] == stats["evictions"] == 0
    assert stats["entries"] >= 1  # reset_stats keeps the entries


def test_namespace_overflow_eviction():
    cache = SnapshotCache()
    snap = csr_of(path_graph(3))  # any weakref-able key object
    cache.put(snap, "ns", 1, "a", limit=2)
    cache.put(snap, "ns", 2, "b", limit=2)
    assert cache.stats()["entries"] == 2
    cache.put(snap, "ns", 3, "c", limit=2)  # overflow: wholesale clear
    assert cache.evictions == 2
    assert cache.get(snap, "ns", 1) is None
    assert cache.get(snap, "ns", 3) == "c"


def test_invalidation_on_graph_mutation():
    cache = SnapshotCache()
    g = path_graph(4)
    oracle = DistanceOracle(g, cache=cache)
    assert oracle.distance(0, 3) == 3
    assert oracle.distances_from(0) == [0, 1, 2, 3]
    miss_before = cache.misses
    g.add_edge(0, 3)  # version bump: every cached answer is stale
    assert oracle.distance(0, 3) == 1
    assert oracle.distances_from(0) == [0, 1, 2, 1]
    assert cache.misses > miss_before  # recomputed, not served stale
    # and the fresh answers are cached under the new snapshot
    hits_before = cache.hits
    assert oracle.distance(0, 3) == 1
    assert cache.hits == hits_before + 1


def test_mutation_retires_old_snapshot_table():
    cache = SnapshotCache()
    g = path_graph(5)
    oracle = DistanceOracle(g, cache=cache)
    oracle.distance(0, 4)
    assert cache.stats()["snapshots"] == 1
    g.add_edge(0, 4)
    oracle.distance(0, 4)  # binds the cache to the new snapshot
    gc.collect()  # the old snapshot has no strong refs left
    assert cache.stats()["snapshots"] == 1


def test_cross_oracle_sharing():
    cache = SnapshotCache()
    g = erdos_renyi(24, 0.2, seed=5)
    a = DistanceOracle(g, cache=cache)
    b = DistanceOracle(g, cache=cache)
    d = a.distance(0, 7, banned_edges=[(0, 1)])
    hits_before = cache.hits
    assert b.distance(0, 7, banned_edges=[(0, 1)]) == d
    assert cache.hits == hits_before + 1  # b answered from a's work


def test_cross_engine_sharing_serves_identical_result():
    cache = SnapshotCache()
    g = erdos_renyi(20, 0.2, seed=8)
    a = CSRLexShortestPaths(g, cache=cache)
    b = CSRLexShortestPaths(g, cache=cache)
    res_a = a.search(0, banned_vertices=[3])
    res_b = b.search(0, banned_vertices=[3])
    assert res_b is res_a  # literally the shared memo entry


def test_vector_entries_are_copied_not_aliased():
    cache = SnapshotCache()
    g = path_graph(5)
    oracle = DistanceOracle(g, cache=cache)
    vec = oracle.distances_from(0)
    vec[0] = 999  # caller-owned copy; must not corrupt the cache
    assert oracle.distances_from(0) == [0, 1, 2, 3, 4]


def test_cross_builder_sharing_via_shared_cache():
    """Two different builders on one graph reuse each other's searches."""
    cache = shared_cache()
    g = erdos_renyi(40, 0.12, seed=20)
    csr_of(g)  # settle the snapshot before measuring
    cache.clear()
    cache.reset_stats()
    try:
        build_single_ftbfs(g, 0)
        hits_single, misses_single = cache.hits, cache.misses
        assert misses_single > 0  # the first builder had to compute
        build_dual_ftbfs_simple(g, 0)
        delta_hits = cache.hits - hits_single
        delta_misses = cache.misses - misses_single
        # The dual builder replays the single-fault phase, so a visible
        # fraction of its queries must be answered by the first
        # builder's entries.
        assert delta_hits > 0
        assert delta_hits + delta_misses > 0
    finally:
        cache.clear()
        cache.reset_stats()


def test_default_consumers_use_the_process_wide_instance():
    g = path_graph(3)
    assert DistanceOracle(g)._cache is shared_cache()
    assert CSRLexShortestPaths(g)._cache is shared_cache()


# ----------------------------------------------------------------------
# weight-capped namespaces (distance-vector memos)
# ----------------------------------------------------------------------
class _Snap:
    """Weak-referenceable stand-in for a CSR snapshot."""


def test_weight_cap_evicts_namespace_wholesale():
    cache = SnapshotCache()
    snap = _Snap()
    # budget of 100 "ints"; 40-int entries: the third insert overflows
    cache.put(snap, "vec", "a", [0] * 40, weight=40, weight_limit=100)
    cache.put(snap, "vec", "b", [0] * 40, weight=40, weight_limit=100)
    assert cache.evictions == 0
    cache.put(snap, "vec", "c", [0] * 40, weight=40, weight_limit=100)
    assert cache.evictions == 2  # a and b were cleared wholesale
    assert cache.get(snap, "vec", "a") is None
    assert cache.get(snap, "vec", "c") is not None
    assert cache.stats()["vector_weight"] == 40


def test_oversize_entry_never_cached():
    cache = SnapshotCache()
    snap = _Snap()
    cache.put(snap, "vec", "huge", [0] * 500, weight=500, weight_limit=100)
    assert cache.oversize == 1
    assert cache.get(snap, "vec", "huge") is None
    assert cache.stats()["oversize"] == 1


def test_weight_tracking_resets_on_clear():
    cache = SnapshotCache()
    snap = _Snap()
    cache.put(snap, "vec", "a", [0] * 10, weight=10, weight_limit=100)
    assert cache.stats()["vector_weight"] == 10
    cache.clear()
    assert cache.stats()["vector_weight"] == 0


def test_unweighted_puts_ignore_weight_budget():
    cache = SnapshotCache()
    snap = _Snap()
    for i in range(50):
        cache.put(snap, "pt", i, i)
    assert cache.evictions == 0
    assert cache.stats()["vector_weight"] == 0


def test_vector_namespace_respects_env_budget(monkeypatch):
    # a budget smaller than one distance vector: nothing is memoized,
    # but queries keep answering correctly
    monkeypatch.setattr(DistanceOracle, "VEC_CACHE_INTS", 4)
    g = erdos_renyi(20, 0.25, seed=3)
    oracle = DistanceOracle(g)
    before = shared_cache().oversize
    first = oracle.distances_from(0)
    second = oracle.distances_from(0)
    assert first == second
    assert shared_cache().oversize > before


def test_search_memo_respects_weight_budget(monkeypatch):
    monkeypatch.setattr(CSRLexShortestPaths, "SEARCH_CACHE_INTS", 4)
    g = erdos_renyi(18, 0.25, seed=5)
    engine = CSRLexShortestPaths(g)
    before = shared_cache().oversize
    res1 = engine.search(0)
    res2 = engine.search(0)
    assert res1.distances() == res2.distances()
    assert shared_cache().oversize > before


def test_bulk_namespace_access_matches_put_get():
    cache = SnapshotCache()
    snap = _Snap()
    ns = cache.namespace(snap, "pt")
    ns["k"] = 7
    assert cache.get(snap, "pt", "k") == 7
    for i in range(10):
        ns[i] = i
    cache.bulk_evict(ns, limit=5)
    assert len(ns) == 0
    assert cache.evictions == 11


def test_weight_capped_overwrite_does_not_inflate_weight():
    cache = SnapshotCache()
    snap = _Snap()
    for _ in range(50):  # e.g. partial→full search promotions
        cache.put(snap, "vec", "same-key", [0] * 40, weight=40, weight_limit=100)
    assert cache.stats()["vector_weight"] == 40
    assert cache.evictions == 0


def test_cached_repair_context_does_not_immortalize_snapshot():
    import weakref

    g = erdos_renyi(30, 0.2, seed=13)
    oracle = DistanceOracle(g)
    batch = oracle.batch()
    edges = sorted(g.edges())
    for t in range(1, 20):  # >=4 same-source edge-only probes builds
        batch.add(0, t, (edges[t % len(edges)],))  # the repair context
    batch.execute()
    ref = weakref.ref(csr_of(g))
    g.add_edge(0, 29)  # mutation retires the snapshot
    oracle.distance(0, 1)  # the oracle refreshes onto the new snapshot
    del batch
    gc.collect()
    assert ref() is None, "retired snapshot kept alive by cached repair context"


# ----------------------------------------------------------------------
# thread safety: the C kernel releases the GIL, so cache bookkeeping
# must stay exact under concurrent mutation (see the class docstring)
# ----------------------------------------------------------------------
def test_concurrent_hammer_exact_accounting():
    """N threads × K put/get cycles: counters and entries stay exact.

    Every op runs under the cache's internal lock, so despite arbitrary
    interleaving the totals are fully deterministic: each (thread, i)
    key misses exactly once and hits exactly once, and no eviction
    fires (the limit is far above the population).
    """
    import threading

    cache = SnapshotCache()
    snap = csr_of(path_graph(4))
    nthreads, kops = 8, 200
    errors = []

    def hammer(tid):
        try:
            for i in range(kops):
                key = (tid, i)
                assert cache.get(snap, "hammer", key) is None  # miss
                cache.put(snap, "hammer", key, i, limit=10 * nthreads * kops)
                assert cache.get(snap, "hammer", key) == i  # hit
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(t,)) for t in range(nthreads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    stats = cache.stats()
    assert stats["misses"] == nthreads * kops
    assert stats["hits"] == nthreads * kops
    assert stats["evictions"] == 0
    assert stats["entries"] == nthreads * kops


def test_concurrent_add_stats_is_atomic():
    """Racing add_stats deltas never lose an increment."""
    import threading

    cache = SnapshotCache()
    nthreads, kops = 8, 500

    def bump():
        for _ in range(kops):
            cache.add_stats(hits=1, delta_survived=2)

    threads = [threading.Thread(target=bump) for _ in range(nthreads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert cache.hits == nthreads * kops
    assert cache.delta_survived == 2 * nthreads * kops
