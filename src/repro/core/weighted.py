"""Weighted canonical shortest paths — Dijkstra with a lex tie-break.

The lex engine family of :mod:`repro.core.canonical` is BFS-only; this
module supplies its weighted sibling so the corpus topologies' real
link costs (Abilene delays, fat-tree metrics — see
:mod:`repro.core.topology`) become actual inputs.  Two interchangeable
engines compute the identical canonical assignment:

``WeightedLexShortestPaths`` (``"wlex"``)
    The reference implementation: a plain binary-heap Dijkstra over
    the graph's adjacency view with the *settle-rank* tie-break below.
    Deliberately kernel-free so it is an independent check on the CSR
    engine (the same role ``lex`` plays for ``lex-csr``).

``CSRWeightedShortestPaths`` (``"wlex-csr"``)
    The same assignment on the flat-array kernel of
    :mod:`repro.core.csr`: weights are tabulated per edge id, bans are
    generation stamps, and the seen/settled flags are pooled stamp
    buffers (the scratch discipline of ``PerturbedShortestPaths``).
    When every weight is a small integer (at most
    :data:`DIAL_MAX_WEIGHT`) the priority queue is a Dial bucket
    array — distances are dense small ints, so a list of buckets
    processed in increasing distance replaces the heap.  Any other
    weights (floats, or integers above the cap) run the reference
    search inside the same memo: a CSR heap measured no faster than
    it.  Dial is bit-identical to the reference (asserted by
    ``tests/test_weighted.py``).

**Tie-break rule.**  Vertices are settled in ascending
``(distance, rank(parent), vertex id)`` order, where ``rank(u)`` is
the settle counter of ``u`` in the same search, and the canonical
parent of ``v`` is the first settled neighbor achieving ``dist(v)``
(equivalently: the optimal parent with the smallest settle rank).
Strictly positive weights make every optimal parent settle before its
child, so the rule is well-founded, deterministic, and
subpath-consistent — canonical structures stay unique.  Under uniform
weights the settle order degenerates to the legacy BFS lex order
``(parent rank, vertex id)``, so the weighted engines reproduce the
``lex``/``lex-csr`` trees *bit for bit* (the tie-break contract test
in ``tests/test_weighted.py``).

**ECMP surface.**  Both engines expose the equal-cost multipath
structure behind deterministic ordering: :meth:`ecmp_dag` exports the
predecessor DAG (``preds[v]`` = every neighbor ``u`` with
``dist(u) + w(u, v) == dist(v)``, ascending) and :meth:`ecmp_paths`
enumerates *all* shortest paths between two vertices in ascending
lexicographic order of their vertex sequences (the
``single_source_dijkstra_ecmp_paths`` idiom).  Unlike the canonical
tree, the DAG is tie-break independent, so it is a second, stronger
differential signal between the engines.

Caches: search memos live in the process-wide snapshot cache under
``wsearch:``/``wpt:`` namespaces.  These prefixes deliberately do NOT
match the ``search:``/``vec:``/``pt:`` prefixes that
:func:`repro.core.delta.migrate_cache` knows how to certify — the
hop-layering migration certificates are unsound for weighted
distances — so weighted entries take the unknown-namespace path and
are always evicted on :meth:`~repro.core.graph.Graph.apply_delta`
(correct, if conservative; asserted by ``tests/test_weighted.py``).
See ``docs/weighted.md`` for the full semantics.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.csr import CSRGraph, csr_of
from repro.core.errors import DisconnectedError, GraphError
from repro.core.graph import Graph
from repro.core.paths import Path
from repro.core.query_batch import LegacyQueryBatch
from repro.core.snapshot_cache import SnapshotCache, shared_cache

from repro.core.canonical import (
    ENGINES,
    INF,
    UNREACHED,
    SearchResult,
    _normalize_banned_edges,
    _normalize_banned_vertices,
)

#: Largest integer weight the Dial bucket queue accepts.  Above it (or
#: with any non-integer weight) ``CSRWeightedShortestPaths`` runs the
#: reference heap search: bucket count grows as ``n · max_weight``, and
#: past this point scanning empty buckets costs more than heap
#: maintenance.  Both are bit-identical, so the crossover only moves
#: the wall clock.
DIAL_MAX_WEIGHT = 64

#: Safety cap for :meth:`ecmp_paths` enumeration (the number of
#: shortest paths can be exponential in ``n``); exceeding it raises
#: :class:`~repro.core.errors.GraphError` instead of looping.
ECMP_PATHS_LIMIT = 10_000


def _weight_table(graph: Graph, csr: CSRGraph) -> List[float]:
    """Per-edge-id weight table aligned with the CSR snapshot.

    Sized by ``eid_cap``, not ``m``: on a patched (delta) snapshot the
    edge ids are sparse in ``[0, eid_cap)``.
    """
    wmap = graph.edge_weights()
    wts: List[float] = [0] * csr.eid_cap
    for e, i in csr.edge_index.items():
        wts[i] = wmap[e]
    return wts


class _EcmpMixin:
    """Shared ECMP query surface (both weighted engines provide it)."""

    def _ecmp_preds(
        self, res: SearchResult, banned_edges, banned_vertices
    ) -> List[Tuple[int, ...]]:
        g = self.graph
        be = _normalize_banned_edges(banned_edges)
        bv = _normalize_banned_vertices(banned_vertices)
        dist = res.distances()
        preds: List[List[int]] = [[] for _ in range(g.n)]
        for (u, v) in g.edges():
            if be is not None and (u, v) in be:
                continue
            if bv is not None and (u in bv or v in bv):
                continue
            du, dv = dist[u], dist[v]
            if du == UNREACHED and dv == UNREACHED:
                continue
            w = g.weight(u, v)
            if du != UNREACHED and dv != UNREACHED:
                if du + w == dv:
                    preds[v].append(u)
                elif dv + w == du:
                    preds[u].append(v)
        for lst in preds:
            lst.sort()
        return [tuple(lst) for lst in preds]

    def ecmp_dag(
        self,
        source: int,
        banned_edges: Iterable[Sequence[int]] = (),
        banned_vertices: Iterable[int] = (),
    ) -> List[Tuple[int, ...]]:
        """The equal-cost predecessor DAG from ``source``.

        Returns ``preds`` with one ascending tuple per vertex: every
        neighbor ``u`` with ``dist(u) + w(u, v) == dist(v)`` under the
        restriction.  The source and unreachable vertices get ``()``.
        The DAG depends only on the distance vector and the weights —
        not on the tie-break — so both engines export the identical
        structure (a differential invariant ``tests/test_weighted.py``
        asserts).
        """
        res = self.search(source, banned_edges, banned_vertices)
        return self._ecmp_preds(res, banned_edges, banned_vertices)

    def ecmp_paths(
        self,
        source: int,
        target: int,
        banned_edges: Iterable[Sequence[int]] = (),
        banned_vertices: Iterable[int] = (),
        limit: int = ECMP_PATHS_LIMIT,
    ) -> List[Tuple[int, ...]]:
        """All equal-cost shortest ``source → target`` paths, lex-sorted.

        Every returned tuple is a vertex sequence of one shortest path
        under the restriction; the list is sorted ascending by vertex
        sequence, so the first entry is the lex-minimal shortest path
        and the ordering is deterministic across engines.  Raises
        :class:`~repro.core.errors.DisconnectedError` when the
        restriction cuts the pair and
        :class:`~repro.core.errors.GraphError` when more than
        ``limit`` paths exist (ECMP blowup guard).
        """
        res = self.search(source, banned_edges, banned_vertices)
        if not res.reached(target):
            raise DisconnectedError(
                f"vertex {target} unreachable from {source} under restriction"
            )
        preds = self._ecmp_preds(res, banned_edges, banned_vertices)
        memo: Dict[int, List[Tuple[int, ...]]] = {source: [(source,)]}

        def expand(v: int) -> List[Tuple[int, ...]]:
            got = memo.get(v)
            if got is None:
                got = []
                for u in preds[v]:
                    for prefix in expand(u):
                        got.append(prefix + (v,))
                        if len(got) > limit:
                            raise GraphError(
                                f"more than {limit} equal-cost paths "
                                f"{source}->{target}; raise the limit "
                                f"to enumerate them"
                            )
                memo[v] = got
            return got

        out = sorted(expand(target))
        if len(out) > limit:
            raise GraphError(
                f"more than {limit} equal-cost paths {source}->{target}; "
                f"raise the limit to enumerate them"
            )
        return out


class WeightedLexShortestPaths(_EcmpMixin):
    """Reference heap Dijkstra with the settle-rank lex tie-break.

    Runs on the graph's plain adjacency view with per-edge weight
    lookups — no CSR kernel, no pooled scratch — so it shares no code
    with :class:`CSRWeightedShortestPaths` beyond the result type and
    is a genuinely independent arm of the weighted differential
    harness (``tests/test_weighted.py``).
    """

    name = "wlex"
    weighted = True

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._wadj: Optional[Tuple[int, List[List[Tuple[int, float]]]]] = None

    def _weighted_adjacency(self) -> List[List[Tuple[int, float]]]:
        """Per-vertex ``(neighbor, weight)`` rows, cached per version."""
        g = self.graph
        memo = self._wadj
        if memo is not None and memo[0] == g.version:
            return memo[1]
        adj = g.adjacency()
        wmap = g.edge_weights()
        rows: List[List[Tuple[int, float]]] = [
            [(v, wmap[(u, v) if u < v else (v, u)]) for v in adj[u]]
            for u in range(g.n)
        ]
        self._wadj = (g.version, rows)
        return rows

    def search(
        self,
        source: int,
        banned_edges: Iterable[Sequence[int]] = (),
        banned_vertices: Iterable[int] = (),
        target: Optional[int] = None,
    ) -> SearchResult:
        """Weighted canonical search from ``source`` under a restriction.

        Same signature and semantics as the lex engines' ``search``;
        distances are weighted sums instead of hop counts (still
        ``-1``-encoded when unreachable in the raw vectors).  With a
        ``target`` the search stops once the target settles — its
        distance, canonical parent and canonical path are final.
        """
        g = self.graph
        if not g.has_vertex(source):
            raise GraphError(f"invalid source {source}")
        be = _normalize_banned_edges(banned_edges)
        bv = _normalize_banned_vertices(banned_vertices)
        if bv is not None and source in bv:
            raise GraphError(f"source {source} is banned")
        rows = self._weighted_adjacency()
        n = g.n
        cost: List[float] = [0] * n
        seen = [False] * n
        done = [False] * n
        parent = [UNREACHED] * n
        rank = [0] * n
        counter = 0
        seen[source] = True
        parent[source] = source
        heap: List[Tuple[float, int, int]] = [(0, 0, source)]
        while heap:
            cu, _pr, u = heappop(heap)
            if done[u] or cost[u] != cu:
                continue
            done[u] = True
            rank[u] = counter
            counter += 1
            if target is not None and u == target:
                break
            ru = rank[u]
            for v, w in rows[u]:
                if done[v]:
                    continue
                if bv is not None and v in bv:
                    continue
                if be is not None:
                    e = (u, v) if u < v else (v, u)
                    if e in be:
                        continue
                nd = cu + w
                if not seen[v] or nd < cost[v]:
                    seen[v] = True
                    cost[v] = nd
                    parent[v] = u
                    heappush(heap, (nd, ru, v))
                # nd == cost[v]: the first optimal parent (minimum
                # settle rank — parents relax in settle order) wins.
        dist = [cost[v] if done[v] else UNREACHED for v in range(n)]
        parent_out = [parent[v] if seen[v] else UNREACHED for v in range(n)]
        return SearchResult(source, dist, parent_out)

    def canonical_path(
        self,
        source: int,
        target: int,
        banned_edges: Iterable[Sequence[int]] = (),
        banned_vertices: Iterable[int] = (),
    ) -> Path:
        """``SP(source, target, G', W)``: the unique canonical path."""
        res = self.search(source, banned_edges, banned_vertices, target=target)
        return res.path(target)


class CSRWeightedShortestPaths(_EcmpMixin):
    """The settle-rank weighted assignment on the flat-array kernel.

    Weights live in a per-edge-id table aligned with the CSR snapshot,
    bans are generation stamps and seen/settled flags are pooled stamp
    buffers, so a search allocates only its queue and result arrays.
    Small-integer weights use a Dial bucket queue (buckets hold
    pending vertices per integer distance; because weights are
    strictly positive, a bucket is complete before it is processed, so
    sorting it by ``(parent rank, vertex)`` reproduces the heap's
    settle order exactly); anything else runs
    :meth:`WeightedLexShortestPaths.search`, memoized like a Dial
    search.  Results are bit-identical either way.
    """

    name = "wlex-csr"
    weighted = True

    #: Entry-count limit and memory budget (total ints) for the search
    #: memo namespace, as on ``CSRLexShortestPaths``.
    SEARCH_CACHE_LIMIT = 8_192
    SEARCH_CACHE_INTS = 16_000_000

    def __init__(
        self, graph: Graph, cache: Optional[SnapshotCache] = None
    ) -> None:
        self.graph = graph
        self._cache = shared_cache() if cache is None else cache
        # "wsearch:" on purpose: it must NOT match the "search:" prefix
        # whose delta-migration certificates assume hop layering (see
        # the module docstring) — unknown namespaces are evicted.
        self._search_ns = "wsearch:" + self.name
        self._reference = WeightedLexShortestPaths(graph)
        self._csr = None
        self._bind(csr_of(graph))

    def _bind(self, csr: CSRGraph) -> None:
        """(Re)tabulate per-snapshot state: weights, Dial eligibility,
        and the stamped scratch arrays."""
        self._csr = csr
        self._w_eid = _weight_table(self.graph, csr)
        live = [self._w_eid[i] for i in csr.edge_index.values()]
        self._use_dial = all(
            isinstance(w, int) and w <= DIAL_MAX_WEIGHT for w in live
        )
        n = self.graph.n
        self._seen = [UNREACHED] * n
        self._done = [UNREACHED] * n
        self._cost: List[float] = [0] * n
        self._parent = [UNREACHED] * n
        self._rank = [0] * n
        self._gen = 0

    def _snapshot(self) -> CSRGraph:
        """The live CSR snapshot; weight table follows mutation."""
        csr = self._csr
        if csr.version != self.graph.version:
            self._bind(csr_of(self.graph))
            csr = self._csr
        return csr

    def _restriction_key(self, csr, source, banned_edges, banned_vertices):
        eids = csr.resolve_edge_ids(banned_edges)
        eids.sort()
        verts = sorted(set(banned_vertices)) if banned_vertices else []
        return (source, tuple(eids), tuple(verts)), eids, verts

    def search(
        self,
        source: int,
        banned_edges: Iterable[Sequence[int]] = (),
        banned_vertices: Iterable[int] = (),
        target: Optional[int] = None,
    ) -> SearchResult:
        """Weighted canonical search (see ``WeightedLexShortestPaths``).

        Results may be served from the keyed snapshot-cache memo; treat
        the returned :class:`~repro.core.canonical.SearchResult` as
        immutable.
        """
        if not self.graph.has_vertex(source):
            raise GraphError(f"invalid source {source}")
        csr = self._snapshot()
        banned_edges = tuple(banned_edges)  # the reference reads it again
        key, eids, verts = self._restriction_key(
            csr, source, banned_edges, banned_vertices
        )
        cache = self._cache
        ns = self._search_ns
        weight = 2 * csr.n
        weight_limit = self.SEARCH_CACHE_INTS
        entry = cache.get(csr, ns, key)
        if entry is not None:
            res, complete = entry
            if complete or (target is not None and res.reached(target)):
                return res
            res = self._run(csr, source, banned_edges, eids, verts, None)
            cache.put(
                csr, ns, key, (res, True),
                limit=self.SEARCH_CACHE_LIMIT, weight=weight,
                weight_limit=weight_limit,
            )
            return res
        res = self._run(csr, source, banned_edges, eids, verts, target)
        complete = target is None or not res.reached(target)
        cache.put(
            csr, ns, key, (res, complete),
            limit=self.SEARCH_CACHE_LIMIT, weight=weight,
            weight_limit=weight_limit,
        )
        return res

    def _run(
        self, csr: CSRGraph, source, banned_edges, eids, verts, target
    ) -> SearchResult:
        if not self._use_dial:
            return self._reference.search(source, banned_edges, verts, target)
        bg, have_e, have_v = csr.stamp_edge_ids(eids, verts)
        vban = csr._vban
        eban = csr._eban
        if have_v and vban[source] == bg:
            raise GraphError(f"source {source} is banned")
        gen = self._gen + 1
        self._gen = gen
        seen = self._seen
        done = self._done
        cost = self._cost
        parent = self._parent
        rank = self._rank
        arcs = csr.arcs
        wts = self._w_eid
        seen[source] = gen
        cost[source] = 0
        parent[source] = source
        counter = 0
        buckets: List[List[int]] = [[source]]
        d = 0
        while d < len(buckets):
            batch = buckets[d]
            live = [
                v for v in batch
                if done[v] != gen and seen[v] == gen and cost[v] == d
            ]
            if len(live) > 1:
                live.sort(key=lambda v: (rank[parent[v]], v))
            hit_target = False
            for u in live:
                done[u] = gen
                rank[u] = counter
                counter += 1
                if target is not None and u == target:
                    hit_target = True
                    break
                for v, e in arcs[u]:
                    if done[v] == gen:
                        continue
                    if have_v and vban[v] == bg:
                        continue
                    if have_e and eban[e] == bg:
                        continue
                    nd = d + wts[e]
                    if seen[v] != gen or nd < cost[v]:
                        seen[v] = gen
                        cost[v] = nd
                        parent[v] = u
                        while len(buckets) <= nd:
                            buckets.append([])
                        buckets[nd].append(v)
            if hit_target:
                break
            d += 1
        n = self.graph.n
        dist = [cost[v] if done[v] == gen else UNREACHED for v in range(n)]
        parent_out = [
            parent[v] if seen[v] == gen else UNREACHED for v in range(n)
        ]
        return SearchResult(source, dist, parent_out)

    def canonical_path(
        self,
        source: int,
        target: int,
        banned_edges: Iterable[Sequence[int]] = (),
        banned_vertices: Iterable[int] = (),
    ) -> Path:
        """``SP(source, target, G', W)``: the unique canonical path."""
        res = self.search(source, banned_edges, banned_vertices, target=target)
        return res.path(target)


class WeightedDistanceOracle:
    """Distance oracle over the CSR weighted engine.

    A thin façade adapting :class:`CSRWeightedShortestPaths` full
    searches to the oracle surface the scenario sweep, the serving
    layer and :class:`~repro.ftbfs.oracle.FTQueryOracle` consume
    (``distance`` / ``distances_from`` / ``distances_bulk`` /
    ``multi_source_distances`` / ``batch``).  Point queries run one
    full search per distinct ``(source, restriction)`` — served from
    the engine's snapshot-cache memo on repeats — which is the right
    trade at corpus scale and keeps every answer definitionally
    consistent with the engine (one computation, two views).

    Conventions match the hop oracles: scalar queries return ``inf``
    when the restriction cuts the pair *or bans the source*; vector
    queries encode unreachable as ``-1`` (values may be floats).
    """

    #: The engine family whose searches answer the queries (the
    #: reference oracle subclass swaps in the reference engine, keeping
    #: the two differential arms fully independent).
    ENGINE_CLASS = CSRWeightedShortestPaths

    def __init__(
        self, graph: Graph, cache: Optional[SnapshotCache] = None
    ) -> None:
        self.graph = graph
        if self.ENGINE_CLASS is CSRWeightedShortestPaths:
            self._engine = CSRWeightedShortestPaths(graph, cache)
        else:
            self._engine = self.ENGINE_CLASS(graph)

    def _search(self, source, banned_edges, banned_vertices):
        return self._engine.search(source, banned_edges, banned_vertices)

    def _source_banned(self, source, banned_vertices) -> bool:
        return bool(banned_vertices) and source in set(banned_vertices)

    def batch(self) -> LegacyQueryBatch:
        """A fresh dedupe-only planner bound to this oracle."""
        return LegacyQueryBatch(self)

    def distance(
        self,
        source: int,
        target: int,
        banned_edges: Iterable[Sequence[int]] = (),
        banned_vertices: Iterable[int] = (),
    ) -> float:
        """Weighted distance source→target under a restriction (inf if cut)."""
        if self._source_banned(source, banned_vertices):
            return INF
        if not (0 <= target < self.graph.n):
            return INF
        res = self._search(source, banned_edges, banned_vertices)
        return res.dist(target)

    def distances_bulk(
        self,
        pairs: Sequence[Tuple[int, int]],
        banned_edges: Iterable[Sequence[int]] = (),
        banned_vertices: Iterable[int] = (),
    ) -> List[float]:
        """Weighted distances for many pairs under one restriction.

        One full search per distinct source (memoized on the snapshot
        cache); element-for-element identical to per-pair
        :meth:`distance` calls.
        """
        out: List[float] = []
        memo: Dict[int, SearchResult] = {}
        for s, t in pairs:
            if self._source_banned(s, banned_vertices) or not (
                0 <= t < self.graph.n
            ):
                out.append(INF)
                continue
            res = memo.get(s)
            if res is None:
                res = self._search(s, banned_edges, banned_vertices)
                memo[s] = res
            out.append(res.dist(t))
        return out

    def distances_from(
        self,
        source: int,
        banned_edges: Iterable[Sequence[int]] = (),
        banned_vertices: Iterable[int] = (),
    ) -> List[float]:
        """All weighted distances from ``source`` (``-1`` = unreachable).

        Returns a fresh list safe to keep.  A banned source answers
        all-unreachable (the hop-oracle convention).
        """
        if self._source_banned(source, banned_vertices):
            return [UNREACHED] * self.graph.n
        res = self._search(source, banned_edges, banned_vertices)
        return list(res.distances())

    def multi_source_distances(
        self,
        sources: Sequence[int],
        banned_edges: Iterable[Sequence[int]] = (),
        banned_vertices: Iterable[int] = (),
    ) -> List[List[float]]:
        """Distance vectors from each source under one shared restriction."""
        return [
            self.distances_from(s, banned_edges, banned_vertices)
            for s in sources
        ]


class ReferenceWeightedDistanceOracle(WeightedDistanceOracle):
    """The same oracle surface over the reference heap engine.

    Paired with ``wlex`` via ``oracle_class`` so an end-to-end run
    under the reference engine shares no kernel code with the CSR arm
    — which is what makes the scenario-corpus weighted differential
    (``tests/diffcheck.py``) a two-implementation check rather than a
    self-comparison.
    """

    ENGINE_CLASS = WeightedLexShortestPaths


WeightedLexShortestPaths.oracle_class = ReferenceWeightedDistanceOracle
CSRWeightedShortestPaths.oracle_class = WeightedDistanceOracle

# Self-registration into the shared engine registry (the bottom of
# :mod:`repro.core.canonical` imports this module so the registry is
# complete either way the cycle is entered).
ENGINES[WeightedLexShortestPaths.name] = WeightedLexShortestPaths
ENGINES[CSRWeightedShortestPaths.name] = CSRWeightedShortestPaths
