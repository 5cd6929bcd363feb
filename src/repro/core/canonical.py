"""Canonical (unique) shortest paths — the paper's weight assignment ``W``.

Every proof in the paper assumes a weight assignment ``W`` that breaks
shortest-path ties consistently, so that ``SP(u, v, G', W)`` is a *unique*
path for every subgraph ``G'`` and the choice is globally consistent
(subpaths of chosen paths are themselves chosen).  This module supplies
that abstraction with three interchangeable engines:

``CSRLexShortestPaths`` (``"lex-csr"``, the default)
    Computes, for every vertex, the lexicographically-minimal shortest
    path by vertex sequence, on top of the flat-array kernel of
    :mod:`repro.core.csr`: a pooled, allocation-free restricted BFS over
    a compressed-sparse-row snapshot with generation-stamped visit and
    ban buffers.  A FIFO BFS over sorted adjacency that keeps the first
    discoverer as parent produces exactly the lex-minimal canonical
    paths (see the kernel module docstring for the argument), so this
    engine is bit-for-bit equivalent to ``LexShortestPaths`` — asserted
    by ``tests/test_csr_equivalence.py`` — while being several times
    faster.  Its searches, full sweeps and multi-pair batches run in
    the compiled C kernel of :mod:`repro.core.ckernel` whenever it
    loads (``REPRO_C_KERNEL``; the same FIFO first-discoverer search),
    and on the python kernel otherwise.

``LexShortestPaths`` (``"lex"``)
    The legacy layered reference implementation of the same order.  It
    is deterministic and exact, and it satisfies the two properties the
    proofs actually consume:

    * **uniqueness** — two distinct equal-length paths always differ in
      their vertex sequences, so exactly one is canonical;
    * **optimal substructure** — every prefix/suffix/infix of a
      canonical path is the canonical path between its endpoints
      (restricted to the same subgraph).

    Kept as the independent reference the CSR engine is validated
    against (and paired with the legacy :class:`PythonDistanceOracle`
    so ``--engine lex`` reproduces the pre-kernel behavior end to end,
    which is what the engine-comparison benchmarks measure).

``PerturbedShortestPaths`` (``"perturbed"``)
    A literal implementation of the paper's ``W``: Dijkstra over integer
    weights ``W(e) = B + r_e`` where ``r_e`` are seeded 128-bit random
    values and ``B`` is large enough that hop count always dominates.
    Exact integer arithmetic; shortest paths are unique except with
    probability ``≈ 2^-100``.  Its inner loop also runs on the CSR
    kernel (per-edge-id weight table, stamped bans).

Fault simulation is expressed with *banned* vertex/edge sets interpreted
in the traversal inner loop — restricted graphs like ``G \\ F``,
``G(u_k, u_l)`` (Eq. 3) and ``G_D(w_ℓ)`` (Eq. 4) never require copying
the graph.

The module also provides :class:`DistanceOracle` (CSR-backed, with a
keyed memo cache for the repeated ``(source, target, F)`` feasibility
checks that dominate Algorithm ``Cons2FTBFS``), the batched
:meth:`DistanceOracle.multi_source_distances` API for FT-MBFS
workloads, and the one-shot helpers :func:`bfs_distances` /
:func:`bfs_distance`.  Every oracle and helper rejects a source outside
``[0, n)`` with :class:`~repro.core.errors.GraphError`; an
out-of-range *target* is simply never found (``inf``).

Point queries additionally come in a *batch-first* shape: every oracle
family answers :meth:`DistanceOracle.distances_bulk` (many pairs, one
restriction, one ban stamping) and hands out a
:meth:`DistanceOracle.batch` planner
(:class:`~repro.core.query_batch.PointQueryBatch`) that deduplicates
heterogeneous feasibility probes, groups them by frozen fault set, and
executes each group in one shot — tree repair, one C multi-pair call,
or a pooled scalar loop.  Converted consumers (``Cons2FTBFS``, sensitivity
oracles, replacement-path selection) plan their probes first and
execute once; see :mod:`repro.core.query_batch`.

Memoization of search results and point/vector distance queries lives
in the process-wide :mod:`repro.core.snapshot_cache`: entries are keyed
on the graph's CSR snapshot (hence its mutation version) plus the
frozen restriction, so repeated feasibility checks are shared across
engine and oracle *instances* — two builders probing the same graph
answer each other's queries — and invalidate automatically when the
graph mutates.  Namespaces are segregated per engine/oracle family so
the equivalence tests always compare independently computed results.
"""

from __future__ import annotations

import random
from collections import deque
from heapq import heappop, heappush
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.csr import CSRGraph, csr_of
from repro.core.errors import DisconnectedError, GraphError
from repro.core.graph import Edge, Graph, normalize_edge
from repro.core.paths import Path, path_from_parents
from repro.core.query_batch import LegacyQueryBatch, PointQueryBatch
from repro.core.snapshot_cache import SnapshotCache, shared_cache

UNREACHED = -1
#: Distance value reported for unreachable vertices by convenience APIs.
INF = float("inf")

#: The one documented unreachable sentinel for analysis and report
#: paths.  The kernels speak two dialects — integer distance vectors
#: (:meth:`DistanceOracle.distances_from`) encode unreachable as
#: :data:`UNREACHED` (-1, keeps the vector integer), scalar and bulk
#: point queries return :data:`INF` — and everything downstream of the
#: kernels (replacement-path analysis, scenario reports, the
#: differential harness) normalizes both through
#: :func:`normalize_distance` to this value.
UNREACHABLE = INF


def normalize_distance(d) -> float:
    """Map any kernel distance encoding onto the documented sentinel.

    Accepts the raw ``-1`` of integer distance vectors, the ``inf`` of
    point queries, and ``None``; any of them comes back as
    :data:`UNREACHABLE`, every reachable hop count as a plain ``int``.
    Weighted engines (:mod:`repro.core.weighted`) produce float
    distances: integral values collapse to ``int`` — which is what
    makes uniform-weight runs bit-identical to the hop engines — and
    non-integral floats pass through unchanged.
    """
    if d is None or d == UNREACHED or d == INF:
        return UNREACHABLE
    if isinstance(d, float) and not d.is_integer():
        return d
    return int(d)


def normalize_distances(vec) -> List[float]:
    """Vector form of :func:`normalize_distance` (returns a fresh list)."""
    return [normalize_distance(d) for d in vec]


class SearchResult:
    """Outcome of a single-source canonical shortest-path computation.

    Exposes distances (in hops), canonical parents, and canonical path
    extraction.  ``parent[source] == source``; unreached vertices have
    ``parent == dist == -1`` internally and distance ``inf`` externally.
    ``parent`` is any int sequence: a list, or the compact
    ``array('i')`` a C-served search hands back.  Every per-vertex
    accessor rejects a vertex outside ``[0, n)`` with
    :class:`~repro.core.errors.GraphError` instead of letting a
    negative index alias another vertex.
    """

    __slots__ = ("source", "_n", "_dist", "_parent")

    def __init__(self, source: int, dist: List[int], parent: Sequence[int]) -> None:
        self.source = source
        self._n = len(dist)
        self._dist = dist
        self._parent = parent

    def _check(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise GraphError(f"vertex {v} outside [0, {self._n})")

    def reached(self, v: int) -> bool:
        """True iff ``v`` is reachable from the source in the restriction."""
        self._check(v)
        return self._dist[v] != UNREACHED

    def dist(self, v: int) -> float:
        """Hop distance to ``v`` (``inf`` if unreachable)."""
        self._check(v)
        d = self._dist[v]
        return INF if d == UNREACHED else d

    def dist_or_unreached(self, v: int) -> int:
        """Raw hop distance (``-1`` when unreachable); avoids float math."""
        self._check(v)
        return self._dist[v]

    def parent(self, v: int) -> int:
        """Canonical BFS parent of ``v`` (``-1`` if unreached)."""
        self._check(v)
        return self._parent[v]

    def path(self, v: int) -> Path:
        """The canonical source→``v`` path.

        Raises :class:`DisconnectedError` when ``v`` is unreachable.
        """
        self._check(v)
        if self._dist[v] == UNREACHED:
            raise DisconnectedError(
                f"vertex {v} unreachable from {self.source} under restriction"
            )
        return path_from_parents(self._parent, v)

    def reachable_vertices(self) -> List[int]:
        """All vertices reached by the search, in vertex order."""
        return [v for v, d in enumerate(self._dist) if d != UNREACHED]

    def distances(self) -> List[int]:
        """Raw distance list (``-1`` = unreachable); do not mutate."""
        return self._dist


def _check_source(source: int, n: int) -> None:
    """Reject a query source outside ``[0, n)``.

    The kernels index their scratch tables by source, so a negative
    source would alias vertex ``n + source`` and a large one would
    raise a bare ``IndexError``.
    """
    if not 0 <= source < n:
        raise GraphError(f"source {source} outside [0, {n})")


def _normalize_banned_edges(banned_edges) -> Optional[Set[Edge]]:
    if not banned_edges:
        return None
    out = set()
    for e in banned_edges:
        out.add(normalize_edge(e[0], e[1]))
    return out


def _normalize_banned_vertices(banned_vertices) -> Optional[Set[int]]:
    if not banned_vertices:
        return None
    return set(banned_vertices)


class CSRLexShortestPaths:
    """Lexicographic canonical shortest paths on the flat-array kernel.

    A FIFO BFS over the CSR snapshot's sorted adjacency, keeping the
    first discoverer of each vertex as its parent, yields exactly the
    lex-minimal shortest path tree (equivalence argument in
    :mod:`repro.core.csr`).  All scratch state is pooled on the shared
    snapshot, so a search allocates only its result arrays.
    """

    name = "lex-csr"

    #: Memory budget (total ints, counting each SearchResult as its two
    #: n-length vectors) for the search memo namespace — entry-count
    #: limits alone let n-sized results grow unbounded on large graphs.
    SEARCH_CACHE_INTS = 16_000_000

    def __init__(
        self,
        graph: Graph,
        cache_size: int = 8_192,
        cache: Optional[SnapshotCache] = None,
    ) -> None:
        self.graph = graph
        self._csr = csr_of(graph)
        # Keyed memo for repeated (source, banned) searches: builders
        # like Cons2FTBFS and the generic enumerators re-request the
        # same restriction for many targets.  The memo lives in the
        # process-wide snapshot cache (keyed on the snapshot, so graph
        # mutation invalidates it and engine instances on one graph
        # share it).  Entries are (result, complete); a target-stopped
        # search is cached as incomplete and only serves vertices it
        # actually reached — a repeat that needs more is promoted to a
        # (cached) full search.
        self._cache = shared_cache() if cache is None else cache
        self._cache_size = cache_size
        # Snapshot-cache namespace; per engine family, so the
        # equivalence tests never compare an engine against another
        # engine's cached results.
        self._search_ns = "search:" + self.name

    def _snapshot(self) -> CSRGraph:
        """The live CSR snapshot; rebuilt after mutation.

        The legacy engine read ``adjacency()`` on every search, so
        mutating the graph between searches must keep working here too.
        Memo entries need no explicit flush: they are keyed on the
        snapshot object, and a mutated graph gets a fresh snapshot.
        """
        csr = self._csr
        if csr.version != self.graph.version:
            csr = csr_of(self.graph)
            self._csr = csr
        return csr

    def _restriction_key(self, csr, source, banned_edges, banned_vertices):
        eids = csr.resolve_edge_ids(banned_edges)
        eids.sort()
        verts = sorted(set(banned_vertices)) if banned_vertices else []
        return (source, tuple(eids), tuple(verts)), eids, verts

    def _run(self, csr: CSRGraph, source: int, eids, verts, target) -> SearchResult:
        ban = csr.stamp_edge_ids(eids, verts)
        if csr.source_banned(source, ban):
            raise GraphError(f"source {source} is banned")
        csr.bfs(source, ban, target)
        dist, parent = csr.collect()
        return SearchResult(source, dist, parent)

    def search(
        self,
        source: int,
        banned_edges: Iterable[Sequence[int]] = (),
        banned_vertices: Iterable[int] = (),
        target: Optional[int] = None,
    ) -> SearchResult:
        """Run the canonical search from ``source`` under a restriction.

        Parameters
        ----------
        banned_edges / banned_vertices:
            The restriction (fault set and/or masked-out path vertices).
            The source must not be banned.
        target:
            If given, the search stops as soon as ``target`` is
            discovered (its canonical parent, and the parents of every
            vertex on its canonical path, are final at that point).

        Results may be served from the keyed memo cache; treat the
        returned :class:`SearchResult` as immutable (as its contract
        already requires).
        """
        if not self.graph.has_vertex(source):
            raise GraphError(f"invalid source {source}")
        csr = self._snapshot()
        key, eids, verts = self._restriction_key(
            csr, source, banned_edges, banned_vertices
        )
        cache = self._cache
        ns = self._search_ns
        weight = 2 * csr.n  # each result holds two n-length vectors
        weight_limit = self.SEARCH_CACHE_INTS
        entry = cache.get(csr, ns, key)
        if entry is not None:
            res, complete = entry
            if complete or (target is not None and res.reached(target)):
                return res
            # Second request needing deeper coverage: promote to full.
            res = self._run(csr, source, eids, verts, None)
            cache.put(
                csr,
                ns,
                key,
                (res, True),
                limit=self._cache_size,
                weight=weight,
                weight_limit=weight_limit,
            )
            return res
        res = self._run(csr, source, eids, verts, target)
        # A target search that exhausted the graph (target unreachable)
        # is a complete search.
        complete = target is None or not res.reached(target)
        cache.put(
            csr,
            ns,
            key,
            (res, complete),
            limit=self._cache_size,
            weight=weight,
            weight_limit=weight_limit,
        )
        return res

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


class LexShortestPaths:
    """Legacy layered BFS computing lexicographically-minimal shortest paths.

    Within each BFS layer, vertices are ranked by the lexicographic
    order of their canonical paths; the canonical parent of a next-layer
    vertex is its minimum-rank predecessor, and next-layer ranks follow
    ``(parent rank, vertex id)``.  This realizes the lex-min path for
    every vertex in ``O(m + n log n)`` per source.

    :class:`CSRLexShortestPaths` computes the identical assignment on
    the flat-array kernel and is the default engine; this implementation
    is retained as the independent reference for the equivalence tests
    and the engine-comparison benchmarks.
    """

    name = "lex"

    def __init__(self, graph: Graph) -> None:
        self.graph = graph

    def search(
        self,
        source: int,
        banned_edges: Iterable[Sequence[int]] = (),
        banned_vertices: Iterable[int] = (),
        target: Optional[int] = None,
    ) -> SearchResult:
        """Run the canonical search from ``source`` under a restriction.

        Parameters
        ----------
        banned_edges / banned_vertices:
            The restriction (fault set and/or masked-out path vertices).
            The source must not be banned.
        target:
            If given, the search stops once the layer containing
            ``target`` is complete (its canonical parent is final).
        """
        g = self.graph
        if not g.has_vertex(source):
            raise GraphError(f"invalid source {source}")
        be = _normalize_banned_edges(banned_edges)
        bv = _normalize_banned_vertices(banned_vertices)
        if bv is not None and source in bv:
            raise GraphError(f"source {source} is banned")
        adj = g.adjacency()
        n = g.n
        dist = [UNREACHED] * n
        parent = [UNREACHED] * n
        dist[source] = 0
        parent[source] = source
        layer = [source]
        depth = 0
        while layer:
            depth += 1
            # w -> (rank of first-seen parent, parent).  Iterating the
            # current layer in rank order makes first-seen == min-rank.
            cand: Dict[int, Tuple[int, int]] = {}
            for rank_u, u in enumerate(layer):
                for w in adj[u]:
                    if dist[w] != UNREACHED or w in cand:
                        continue
                    if bv is not None and w in bv:
                        continue
                    if be is not None:
                        e = (u, w) if u < w else (w, u)
                        if e in be:
                            continue
                    cand[w] = (rank_u, u)
            if not cand:
                break
            layer = sorted(cand, key=lambda w: (cand[w][0], w))
            for w in layer:
                dist[w] = depth
                parent[w] = cand[w][1]
            if target is not None and dist[target] != UNREACHED:
                break
        return SearchResult(source, dist, parent)

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


class PerturbedShortestPaths:
    """Dijkstra over ``W(e) = B + r_e`` with exact integer arithmetic.

    ``r_e`` are 128-bit values drawn from a seeded PRNG, and
    ``B = (n + 1) · 2^128`` so that hop count strictly dominates any sum
    of perturbations.  With these weights all shortest paths are unique
    except with negligible probability, realizing the paper's ``W``
    verbatim.

    The inner loop runs on the CSR kernel: weights are tabulated per
    edge id, bans are generation stamps, and the settled/seen flags are
    pooled stamp buffers — only the heap is allocated per search.
    """

    name = "perturbed"
    _R_BITS = 128

    def __init__(self, graph: Graph, seed: int = 0x5EED) -> None:
        self.graph = graph
        self.seed = seed
        rng = random.Random(seed)
        base = 1 << self._R_BITS
        self._big = (graph.n + 1) * base
        # Perturbations are drawn lazily-deterministically per edge so the
        # assignment is stable under graph iteration order.
        self._r: Dict[Edge, int] = {}
        for e in sorted(graph.edges()):
            self._r[e] = rng.getrandbits(self._R_BITS)
        csr = csr_of(graph)
        self._csr = csr
        # Edge id i is the i-th edge in sorted order (CSRGraph contract),
        # so the weight table lines up with the PRNG draw order.
        big = self._big
        # Sized by eid_cap, not m: on a patched (delta) snapshot edge
        # ids are sparse in [0, eid_cap) — see repro.core.csr.
        self._w_eid: List[int] = [0] * csr.eid_cap
        for e, i in csr.edge_index.items():
            self._w_eid[i] = big + self._r[e]
        n = graph.n
        self._seen = [UNREACHED] * n
        self._done = [UNREACHED] * n
        self._cost: List[int] = [0] * n
        self._parent = [UNREACHED] * n
        self._gen = 0

    def weight(self, u: int, v: int) -> int:
        """The exact integer weight of edge ``{u, v}``."""
        return self._big + self._r[normalize_edge(u, v)]

    def path_weight(self, path: Path) -> int:
        """Total ``W``-weight of a path (0 for a single vertex)."""
        return sum(self.weight(u, v) for u, v in path.directed_edges())

    def search(
        self,
        source: int,
        banned_edges: Iterable[Sequence[int]] = (),
        banned_vertices: Iterable[int] = (),
        target: Optional[int] = None,
    ) -> SearchResult:
        """Dijkstra from ``source`` under a restriction (see LexShortestPaths)."""
        g = self.graph
        if not g.has_vertex(source):
            raise GraphError(f"invalid source {source}")
        csr = self._csr
        bg, have_e, have_v = csr.stamp_bans(banned_edges, banned_vertices)
        vban = csr._vban
        eban = csr._eban
        if have_v and vban[source] == bg:
            raise GraphError(f"source {source} is banned")
        n = g.n
        gen = self._gen + 1
        self._gen = gen
        seen = self._seen
        done = self._done
        cost = self._cost
        parent = self._parent
        arcs = csr.arcs
        wts = self._w_eid
        seen[source] = gen
        cost[source] = 0
        parent[source] = source
        heap: List[Tuple[int, int]] = [(0, source)]
        while heap:
            cu, u = heappop(heap)
            if done[u] == gen or cost[u] != cu:
                continue
            done[u] = gen
            if target is not None and u == target:
                break
            for w, e in arcs[u]:
                if done[w] == gen:
                    continue
                if have_v and vban[w] == bg:
                    continue
                if have_e and eban[e] == bg:
                    continue
                cw = cu + wts[e]
                if seen[w] != gen or cw < cost[w]:
                    seen[w] = gen
                    cost[w] = cw
                    parent[w] = u
                    heappush(heap, (cw, w))
        big = self._big
        dist = [
            cost[v] // big if done[v] == gen else UNREACHED for v in range(n)
        ]
        # With a target we may have stopped early; vertices already
        # settled keep exact distances, unsettled ones report unreached.
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


class DistanceOracle:
    """Fast repeated plain-BFS distance queries on one graph (CSR-backed).

    Tie-breaking does not affect distances, so all feasibility checks in
    the constructions use this stamped BFS rather than the canonical
    engines.  The heavy lifting happens in the pooled kernel of
    :mod:`repro.core.csr`: each query stamps its restriction in O(|F|)
    and traverses with O(1) array-lookup ban tests, performing zero
    per-call allocation.

    Point queries and full distance sweeps additionally go through the
    process-wide snapshot cache: ``Cons2FTBFS`` re-runs many identical
    ``(source, target, F)`` feasibility checks (step 3 probes each
    fault pair up to three times), and the memo answers repeats in
    O(|F| log |F|) key-building time instead of a BFS.  Because the
    cache is keyed on the graph's CSR snapshot, oracle *instances* on
    one graph share it — repeated feasibility checks across builders
    and sources are answered once per process — and graph mutation
    invalidates it wholesale.  Namespaces overflow-clear at
    ``cache_size`` (point entries) / :data:`VEC_CACHE_LIMIT` (vector
    entries).
    """

    __slots__ = ("graph", "_csr", "_cache", "_cache_size")

    #: Snapshot-cache namespaces, per oracle family (so equivalence
    #: tests compare independently computed results).
    _PT_NS = "pt:csr"
    _VEC_NS = "vec:csr"
    #: Full distance vectors are n ints each, so their namespace gets a
    #: smaller overflow limit than scalar point entries.
    VEC_CACHE_LIMIT = 8_192
    #: Memory budget (total ints) for the vector namespace — the entry
    #: count limit alone would still let n-sized vectors grow unbounded
    #: on large graphs.
    VEC_CACHE_INTS = 8_000_000

    def __init__(
        self,
        graph: Graph,
        cache_size: int = 262_144,
        cache: Optional[SnapshotCache] = None,
    ) -> None:
        self.graph = graph
        self._csr = csr_of(graph)
        self._cache = shared_cache() if cache is None else cache
        self._cache_size = cache_size

    def _snapshot(self) -> CSRGraph:
        """The live CSR snapshot; rebuilt after mutation (which also
        retires the old snapshot's cache table)."""
        csr = self._csr
        if csr.version != self.graph.version:
            csr = csr_of(self.graph)
            self._csr = csr
        return csr

    def _restriction(self, csr, banned_edges, banned_vertices):
        eids = csr.resolve_edge_ids(banned_edges)
        eids.sort()
        verts = sorted(set(banned_vertices)) if banned_vertices else []
        return eids, verts

    def batch(self) -> PointQueryBatch:
        """A fresh point-query planner bound to this oracle.

        Plan feasibility probes with
        :meth:`~repro.core.query_batch.PointQueryBatch.add`, then
        :meth:`~repro.core.query_batch.PointQueryBatch.execute` once —
        requests are deduplicated against each other and the snapshot
        cache, grouped by frozen fault set, and each group runs in one
        shot on this oracle's kernel (see
        :mod:`repro.core.query_batch`).
        """
        return PointQueryBatch(self)

    def distances_bulk(
        self,
        pairs: Sequence[Tuple[int, int]],
        banned_edges: Iterable[Sequence[int]] = (),
        banned_vertices: Iterable[int] = (),
    ) -> List[float]:
        """Hop distances for many ``(source, target)`` pairs, one restriction.

        The batch-first sibling of :meth:`distance`: the restriction is
        frozen and stamped once for the whole group, duplicate pairs
        and memoized answers cost a lookup, and the remaining pairs run
        as one multi-pair kernel execution.  Returns values aligned
        with ``pairs``, ``inf`` where the restriction cuts a pair —
        element-for-element identical to per-pair :meth:`distance`
        calls.
        """
        batch = PointQueryBatch(self)
        be = tuple(banned_edges)
        bv = tuple(banned_vertices)
        for s, t in pairs:
            batch.add(s, t, be, bv)
        return [INF if h == UNREACHED else h for h in batch.execute()]

    def distance(
        self,
        source: int,
        target: int,
        banned_edges: Iterable[Sequence[int]] = (),
        banned_vertices: Iterable[int] = (),
    ) -> float:
        """Hop distance source→target under a restriction (inf if cut)."""
        csr = self._snapshot()
        eids, verts = self._restriction(csr, banned_edges, banned_vertices)
        key = (source, target, tuple(eids), tuple(verts))
        cache = self._cache
        d = cache.get(csr, self._PT_NS, key)
        if d is None:
            _check_source(source, csr.n)
            if 0 <= target < csr.n:
                d = csr.bidir_distance(
                    source, target, csr.stamp_edge_ids(eids, verts)
                )
            else:
                d = UNREACHED  # match the legacy "never found" behavior
            cache.put(csr, self._PT_NS, key, d, limit=self._cache_size)
        return INF if d == UNREACHED else d

    def distances_from(
        self,
        source: int,
        banned_edges: Iterable[Sequence[int]] = (),
        banned_vertices: Iterable[int] = (),
    ) -> List[int]:
        """All hop distances from ``source`` (``-1`` = unreachable).

        Returns a fresh list safe to keep (cached vectors are copied
        out, never aliased).
        """
        csr = self._snapshot()
        eids, verts = self._restriction(csr, banned_edges, banned_vertices)
        key = (source, tuple(eids), tuple(verts))
        cache = self._cache
        vec = cache.get(csr, self._VEC_NS, key)
        if vec is None:
            _check_source(source, csr.n)
            csr.bfs_dists(source, csr.stamp_edge_ids(eids, verts))
            vec = csr.distances_list()
            cache.put(
                csr,
                self._VEC_NS,
                key,
                vec,
                limit=self.VEC_CACHE_LIMIT,
                weight=len(vec),
                weight_limit=self.VEC_CACHE_INTS,
            )
        return list(vec)

    def multi_source_distances(
        self,
        sources: Sequence[int],
        banned_edges: Iterable[Sequence[int]] = (),
        banned_vertices: Iterable[int] = (),
    ) -> List[List[int]]:
        """Distance vectors from each source under one shared restriction.

        The restriction is stamped once and reused across the per-source
        searches (kernel pooling invariant 2), which is the batched
        entry point for FT-MBFS workloads: ``σ`` sources × one fault
        set costs one ban normalization instead of ``σ`` — and sources
        whose vector is already in the snapshot cache skip their sweep
        entirely.
        """
        csr = self._snapshot()
        eids, verts = self._restriction(csr, banned_edges, banned_vertices)
        ekey, vkey = tuple(eids), tuple(verts)
        cache = self._cache
        ban = None
        out: List[List[int]] = []
        for s in sources:
            key = (s, ekey, vkey)
            vec = cache.get(csr, self._VEC_NS, key)
            if vec is None:
                _check_source(s, csr.n)
                if ban is None:  # stamp lazily, once, for all misses
                    ban = csr.stamp_edge_ids(eids, verts)
                csr.bfs_dists(s, ban)
                vec = csr.distances_list()
                cache.put(
                    csr,
                    self._VEC_NS,
                    key,
                    vec,
                    limit=self.VEC_CACHE_LIMIT,
                    weight=len(vec),
                    weight_limit=self.VEC_CACHE_INTS,
                )
            out.append(list(vec))
        return out


class PythonDistanceOracle:
    """Legacy pure-Python stamped BFS oracle (pre-kernel reference).

    Functionally identical to :class:`DistanceOracle` but normalizes the
    fault set into hash sets per query and tests bans with tuple
    hashing.  Retained (and paired with the legacy ``lex`` engine) so
    the CSR kernel has an in-tree behavioral reference and the
    engine-comparison benchmarks measure a faithful before/after.
    """

    __slots__ = ("graph", "_adj", "_adj_version", "_stamp", "_mark", "_dist", "_queue")

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._adj = graph.adjacency()
        self._adj_version = graph.version
        n = graph.n
        self._stamp = 0
        self._mark = [0] * n
        self._dist = [0] * n
        self._queue: deque = deque()

    def distance(
        self,
        source: int,
        target: int,
        banned_edges: Iterable[Sequence[int]] = (),
        banned_vertices: Iterable[int] = (),
    ) -> float:
        """Hop distance source→target under a restriction (inf if cut)."""
        d = self._run(source, banned_edges, banned_vertices, target)
        return INF if d is None else d

    def batch(self) -> LegacyQueryBatch:
        """A planner with the shared batch surface (dedupe-only here).

        Converted consumers plan against any oracle family; the legacy
        family answers each unique request with one scalar query, which
        is exactly the pre-kernel behavior the ``lex`` reference arm
        must preserve.
        """
        return LegacyQueryBatch(self)

    def distances_bulk(
        self,
        pairs: Sequence[Tuple[int, int]],
        banned_edges: Iterable[Sequence[int]] = (),
        banned_vertices: Iterable[int] = (),
    ) -> List[float]:
        """Per-pair scalar queries behind the batch-first signature."""
        return [
            self.distance(s, t, banned_edges, banned_vertices)
            for s, t in pairs
        ]

    def distances_from(
        self,
        source: int,
        banned_edges: Iterable[Sequence[int]] = (),
        banned_vertices: Iterable[int] = (),
    ) -> List[int]:
        """All hop distances from ``source`` (``-1`` = unreachable).

        Returns a fresh list safe to keep.
        """
        self._run(source, banned_edges, banned_vertices, None)
        stamp = self._stamp
        mark = self._mark
        dist = self._dist
        return [dist[v] if mark[v] == stamp else UNREACHED for v in range(self.graph.n)]

    def _run(self, source, banned_edges, banned_vertices, target) -> Optional[int]:
        _check_source(source, self.graph.n)
        be = _normalize_banned_edges(banned_edges)
        bv = _normalize_banned_vertices(banned_vertices)
        # The stamp must advance even on the banned-source early exit,
        # otherwise distances_from() would read the previous query's marks.
        self._stamp += 1
        stamp = self._stamp
        if bv is not None and source in bv:
            return None
        # Like the engines, follow graph mutation (the adjacency view is
        # an immutable per-version snapshot; deltas replace it).
        if self._adj_version != self.graph.version:
            self._adj = self.graph.adjacency()
            self._adj_version = self.graph.version
        adj = self._adj
        mark = self._mark
        dist = self._dist
        q = self._queue
        q.clear()
        mark[source] = stamp
        dist[source] = 0
        if target == source:
            return 0
        q.append(source)
        while q:
            u = q.popleft()
            du = dist[u] + 1
            for w in adj[u]:
                if mark[w] == stamp:
                    continue
                if bv is not None and w in bv:
                    continue
                if be is not None:
                    e = (u, w) if u < w else (w, u)
                    if e in be:
                        continue
                mark[w] = stamp
                dist[w] = du
                if w == target:
                    return du
                q.append(w)
        return None if target is not None else -2


#: Oracle family matching each engine: legacy engines pair with the
#: legacy oracle (so ``--engine lex`` reproduces the pre-kernel system
#: end to end), CSR-backed engines pair with the CSR oracle.
LexShortestPaths.oracle_class = PythonDistanceOracle
CSRLexShortestPaths.oracle_class = DistanceOracle
PerturbedShortestPaths.oracle_class = DistanceOracle


#: Registry of available engines, keyed by their ``name``.
ENGINES = {
    CSRLexShortestPaths.name: CSRLexShortestPaths,
    LexShortestPaths.name: LexShortestPaths,
    PerturbedShortestPaths.name: PerturbedShortestPaths,
}

#: Default engine used whenever callers pass ``engine=None``.
DEFAULT_ENGINE = CSRLexShortestPaths.name


def make_engine(graph: Graph, engine: str = DEFAULT_ENGINE, **kwargs):
    """Instantiate a shortest-path engine by name (``lex-csr`` / ``lex`` / ``perturbed``)."""
    try:
        cls = ENGINES[engine]
    except KeyError:
        raise GraphError(
            f"unknown engine {engine!r}; available: {sorted(ENGINES)}"
        ) from None
    return cls(graph, **kwargs)


def bfs_distances(
    graph: Graph,
    source: int,
    banned_edges: Iterable[Sequence[int]] = (),
    banned_vertices: Iterable[int] = (),
) -> List[int]:
    """One-shot plain BFS distance vector (``-1`` = unreachable).

    Runs on the graph's shared CSR snapshot, so repeated one-shot calls
    on the same graph reuse the pooled kernel.
    """
    csr = csr_of(graph)
    _check_source(source, csr.n)
    csr.bfs_dists(source, csr.stamp_bans(banned_edges, banned_vertices))
    return csr.distances_list()


def bfs_distance(
    graph: Graph,
    source: int,
    target: int,
    banned_edges: Iterable[Sequence[int]] = (),
    banned_vertices: Iterable[int] = (),
) -> float:
    """One-shot plain BFS point-to-point distance (``inf`` if cut)."""
    csr = csr_of(graph)
    _check_source(source, csr.n)
    if not (0 <= target < csr.n):
        return INF
    d = csr.bidir_distance(
        source, target, csr.stamp_bans(banned_edges, banned_vertices)
    )
    return INF if d == UNREACHED else d


def multi_source_distances(
    graph: Graph,
    sources: Sequence[int],
    banned_edges: Iterable[Sequence[int]] = (),
    banned_vertices: Iterable[int] = (),
) -> List[List[int]]:
    """Batched one-shot distance vectors (one shared ban stamping)."""
    return DistanceOracle(graph).multi_source_distances(
        sources, banned_edges, banned_vertices
    )


def eccentricity(graph: Graph, source: int) -> int:
    """Maximum finite hop distance from ``source`` (its BFS depth)."""
    return max(d for d in bfs_distances(graph, source) if d != UNREACHED)


# The weighted engine family (``wlex`` / ``wlex-csr``) registers itself
# into ENGINES on import; importing it here makes the registry complete
# for anyone who only imports this module.  The import sits at the very
# bottom because :mod:`repro.core.weighted` imports back from this
# module (a deliberate late-binding cycle that resolves in either
# import order).
import repro.core.weighted  # noqa: E402,F401  (registration side effect)
