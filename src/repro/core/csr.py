"""Flat-array traversal kernel: CSR graph snapshots + pooled restricted BFS.

Every construction in the paper is driven by thousands of *restricted*
searches — BFS over ``G \\ F`` where ``F`` is a banned edge/vertex set.
The legacy engines re-normalized the fault set into hash sets and
re-allocated per-call queues and dictionaries for every query, which
dominated the wall time of all builders.  This module is the shared
substrate that removes that overhead once, for every layer above it
(:mod:`repro.core.canonical`, the ``ftbfs`` builders, ``replacement``,
``lowerbound`` and ``analysis``):

**CSR snapshot.**  :class:`CSRGraph` freezes a :class:`~repro.core.graph.Graph`
into compressed-sparse-row form: ``indptr``/``nbr`` are flat
:mod:`array` vectors (``nbr[indptr[u]:indptr[u+1]]`` lists ``u``'s
neighbors in sorted order) and ``arc_eid`` maps each directed arc to the
id of its undirected edge.  Because CPython iterates small tuples faster
than it indexes ``array`` objects, the kernel additionally materializes
per-vertex *iteration views* (``rows[u]`` — neighbor tuples — and
``arcs[u]`` — ``(neighbor, edge_id)`` tuples) derived from the flat
arrays; the flat arrays remain the canonical storage and are what the
C kernel and the artifact writer read.

**The stamp trick.**  All scratch state is allocated once per snapshot
and never cleared.  Instead, every buffer entry is paired with a
*generation stamp*:

* ``visit[v] == gen`` means ``v`` was reached by the *current* search
  (generation ``gen``); any other value is garbage left over from an
  earlier search and is treated as "unvisited".  Starting a new search
  is therefore ``gen += 1`` — an O(1) wipe of all n entries.
* ``eban[eid] == ban_gen`` / ``vban[v] == ban_gen`` mean the edge/vertex
  is banned *for the current restriction* (generation ``ban_gen``).
  Applying a fault set costs O(|F|) stores and zero allocations, and
  testing a ban in the inner loop is a single list index — no tuple
  construction, no hashing, no set membership.

Pooling invariants (relied on by :mod:`repro.core.canonical`):

1. A search's scratch contents are only valid until the next search on
   the snapshot — callers that need to keep results (e.g.
   :class:`~repro.core.canonical.SearchResult`) copy them out with
   :meth:`CSRGraph.collect`.
2. Ban stamps and visit stamps advance independently, so one ban
   application (``stamp_bans``) can serve many searches — the batched
   :meth:`multi-source <repro.core.canonical.DistanceOracle.multi_source_distances>`
   API stamps the restriction once and re-runs the BFS per source.
3. Generation counters only ever increase; a stale stamp can never
   alias a live one.

**Restricted BFS == canonical lex search.**  The kernel's FIFO BFS over
sorted adjacency, taking the *first discoverer* as parent, computes
exactly the lexicographically-minimal shortest paths that
``LexShortestPaths`` defines: processing a BFS layer in lex-rank order
and scanning sorted neighbor lists discovers next-layer vertices in
``(parent rank, vertex id)`` order, which *is* the next layer's lex-rank
order, and the first (minimum-rank) discoverer is the canonical parent.
This is asserted against the legacy layered implementation by the
equivalence property tests (``tests/test_csr_equivalence.py``).

**C tier.**  Whenever the compiled kernel of :mod:`repro.core.ckernel`
loads (``REPRO_C_KERNEL``), :meth:`CSRGraph.bfs`,
:meth:`CSRGraph.bfs_dists` and :meth:`CSRGraph.multi_pair_dists` run
in C over the flat arrays — the same FIFO first-discoverer search, so
results are bit-identical — and the python loops below serve
``REPRO_C_KERNEL=off`` and compiler-less hosts.  The one-pair
:meth:`CSRGraph.bidir_distance` runs in C only once a search has
built the snapshot's kernel; it never builds one itself.
:func:`kernel_dispatch_stats` reports what ran in C.

The snapshot is cached on the graph (versioned, invalidated by
mutation) via :func:`csr_of`, so the canonical engine, the distance
oracle and the BFS tree of one :class:`~repro.replacement.base.SourceContext`
all share a single pool.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.ckernel import CKernel, c_kernel_mode, load_c_library
from repro.core.errors import GraphError
from repro.core.graph import Edge, Graph

#: Stamp value meaning "never used"; all generation counters start above it.
UNREACHED = -1


#: Churn budget for patched snapshots.  A delta whose cumulative
#: overlay churn (net edge adds + removes since the last *fresh*
#: flatten) stays within this budget is applied as an incremental
#: :class:`DeltaCSRGraph` patch over the parent snapshot; past it,
#: :func:`csr_of` re-flattens from scratch — deep overlay chains stop
#: paying for themselves once most rows have been rewritten anyway.
#: Read at snapshot time.
DELTA_MAX_OVERLAY = 64


def csr_of(graph: Graph) -> "CSRGraph":
    """The (cached) CSR snapshot of ``graph``.

    The snapshot is stored on the graph together with the graph's
    mutation version; mutating the graph (``add_edge``/``add_vertex``)
    invalidates the cache and the next call rebuilds.  All kernel
    consumers go through this function so that one graph has one shared
    scratch pool.

    When the mutation was a :meth:`~repro.core.graph.Graph.apply_delta`
    batch whose net churn fits :data:`DELTA_MAX_OVERLAY`, the rebuild
    is *incremental*: a :class:`DeltaCSRGraph` patches the previous
    snapshot (stable edge ids, shared per-vertex views) and the shared
    snapshot cache migrates every entry whose survival the delta layer
    can certify (:mod:`repro.core.delta`) instead of dropping the whole
    table.
    """
    cached = graph._csr_cache
    if cached is not None and cached.version == graph.version:
        return cached
    record = graph._delta
    graph._delta = None
    if (
        record is not None
        and cached is not None
        and record.parent is cached
        and record.child_version == graph.version
        and cached.overlay_churn + record.churn <= DELTA_MAX_OVERLAY
    ):
        snapshot = DeltaCSRGraph(graph, cached, record.adds, record.removes)
        graph._csr_cache = snapshot
        # Lineage-aware cache migration (lazy import: delta.py reads
        # engine value shapes and would cycle at module import time).
        from repro.core.delta import migrate_cache

        migrate_cache(cached, snapshot, record.adds, record.removes)
        return snapshot
    snapshot = CSRGraph(graph)
    graph._csr_cache = snapshot
    return snapshot


def kernel_dispatch_stats(graph: Graph, reset: bool = False):
    """C dispatch counters of ``graph``'s cached snapshot, or ``None``.

    Returns a copy of the snapshot's ``dispatch_stats`` — how many
    searches (``searches_c``), full sweeps (``full_sweeps_c``), one-pair
    point queries (``points_c``) and multi-pair queries (``pairs_c``)
    ran in C — so auto-dispatch decisions are observable after the
    fact (``repro bench`` and the E16 benchmark report them per arm).
    ``reset`` zeroes the live counters after copying.  ``None`` exactly
    when the snapshot holds no C kernel (the python kernel served
    everything).
    """
    csr = graph._csr_cache
    if csr is None or csr._ck is None:
        return None
    live = csr.dispatch_stats
    stats = dict(live)
    if reset:
        for key in live:
            live[key] = 0
    return stats


class CSRGraph:
    """A frozen flat-array snapshot of a graph plus pooled BFS scratch.

    Attributes
    ----------
    indptr, nbr, arc_eid:
        The CSR topology: flat ``array('q')`` vectors.  Arc ``p`` (for
        ``indptr[u] <= p < indptr[u+1]``) goes from ``u`` to ``nbr[p]``
        and belongs to undirected edge ``arc_eid[p]``.
    edge_index:
        Normalized edge tuple → dense edge id in ``[0, m)``.
    rows, arcs:
        Per-vertex iteration views derived from the flat arrays (see
        module docstring).
    """

    __slots__ = (
        # weakref support: repro.core.snapshot_cache keys its shared
        # memo tables on the snapshot, weakly, so entries die with it.
        "__weakref__",
        "n",
        "m",
        # Edge-id address space bound: every edge id is < eid_cap.  On a
        # fresh or adopted snapshot eid_cap == m; on a patched snapshot
        # (DeltaCSRGraph) deleted ids leave holes and appended ids may
        # push past m, so anything sized or strided "per edge id" (the
        # eban scratch here, the C ban slabs in ckernel, the perturbed
        # weight table) must use eid_cap, not m.
        "eid_cap",
        # Cumulative net churn absorbed since the last fresh flatten
        # (0 on fresh/adopted snapshots); csr_of re-flattens once
        # overlay_churn would exceed DELTA_MAX_OVERLAY.
        "overlay_churn",
        "version",
        "indptr",
        "nbr",
        "arc_eid",
        "edge_index",
        "rows",
        "arcs",
        # C kernel tier (lazy; see c_kernel): the kernel, the memoized
        # load failure, whether the last bfs/bfs_dists ran in C (so
        # readout knows where the result lives), the raw restriction
        # behind the live ban stamp (the C side stamps its own tables
        # from it) and the C dispatch counters.
        "_ck",
        "_ck_failed",
        "_c_out",
        "_last_stamp",
        "dispatch_stats",
        "_visit",
        "_dist",
        "_parent",
        "_queue",
        "_vban",
        "_eban",
        "_gen",
        "_ban_gen",
        "_count",
        "_visit2",
        "_dist2",
        "_gen2",
    )

    def __init__(self, graph: Graph) -> None:
        graph.finalize()
        adj = graph.adjacency()
        n = graph.n
        self.n = n
        self.version = graph.version
        self.edge_index: Dict[Edge, int] = {
            e: i for i, e in enumerate(sorted(graph.edges()))
        }
        self.m = len(self.edge_index)
        self.eid_cap = self.m
        self.overlay_churn = 0
        indptr = [0]
        nbr: List[int] = []
        arc_eid: List[int] = []
        eidx = self.edge_index
        for u in range(n):
            for w in adj[u]:
                nbr.append(w)
                arc_eid.append(eidx[(u, w) if u < w else (w, u)])
            indptr.append(len(nbr))
        self.indptr = array("q", indptr)
        self.nbr = array("q", nbr)
        self.arc_eid = array("q", arc_eid)
        # Iteration views (see module docstring for why these exist).
        self.rows: List[Tuple[int, ...]] = [tuple(adj[u]) for u in range(n)]
        self.arcs: List[Tuple[Tuple[int, int], ...]] = [
            tuple(
                zip(
                    self.rows[u],
                    arc_eid[indptr[u] : indptr[u + 1]],
                )
            )
            for u in range(n)
        ]
        self._init_scratch()

    @classmethod
    def adopt(
        cls,
        graph: Graph,
        indptr,
        nbr,
        arc_eid,
        sorted_edges: Sequence[Edge],
    ) -> "CSRGraph":
        """A snapshot wrapping *preloaded* flat CSR arrays for ``graph``.

        The serving layer (:mod:`repro.core.artifact`) persists a
        snapshot's ``indptr``/``nbr``/``arc_eid`` vectors and hands the
        mmap-backed sections straight back here on load, skipping the
        adjacency walk and edge sort of :meth:`__init__` — the flat
        arrays are adopted as-is (any object indexable like
        ``array('q')``, e.g. a cast :class:`memoryview`, works; the C
        kernel copies them through the buffer protocol).  The per-vertex
        iteration views and the pooled scratch are always rebuilt
        fresh: they are derived state, not storage.

        ``sorted_edges`` must be the graph's edges in sorted order —
        exactly the edge-id order the stored ``arc_eid`` encodes.  Only
        cheap shape invariants are checked here; content integrity is
        the artifact layer's checksum's job.
        """
        graph.finalize()
        n = graph.n
        if len(indptr) != n + 1 or len(nbr) != len(arc_eid) or (
            n >= 0 and len(nbr) != indptr[n]
        ):
            raise GraphError(
                f"CSR arrays do not fit a graph on {n} vertices "
                f"(indptr {len(indptr)}, nbr {len(nbr)}, "
                f"arc_eid {len(arc_eid)})"
            )
        self = cls.__new__(cls)
        self.n = n
        self.version = graph.version
        self.edge_index = {e: i for i, e in enumerate(sorted_edges)}
        self.m = len(self.edge_index)
        self.eid_cap = self.m
        self.overlay_churn = 0
        self.indptr = indptr
        self.nbr = nbr
        self.arc_eid = arc_eid
        rows: List[Tuple[int, ...]] = []
        arcs: List[Tuple[Tuple[int, int], ...]] = []
        for u in range(n):
            lo, hi = indptr[u], indptr[u + 1]
            row = tuple(nbr[lo:hi])
            rows.append(row)
            arcs.append(tuple(zip(row, arc_eid[lo:hi])))
        self.rows = rows
        self.arcs = arcs
        self._init_scratch()
        return self

    def _init_scratch(self) -> None:
        """Allocate the pooled stamped scratch (see module docstring)."""
        n = self.n
        self._ck = None
        self._ck_failed = False
        self._c_out = False
        self._last_stamp = (0, (), ())
        #: What the C tier served (auto-dispatch is otherwise
        #: invisible); searches and queries are counted, not calls.
        #: Read/reset via :func:`kernel_dispatch_stats`.
        self.dispatch_stats = {
            "searches_c": 0,
            "full_sweeps_c": 0,
            "points_c": 0,
            "pairs_c": 0,
        }
        self._visit = [UNREACHED] * n
        self._dist = [0] * n
        self._parent = [0] * n
        self._queue = [0] * n
        self._vban = [UNREACHED] * n
        self._eban = [UNREACHED] * self.eid_cap
        self._gen = 0
        self._ban_gen = 0
        self._count = 0
        # Second stamped label set for the bidirectional point query.
        self._visit2 = [UNREACHED] * n
        self._dist2 = [0] * n
        self._gen2 = 0

    # ------------------------------------------------------------------
    # restriction stamping
    # ------------------------------------------------------------------
    def resolve_edge_ids(self, banned_edges: Iterable[Sequence[int]]) -> List[int]:
        """Map edge-like pairs to dense edge ids, dropping unknown edges.

        Edges not present in the graph are ignored (they cannot be
        traversed anyway), matching the legacy engines.  This is the
        single normalization point shared by ban stamping and the memo
        key builders — they must agree on which edges count.
        """
        eids: List[int] = []
        if banned_edges:
            eidx = self.edge_index
            for e in banned_edges:
                u, v = e[0], e[1]
                i = eidx.get((u, v) if u < v else (v, u))
                if i is not None:
                    eids.append(i)
        return eids

    def stamp_bans(
        self,
        banned_edges: Iterable[Sequence[int]] = (),
        banned_vertices: Iterable[int] = (),
    ) -> Tuple[int, bool, bool]:
        """Stamp a restriction; returns ``(ban_gen, any_edges, any_vertices)``.

        The stamp stays valid until the next ``stamp_bans`` call, so
        several searches can share one restriction.
        """
        return self.stamp_edge_ids(
            self.resolve_edge_ids(banned_edges), banned_vertices
        )

    def stamp_edge_ids(self, edge_ids: Iterable[int], vertices: Iterable[int]) -> Tuple[int, bool, bool]:
        """Like :meth:`stamp_bans` but from pre-resolved edge ids."""
        bg = self._ban_gen + 1
        self._ban_gen = bg
        if not isinstance(edge_ids, (list, tuple)):
            edge_ids = list(edge_ids)
        if not isinstance(vertices, (list, tuple)):
            vertices = list(vertices)
        eban = self._eban
        for i in edge_ids:
            eban[i] = bg
        vban = self._vban
        for v in vertices:
            vban[v] = bg
        self._last_stamp = (bg, edge_ids, vertices)
        return bg, bool(edge_ids), bool(vertices)

    def source_banned(self, source: int, ban: Tuple[int, bool, bool]) -> bool:
        """True iff ``source`` is vertex-banned under the given stamp."""
        bg, _, have_v = ban
        return have_v and self._vban[source] == bg

    # ------------------------------------------------------------------
    # C kernel tier
    # ------------------------------------------------------------------
    def c_kernel(self) -> Optional["CKernel"]:
        """The compiled C kernel serving this snapshot, or ``None``.

        ``REPRO_C_KERNEL`` dispatch: ``off`` always returns ``None``,
        ``auto`` (default) returns the kernel when the library loads
        and ``None`` otherwise, ``on`` raises on load failure instead
        of degrading (the CI tier guard).  The mode is re-read per call
        (benchmark arms flip it between timed runs on one cached
        snapshot); the load attempt and the per-snapshot scratch are
        resolved once, at the first search — never at import or
        artifact load.
        """
        mode = c_kernel_mode()
        if mode == "off":
            return None
        ck = self._ck
        if ck is None:
            if self._ck_failed and mode != "on":
                return None
            lib, detail = load_c_library()
            if lib is None:
                self._ck_failed = True
                if mode == "on":
                    raise RuntimeError(
                        f"REPRO_C_KERNEL=on but the C kernel is "
                        f"unavailable: {detail}"
                    )
                return None
            ck = CKernel(
                lib, self.n, self.eid_cap, self.indptr, self.nbr, self.arc_eid
            )
            self._ck = ck
        return ck

    @property
    def c_active(self) -> bool:
        """True when this snapshot's searches currently run in C."""
        return self.c_kernel() is not None

    def c_search(
        self,
        stamp: Tuple[int, Sequence[int], Sequence[int]],
        source: int,
        ban: Tuple[int, bool, bool],
        target: Optional[int],
        parents: bool,
    ) -> Optional[int]:
        """Run one search in C, or return ``None`` to leave it to python.

        Served when :meth:`c_kernel` loads and ``ban`` is the live stamp
        ``stamp`` — ``(ban_gen, edge_ids, vertices)``, the raw
        restriction the C side re-stamps into its own tables.  Counted
        in ``dispatch_stats``; the result is read back through the
        :class:`~repro.core.ckernel.CKernel` readout.
        """
        ck = self.c_kernel()
        if ck is None or stamp[0] != ban[0]:
            return None
        self.dispatch_stats["searches_c" if parents else "full_sweeps_c"] += 1
        return ck.bfs(source, target, stamp[1], stamp[2], parents)

    # ------------------------------------------------------------------
    # the kernel
    # ------------------------------------------------------------------
    def bfs(
        self,
        source: int,
        ban: Tuple[int, bool, bool],
        target: Optional[int] = None,
    ) -> int:
        """Pooled restricted BFS from ``source`` under a stamped restriction.

        Returns the hop distance to ``target`` (``-1`` when ``target``
        is ``None`` or unreachable).  With a target the search stops as
        soon as the target is *discovered* — its distance and canonical
        parent, and those of every vertex on its canonical path, are
        final at that point (first discovery is final in BFS).

        Runs in C (:meth:`repro.core.ckernel.CKernel.bfs`, the same
        FIFO first-discoverer search) whenever :meth:`c_kernel` serves
        the snapshot and ``ban`` is the live stamp.  Otherwise
        ``self._count`` vertices (``self._queue[:count]``) carry valid
        ``_dist``/``_parent`` entries for generation ``self._gen``.
        Either way the caller must copy anything it wants to keep
        (:meth:`collect`) before the next search.

        The four loop variants below are deliberate: hoisting the
        ban-mode branches out of the inner loop is worth ~30% in
        CPython, and this loop is the hottest python code in the
        library.
        """
        hops = self.c_search(self._last_stamp, source, ban, target, True)
        self._c_out = hops is not None
        if self._c_out:
            return hops
        bg, have_e, have_v = ban
        gen = self._gen + 1
        self._gen = gen
        if have_v and self._vban[source] == bg:
            self._count = 0
            return UNREACHED
        visit = self._visit
        dist = self._dist
        parent = self._parent
        q = self._queue
        visit[source] = gen
        dist[source] = 0
        parent[source] = source
        q[0] = source
        self._count = 1
        if target == source:
            return 0
        head = 0
        tail = 1
        if have_e:
            arcs = self.arcs
            eban = self._eban
            if have_v:
                vban = self._vban
                while head < tail:
                    u = q[head]
                    head += 1
                    du = dist[u] + 1
                    for w, e in arcs[u]:
                        if visit[w] == gen or eban[e] == bg or vban[w] == bg:
                            continue
                        visit[w] = gen
                        dist[w] = du
                        parent[w] = u
                        q[tail] = w
                        tail += 1
                        if w == target:
                            self._count = tail
                            return du
            else:
                while head < tail:
                    u = q[head]
                    head += 1
                    du = dist[u] + 1
                    for w, e in arcs[u]:
                        if visit[w] == gen or eban[e] == bg:
                            continue
                        visit[w] = gen
                        dist[w] = du
                        parent[w] = u
                        q[tail] = w
                        tail += 1
                        if w == target:
                            self._count = tail
                            return du
        else:
            rows = self.rows
            if have_v:
                vban = self._vban
                while head < tail:
                    u = q[head]
                    head += 1
                    du = dist[u] + 1
                    for w in rows[u]:
                        if visit[w] == gen or vban[w] == bg:
                            continue
                        visit[w] = gen
                        dist[w] = du
                        parent[w] = u
                        q[tail] = w
                        tail += 1
                        if w == target:
                            self._count = tail
                            return du
            else:
                while head < tail:
                    u = q[head]
                    head += 1
                    du = dist[u] + 1
                    for w in rows[u]:
                        if visit[w] == gen:
                            continue
                        visit[w] = gen
                        dist[w] = du
                        parent[w] = u
                        q[tail] = w
                        tail += 1
                        if w == target:
                            self._count = tail
                            return du
        self._count = tail
        return UNREACHED

    def search(
        self,
        source: int,
        banned_edges: Iterable[Sequence[int]] = (),
        banned_vertices: Iterable[int] = (),
        target: Optional[int] = None,
    ) -> int:
        """Stamp a restriction and run :meth:`bfs` in one call."""
        return self.bfs(
            source, self.stamp_bans(banned_edges, banned_vertices), target
        )

    def bfs_dists(self, source: int, ban: Tuple[int, bool, bool]) -> None:
        """Full restricted BFS tracking distances only (no parents, no target).

        The distance-sweep workhorse behind ``distances_from``, the
        per-fault distance tables and the batched multi-source API —
        dropping the parent store and the target compare from the inner
        loop is worth ~25% on full sweeps.  Results are read exactly
        like :meth:`bfs`'s (``distances_list`` / ``last_distance``), and
        the sweep runs in C under the same conditions.
        """
        hops = self.c_search(self._last_stamp, source, ban, None, False)
        self._c_out = hops is not None
        if self._c_out:
            return
        bg, have_e, have_v = ban
        gen = self._gen + 1
        self._gen = gen
        if have_v and self._vban[source] == bg:
            self._count = 0
            return
        visit = self._visit
        dist = self._dist
        q = self._queue
        visit[source] = gen
        dist[source] = 0
        q[0] = source
        head = 0
        tail = 1
        if have_e:
            arcs = self.arcs
            eban = self._eban
            if have_v:
                vban = self._vban
                while head < tail:
                    u = q[head]
                    head += 1
                    du = dist[u] + 1
                    for w, e in arcs[u]:
                        if visit[w] == gen or eban[e] == bg or vban[w] == bg:
                            continue
                        visit[w] = gen
                        dist[w] = du
                        q[tail] = w
                        tail += 1
            else:
                while head < tail:
                    u = q[head]
                    head += 1
                    du = dist[u] + 1
                    for w, e in arcs[u]:
                        if visit[w] == gen or eban[e] == bg:
                            continue
                        visit[w] = gen
                        dist[w] = du
                        q[tail] = w
                        tail += 1
        else:
            rows = self.rows
            if have_v:
                vban = self._vban
                while head < tail:
                    u = q[head]
                    head += 1
                    du = dist[u] + 1
                    for w in rows[u]:
                        if visit[w] == gen or vban[w] == bg:
                            continue
                        visit[w] = gen
                        dist[w] = du
                        q[tail] = w
                        tail += 1
            else:
                while head < tail:
                    u = q[head]
                    head += 1
                    du = dist[u] + 1
                    for w in rows[u]:
                        if visit[w] == gen:
                            continue
                        visit[w] = gen
                        dist[w] = du
                        q[tail] = w
                        tail += 1
        self._count = tail

    # ------------------------------------------------------------------
    # reading out results
    # ------------------------------------------------------------------
    def collect(self) -> Tuple[List[int], List[int]]:
        """Copy the last search's reachable set into fresh dist/parent lists.

        Unreached vertices get ``-1`` in both, ``parent[source] == source``
        — the :class:`~repro.core.canonical.SearchResult` contract.  A
        C-served search hands its parents back as a compact
        ``array('i')`` (see :meth:`repro.core.ckernel.CKernel.parents`).
        """
        if self._c_out:
            return self._ck.distances(), self._ck.parents()
        n = self.n
        dist_out = [UNREACHED] * n
        parent_out = [UNREACHED] * n
        dist = self._dist
        parent = self._parent
        q = self._queue
        for i in range(self._count):
            v = q[i]
            dist_out[v] = dist[v]
            parent_out[v] = parent[v]
        return dist_out, parent_out

    def distances_list(self) -> List[int]:
        """The last search's full distance vector (``-1`` = unreached)."""
        if self._c_out:
            return self._ck.distances()
        n = self.n
        out = [UNREACHED] * n
        dist = self._dist
        q = self._queue
        for i in range(self._count):
            v = q[i]
            out[v] = dist[v]
        return out

    def last_distance(self, v: int) -> int:
        """Distance of ``v`` in the last search (``-1`` if unreached)."""
        if self._c_out:
            return self._ck.distance(v)
        return self._dist[v] if self._visit[v] == self._gen else UNREACHED

    # ------------------------------------------------------------------
    # bidirectional point query
    # ------------------------------------------------------------------
    def bidir_distance(
        self, source: int, target: int, ban: Tuple[int, bool, bool]
    ) -> int:
        """Exact restricted hop distance via meet-in-the-middle BFS.

        Expands level-synchronized balls from both endpoints (always
        growing the smaller frontier) and stops at the end of the first
        expansion round that produces a cross-labeled vertex, returning
        the minimum ``dist_s(u) + 1 + dist_t(w)`` candidate seen in that
        round.  Completing the round is what makes this exact: if the
        true distance ``D`` were smaller than some candidate, the true
        shortest path's vertex at depth ``d_s + 1`` is already labeled
        by the other side (else ``D`` would exceed the candidate), so
        the round also generates a candidate equal to ``D``.

        On expander-like graphs the two balls of radius ``~D/2`` scan
        far fewer arcs than one ball of radius ``D`` — this is what
        makes the distance oracle's point queries (the bulk of
        ``Cons2FTBFS``'s feasibility checks) cheap.  Distances only; no
        parent tracking.  Returns ``-1`` when the restriction cuts the
        pair (or bans an endpoint).

        Runs as one C call (:meth:`repro.core.ckernel.CKernel.point`,
        counted in ``dispatch_stats["points_c"]``) when ``ban`` is the
        live stamp, the snapshot already holds its C kernel and
        ``REPRO_C_KERNEL`` is not ``off``.  It never builds the kernel:
        that costs array copies worth dozens of point queries, and a
        snapshot that only answers point queries (a served delta
        snapshot) would pay them for nothing.
        """
        ck = self._ck
        if ck is not None:
            stamp = self._last_stamp
            if stamp[0] == ban[0] and c_kernel_mode() != "off":
                self.dispatch_stats["points_c"] += 1
                return ck.point(source, target, stamp[1], stamp[2])
        bg, have_e, have_v = ban
        vban = self._vban
        if have_v and (vban[source] == bg or vban[target] == bg):
            return UNREACHED
        if source == target:
            return 0
        gen_s = self._gen + 1
        self._gen = gen_s
        self._count = 0  # scratch from `bfs` is no longer valid
        self._c_out = False
        gen_t = self._gen2 + 1
        self._gen2 = gen_t
        visit_s = self._visit
        visit_t = self._visit2
        dist_s = self._dist
        dist_t = self._dist2
        visit_s[source] = gen_s
        dist_s[source] = 0
        visit_t[target] = gen_t
        dist_t[target] = 0
        frontier_s = [source]
        frontier_t = [target]
        arcs = self.arcs
        rows = self.rows
        eban = self._eban
        best = -2  # sentinel: no contact yet
        while frontier_s and frontier_t:
            # Grow the cheaper side; swap labels so the loop body below
            # always "expands S".
            if len(frontier_s) <= len(frontier_t):
                frontier = frontier_s
                visit_a, dist_a, gen_a = visit_s, dist_s, gen_s
                visit_b, dist_b, gen_b = visit_t, dist_t, gen_t
            else:
                frontier = frontier_t
                visit_a, dist_a, gen_a = visit_t, dist_t, gen_t
                visit_b, dist_b, gen_b = visit_s, dist_s, gen_s
            nxt: List[int] = []
            push = nxt.append
            depth = dist_a[frontier[0]] + 1
            # The cross-label candidate is checked only at first
            # discovery: its value ``depth + dist_b[w]`` is independent
            # of which parent discovered ``w``, so later scans of the
            # same round add nothing — and the already-visited test can
            # then lead the loop (it is by far the most common exit).
            if have_e:
                for u in frontier:
                    for w, e in arcs[u]:
                        if visit_a[w] == gen_a or eban[e] == bg:
                            continue
                        if have_v and vban[w] == bg:
                            continue
                        visit_a[w] = gen_a
                        dist_a[w] = depth
                        if visit_b[w] == gen_b:
                            cand = depth + dist_b[w]
                            if best < 0 or cand < best:
                                best = cand
                        else:
                            push(w)
            else:
                for u in frontier:
                    for w in rows[u]:
                        if visit_a[w] == gen_a:
                            continue
                        if have_v and vban[w] == bg:
                            continue
                        visit_a[w] = gen_a
                        dist_a[w] = depth
                        if visit_b[w] == gen_b:
                            cand = depth + dist_b[w]
                            if best < 0 or cand < best:
                                best = cand
                        else:
                            push(w)
            if best >= 0:
                return best
            if frontier is frontier_s:
                frontier_s = nxt
            else:
                frontier_t = nxt
        return UNREACHED

    def bidir_distances(
        self, pairs: Sequence[Tuple[int, int]], ban: Tuple[int, bool, bool]
    ) -> List[int]:
        """Pooled multi-pair point queries under one shared restriction.

        The scalar execution path of the batched point-query pipeline
        (:mod:`repro.core.query_batch`): the caller stamps the
        restriction once (pooling invariant 2) and every ``(source,
        target)`` pair is answered by :meth:`bidir_distance` against
        that single stamp — one ban normalization for the whole group
        instead of one per pair.  Returns raw hop distances aligned
        with ``pairs`` (``-1`` = cut).  Bit-identical to per-pair
        :meth:`bidir_distance` calls by construction.
        """
        bidir = self.bidir_distance
        return [bidir(s, t, ban) for s, t in pairs]

    def multi_pair_dists(
        self,
        queries: Sequence[Tuple[int, int, Sequence[int], Sequence[int]]],
    ) -> List[int]:
        """Many independent restricted point queries, each with its own
        restriction: ``(source, target, banned_edge_ids,
        banned_vertices)`` tuples, raw hops aligned with ``queries``
        (``-1`` = cut).

        One C call for the whole batch whenever :meth:`c_kernel` serves
        the snapshot, and otherwise one stamping and one
        :meth:`bidir_distance` per query.  Bit-identical either way
        (same exactness argument).
        """
        ck = self.c_kernel()
        if ck is None:
            bidir = self.bidir_distance
            stamp = self.stamp_edge_ids
            return [
                bidir(s, t, stamp(eids, verts)) for s, t, eids, verts in queries
            ]
        self.dispatch_stats["pairs_c"] += len(queries)
        return ck.multi_pair_dists(queries)


class DeltaCSRGraph(CSRGraph):
    """An incremental snapshot: the parent's views plus an edge overlay.

    Built by :func:`csr_of` when the graph mutation was a small
    :meth:`~repro.core.graph.Graph.apply_delta` batch.  Compared to a
    fresh :class:`CSRGraph` build it

    * **keeps edge ids stable**: ids are inherited from the parent;
      deleted ids go to a free pool, inserted edges reuse the smallest
      freed id (else append at ``eid_cap``).  Surviving snapshot-cache
      entries keyed on edge ids therefore stay addressable — the whole
      point of the migration in :mod:`repro.core.delta`.  Traversal
      results are still bit-identical to a fresh build: the canonical
      lex search depends only on sorted adjacency order, never on edge
      id *values*.
    * **shares per-vertex iteration views**: only vertices incident to
      a delta edge get new ``rows``/``arcs`` tuples; everything else
      aliases the parent's (immutable) tuples.
    * **re-flattens lazily**: the flat ``indptr``/``nbr``/``arc_eid``
      vectors — needed only by the C kernel and the artifact writer —
      are materialized on first attribute access, so
      a pure-python query stream after a delta never pays for them.
    """

    __slots__ = ("parent", "_free_eids", "_touched")

    def __init__(
        self,
        graph: Graph,
        parent: CSRGraph,
        adds: Iterable[Edge],
        removes: Iterable[Edge],
    ) -> None:
        adds = sorted(adds)
        removes = sorted(removes)
        self.n = parent.n
        self.version = graph.version
        self.parent = parent
        edge_index = dict(parent.edge_index)
        freed = {edge_index.pop(e) for e in removes}
        free = sorted(set(getattr(parent, "_free_eids", ())) | freed)
        cap = parent.eid_cap
        for e in adds:
            if free:
                edge_index[e] = free.pop(0)
            else:
                edge_index[e] = cap
                cap += 1
        self.edge_index = edge_index
        self.m = len(edge_index)
        self.eid_cap = cap
        self._free_eids = tuple(free)
        self.overlay_churn = parent.overlay_churn + len(adds) + len(removes)
        # Per-vertex overlay: rebuild only the touched rows.
        rows = list(parent.rows)
        arcs = list(parent.arcs)
        drop: Dict[int, set] = {}
        gain: Dict[int, List[Tuple[int, int]]] = {}
        for (u, v) in removes:
            drop.setdefault(u, set()).add(v)
            drop.setdefault(v, set()).add(u)
        for (u, v) in adds:
            i = edge_index[(u, v)]
            gain.setdefault(u, []).append((v, i))
            gain.setdefault(v, []).append((u, i))
        self._touched = tuple(sorted(set(drop) | set(gain)))
        for u in self._touched:
            gone = drop.get(u, ())
            row = [(w, e) for (w, e) in parent.arcs[u] if w not in gone]
            row.extend(gain.get(u, ()))
            row.sort()
            arcs[u] = tuple(row)
            rows[u] = tuple(w for (w, _) in row)
        self.rows = rows
        self.arcs = arcs
        self._init_scratch()

    def __getattr__(self, name: str):
        # The flat vectors are the only lazily-set slots: materialize
        # them on first access (anything else missing is a real error).
        if name in ("indptr", "nbr", "arc_eid"):
            self._flatten()
            return CSRGraph.__dict__[name].__get__(self)
        raise AttributeError(name)

    def _flatten(self) -> None:
        """Materialize the flat CSR vectors from the iteration views.

        When the parent's flat vectors exist (every snapshot a C search
        ran on has them), only the touched rows are rebuilt: the spans
        between them are copied from the parent's arrays wholesale,
        which keeps a C-searched delta chain at O(delta) python work
        per snapshot instead of a walk over every arc.
        """
        arcs = self.arcs
        indptr = array("q", [0])
        indptr.extend(accumulate(map(len, self.rows)))
        nbr = array("q")
        arc_eid = array("q")
        flat = CSRGraph.__dict__
        try:
            p_indptr = flat["indptr"].__get__(self.parent)
            p_nbr = flat["nbr"].__get__(self.parent)
            p_eid = flat["arc_eid"].__get__(self.parent)
        except AttributeError:  # parent never flattened: walk every row
            touched = range(self.n)
            p_indptr = p_nbr = p_eid = None
        else:
            touched = self._touched
        prev = 0
        for u in touched:
            if p_indptr is not None:
                lo = p_indptr[u]
                nbr.extend(p_nbr[prev:lo])
                arc_eid.extend(p_eid[prev:lo])
                prev = p_indptr[u + 1]
            for w, e in arcs[u]:
                nbr.append(w)
                arc_eid.append(e)
        if p_indptr is not None:
            nbr.extend(p_nbr[prev:])
            arc_eid.extend(p_eid[prev:])
        self.indptr = indptr
        self.nbr = nbr
        self.arc_eid = arc_eid
