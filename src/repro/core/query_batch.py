"""Batched point-query pipeline: plan → dedupe → grouped multi-pair execution.

The constructions in the paper decide feasibility by asking, for
thousands of ``(source, target, fault set)`` triples, whether a
replacement path of a given length exists.  The scalar path answers
each triple independently: normalize the restriction, stamp it, run a
bidirectional BFS.  That repeats two kinds of work the triples share —
restriction normalization/stamping (many triples carry the *same*
frozen fault set) and traversal (triples with one fault set and one
source differ only in their target).  This module removes both by
making *the batch* the unit of work:

**Plan.**  A :class:`PointQueryBatch` accumulates point-query requests
without executing anything; each :meth:`~PointQueryBatch.add` returns a
:class:`QueryHandle` that will carry the answer after
:meth:`~PointQueryBatch.execute`.  Consumers are rewritten in
plan-then-execute style: first walk their candidate space recording
every feasibility probe, then execute once, then consume the answers
(see :mod:`repro.ftbfs.cons2ftbfs` for the flagship conversion).

**Dedupe.**  ``execute`` freezes every request into the same
restriction key the scalar oracle uses (sorted banned edge ids +
sorted banned vertices), collapses duplicate requests onto one slot,
and answers whatever it can from the process-wide snapshot cache —
requests repeated across batches, builders, or scalar queries cost a
dict lookup, never a traversal.

**Grouped execution.**  Remaining misses are grouped by (source,
frozen restriction) and each group is answered by the cheapest
applicable strategy:

* **tree repair** (:class:`_TreeRepair`) — for edge-only restrictions,
  only the subtrees hanging below the faulted tree edges can change
  distance; one bucketed mini-BFS over that region, seeded across its
  boundary with base depths, answers *every* target of the group.  The
  per-source context (one full BFS) and per-fault regions are cached,
  so on the Cons2FTBFS workload most probes cost a few dozen list
  operations;
* **cross-query multi-pair kernel** — every pair the repair leaves
  goes to the snapshot's C kernel in one call
  (:meth:`repro.core.csr.CSRGraph.multi_pair_dists`) whenever it loads
  and at least :data:`PAIR_MIN_C` pairs remain;
* **pooled scalar fallback**
  (:meth:`repro.core.csr.CSRGraph.bidir_distances`) — small residues
  and hosts without the C kernel, one ban stamping per restriction.

Every strategy computes exact hop distances, so results are
bit-identical to per-pair
:meth:`repro.core.csr.CSRGraph.bidir_distance` calls (property-tested
across all engines by ``tests/test_query_batch.py``).  Answers are
written back to the snapshot cache under the owning oracle's point
namespace, so scalar and batched queries share one memo.

Entry points: :meth:`repro.core.canonical.DistanceOracle.batch` /
:meth:`~repro.core.canonical.DistanceOracle.distances_bulk`,
:meth:`repro.replacement.base.SourceContext.query_batch`,
and :meth:`repro.ftbfs.oracle.FTQueryOracle.distances_bulk`.  The
legacy :class:`~repro.core.canonical.PythonDistanceOracle` and the
weighted oracles answer the same planner API through
:class:`LegacyQueryBatch` (dedupe only), so ``--engine lex`` keeps
reproducing the pre-kernel behavior end to end.

Only probes whose restriction is known upfront belong here.  Step 3 of
``Cons2FTBFS`` also probes ``dist(s, v, G \\ ((E(v) \\ collected) ∪ F))``,
but ``collected`` — the edge set gathered at ``v`` so far — grows as
the loop runs, so those probes are issued one at a time as scalar
queries in the paper's order.

Strategy thresholds are the module constants below
(:data:`PAIR_MIN_C`, :data:`REPAIR_MAX_REGION`), read at execution
time.  A planned probe whose source lies outside ``[0, n)`` raises
:class:`~repro.core.errors.GraphError`; an out-of-range target is
never found (``-1``), as in the scalar oracle.

Environment knob:

``REPRO_QUERY_BATCH``
    ``0`` disables batched execution in the converted builders (they
    fall back to per-pair scalar queries); used by the E16 benchmark to
    time the scalar arm.  Default ``1``.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import GraphError

UNREACHED = -1
INF = float("inf")

#: Minimum residual pair count before one C multi-pair call beats the
#: pooled python scalar loop: its per-batch fixed cost is one library
#: call plus a small marshalling loop, so even tiny residues win.
PAIR_MIN_C = 4
#: Largest affected region the tree-repair fast path will handle before
#: deferring to the traversal kernels.  Crossover vs the multi-pair
#: kernel: repair costs ~region·degree list operations, the kernel
#: ~12 µs/query — small regions win big, large regions are better
#: traversed.  The budget is per query: a group of k same-fault-set
#: targets affords a k-times-larger region.
REPAIR_MAX_REGION = 16


class _TreeRepair:
    """Per-(snapshot, source) context for repair-based point queries.

    For an edge-only restriction ``F``, ``dist(s, w, G \\ F)`` equals
    the unfaulted ``depth(w)`` for every ``w`` whose BFS-tree path from
    ``s`` avoids ``F`` — banning edges only removes paths, and the tree
    path survives.  The only vertices whose distance can change are the
    *affected region*: the union of the subtrees hanging below the
    faulted tree edges (non-tree faults affect nobody).  A point query
    therefore collapses to a bucketed mini-Dijkstra over that region,
    seeded across its boundary with ``depth(u) + 1`` labels (exact:
    every path enters the region through such an arc, and region exits
    re-enter through another seed).  On the Cons2FTBFS workload regions
    average a handful of vertices, so one query costs a few dozen list
    operations — far below even the pooled bidirectional search.

    Building the context costs one full canonical BFS (depth + parents
    + children + tree-edge ids); it is cached per (CSR snapshot,
    source) in the process-wide snapshot cache, which is what makes
    this a *batch* strategy — a planner with thousands of same-source
    probes amortizes it to noise.  Results are bit-identical to
    :meth:`repro.core.csr.CSRGraph.bidir_distance` (both are exact).
    """

    __slots__ = (
        "arcs",
        "source",
        "depth",
        "children",
        "child_of_eid",
        "subtree_size",
        "_mark",
        "_label",
        "_gen",
        "_regions",
        "_clean",
        "_seen",
    )

    def __init__(self, csr, source: int) -> None:
        # Hold only the iteration view, never the snapshot object: the
        # context is cached in the snapshot-keyed weak table, and a
        # strong value→key reference would keep retired snapshots (and
        # their whole memo tables) alive forever.
        self.arcs = csr.arcs
        self.source = source
        csr.bfs(source, csr.stamp_edge_ids((), ()))
        depth, parent = csr.collect()
        self.depth = depth
        n = csr.n
        children: List[List[int]] = [[] for _ in range(n)]
        child_of_eid: Dict[int, int] = {}
        eidx = csr.edge_index
        order = []  # reachable vertices in BFS-depth order
        for w in range(n):
            p = parent[w]
            if w == source or p == UNREACHED or p == w:
                continue
            children[p].append(w)
            child_of_eid[eidx[(p, w) if p < w else (w, p)]] = w
            order.append(w)
        self.children = children
        self.child_of_eid = child_of_eid
        # |subtree(w)| lets query() reject oversized regions in O(1)
        # before walking anything (children before parents = reverse
        # depth order).
        size = [1] * n
        order.sort(key=depth.__getitem__, reverse=True)
        for w in order:
            size[parent[w]] += size[w]
        self.subtree_size = size
        # Stamped scratch (same trick as the CSR kernel): region marks
        # and distance labels are valid only for the current generation.
        self._mark = [0] * n
        self._label = [0] * n
        self._gen = 0
        # roots tuple → region vertex list; fault pairs sharing a tree
        # fault (every step-3 probe of one π-edge) share their region.
        self._regions: Dict[Tuple[int, ...], List[int]] = {}
        # roots tuple → (labels, region-incident eids) of the *clean*
        # mini-BFS (tree faults only).  The step-3 workload probes one
        # tree fault against every edge of its detour; a detour edge
        # that never touches the region cannot change any label, so the
        # whole family collapses onto one cached search (see
        # query_many).
        self._clean: Dict[Tuple[int, ...], Tuple[Dict[int, int], frozenset]] = {}
        # 2-touch admission for _clean: many roots are probed exactly
        # once (detours that reroute over other tree edges fragment the
        # family), and building a clean context for those is pure loss.
        self._seen: set = set()

    def _region(self, roots: Tuple[int, ...]) -> List[int]:
        region = self._regions.get(roots)
        if region is None:
            children = self.children
            seen = set()
            region = []
            for r in roots:
                if r in seen:
                    continue
                stack = [r]
                while stack:
                    w = stack.pop()
                    if w in seen:
                        continue
                    seen.add(w)
                    region.append(w)
                    stack.extend(children[w])
            if len(self._regions) >= 8192:
                self._regions.clear()
            self._regions[roots] = region
        return region

    def query_many(
        self, targets: Sequence[int], eids: Sequence[int], limit: int
    ) -> Optional[List[int]]:
        """``dist(source, t, G \\ eids)`` for each target, or ``None``.

        One region walk + one seeded mini-BFS answers *every* target of
        the fault set (the labels cover the whole affected region), so
        a multi-target group costs the same as a single probe.
        ``None`` defers to the traversal kernels when the region
        outgrows ``limit``; all returned values are exact raw hops.

        The dominant probe family — one tree fault probed against every
        edge of its detour (``Cons2FTBFS`` step 3) — additionally
        collapses onto a per-roots *clean* search: a banned edge that
        never touches a region-incident arc cannot change any label, so
        all such probes are answered from one cached mini-BFS over the
        tree faults alone.
        """
        depth = self.depth
        child_of_eid = self.child_of_eid
        roots = tuple(
            sorted(child_of_eid[e] for e in eids if e in child_of_eid)
        )
        if not roots:
            # no fault touches the tree: every tree path survives
            return [depth[t] for t in targets]
        if sum(self.subtree_size[r] for r in roots) > limit:
            return None  # cheap upper bound (roots may nest, sum ≥ |region|)
        if len(eids) > 3:
            # Restriction-heavy probes (scenario SRLG groups and
            # maintenance waves, batched through distances_bulk) almost
            # always touch the region, so the clean-family machinery
            # below is pure overhead for them — search directly.
            return self._searched(self._region(roots), tuple(eids), targets)
        clean = self._clean.get(roots)
        if clean is None:
            if roots not in self._seen:
                # First touch: don't speculate on family reuse yet.
                if len(self._seen) >= 65536:
                    self._seen.clear()
                self._seen.add(roots)
                return self._searched(
                    self._region(roots), tuple(eids), targets
                )
            tree_eids = tuple(e for e in eids if e in child_of_eid)
            clean = self._build_clean(roots, tree_eids)
        labels, touched = clean
        for e in eids:
            if e in touched and e not in child_of_eid:
                break  # a non-tree ban reaches the region: full search
        else:
            return [labels.get(t, depth[t]) for t in targets]
        return self._searched(self._region(roots), tuple(eids), targets)

    def _build_clean(
        self, roots: Tuple[int, ...], tree_eids: Tuple[int, ...]
    ) -> Tuple[Dict[int, int], frozenset]:
        """The cached clean search of one roots family (see query_many):
        final labels for every region vertex under the tree faults
        alone, plus the region-incident edge ids that decide whether an
        extra ban can perturb them."""
        region = self._region(roots)
        touched = frozenset(
            e for w in region for _u, e in self.arcs[w]
        )
        answers = self._searched(region, tree_eids, region)
        labels = dict(zip(region, answers))
        if len(self._clean) >= 8192:
            self._clean.clear()
        clean = (labels, touched)
        self._clean[roots] = clean
        return clean

    def _searched(
        self, region: List[int], banned: Tuple[int, ...], targets: Sequence[int]
    ) -> List[int]:
        """The seeded bucketed mini-BFS over ``region`` (see class
        docstring); exact raw hops per target, ``depth`` outside the
        region, ``-1`` where the restriction cuts a region vertex off."""
        depth = self.depth
        gen = self._gen + 1
        self._gen = gen
        mark = self._mark
        for w in region:
            mark[w] = gen
        if all(mark[t] != gen for t in targets):
            return [depth[t] for t in targets]
        arcs = self.arcs
        label = self._label
        # Boundary seeds: cheapest entry arc per region vertex; labels
        # are exact entry distances, relaxed below by a bucketed BFS
        # (unit weights, so per-distance frontier lists suffice).
        seeds: Dict[int, List[int]] = {}
        for w in region:
            best = -1
            for u, e in arcs[w]:
                if mark[u] == gen or e in banned:
                    continue
                du = depth[u]
                if du != UNREACHED and (best < 0 or du + 1 < best):
                    best = du + 1
            label[w] = best
            if best >= 0:
                seeds.setdefault(best, []).append(w)
        if seeds:
            d = min(seeds)
            frontier = seeds.pop(d)
            while frontier or seeds:
                if not frontier:
                    d = min(seeds)
                    frontier = seeds.pop(d)
                    continue
                nd = d + 1
                nxt_frontier: List[int] = []
                for w in frontier:
                    if label[w] != d:
                        continue  # relabeled cheaper since queued
                    for u, e in arcs[w]:
                        if mark[u] != gen or e in banned:
                            continue
                        lu = label[u]
                        if lu < 0 or lu > nd:
                            label[u] = nd
                            nxt_frontier.append(u)
                pend = seeds.pop(nd, None)
                if pend is not None:
                    nxt_frontier.extend(pend)
                frontier = nxt_frontier
                d = nd
        return [
            (label[t] if mark[t] == gen else depth[t]) for t in targets
        ]


def batching_enabled() -> bool:
    """False iff ``REPRO_QUERY_BATCH=0`` — the scalar-arm switch used by
    the E16 benchmark and as an operational escape hatch."""
    return os.environ.get("REPRO_QUERY_BATCH", "1") != "0"


class QueryHandle:
    """The (future) answer to one planned point query.

    ``hops`` is ``None`` until the owning batch executes, then the raw
    hop distance (``-1`` when the restriction cuts the pair).
    :attr:`distance` is the ``inf``-style convenience view matching
    :meth:`repro.core.canonical.DistanceOracle.distance`.
    """

    __slots__ = ("hops",)

    def __init__(self) -> None:
        self.hops: Optional[int] = None

    @classmethod
    def resolved(cls, hops: int) -> "QueryHandle":
        """A pre-answered handle — used by planners that resolve a probe
        from structure they already hold (e.g. an already-computed
        replacement path certifying the distance) without any query."""
        handle = cls()
        handle.hops = hops
        return handle

    @property
    def distance(self) -> float:
        """``inf``-style hop distance, matching ``oracle.distance``'s
        return convention exactly; requires the batch to have executed."""
        if self.hops is None:
            raise RuntimeError("query batch not executed yet")
        return INF if self.hops == UNREACHED else self.hops

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryHandle(hops={self.hops})"


class PointQueryBatch:
    """Planner for kernel-backed oracles (see module docstring).

    Bound to one :class:`~repro.core.canonical.DistanceOracle` (or
    subclass): restriction freezing, memo namespace and kernel choice
    all follow the owning oracle, so batched and scalar queries on the
    same oracle family agree on keys and share cached answers.
    """

    __slots__ = ("_oracle", "_requests", "_executed", "_stats")

    _ns = None  # read by the planner wrapper in perfbench/tracing.py

    def __init__(self, oracle) -> None:
        self._oracle = oracle
        # (source, target, banned_edges, banned_vertices, handle)
        self._requests: List[Tuple] = []
        self._executed = 0
        self._stats = {
            "queries": 0,
            "unique": 0,
            "cached": 0,
            "repaired": 0,
            "paired": 0,
        }

    def __len__(self) -> int:
        return len(self._requests)

    @property
    def stats(self) -> Dict[str, int]:
        """Cumulative planner counters: ``queries`` planned, ``unique``
        after dedupe, ``cached`` answered from the snapshot cache,
        ``repaired`` answered by the tree-repair fast path, ``paired``
        answered by the cross-query C multi-pair kernel."""
        return dict(self._stats)

    def add(
        self,
        source: int,
        target: int,
        banned_edges: Iterable[Sequence[int]] = (),
        banned_vertices: Iterable[int] = (),
    ) -> QueryHandle:
        """Plan ``dist(source, target, G \\ restriction)``; nothing runs
        until :meth:`execute`."""
        handle = QueryHandle()
        self._requests.append(
            (source, target, tuple(banned_edges), tuple(banned_vertices), handle)
        )
        return handle

    def execute(self) -> List[int]:
        """Resolve every pending request; returns hops in plan order.

        Dedupes requests against each other and the snapshot cache,
        groups the misses by frozen restriction, and executes each
        group in one shot (one ban stamping per restriction).  Handles
        from :meth:`add` are filled in place; the batch is then empty
        and reusable.  Raises :class:`~repro.core.errors.GraphError`
        for a probe whose source lies outside ``[0, n)``.
        """
        requests, self._requests = self._requests, []
        if not requests:
            return []
        oracle = self._oracle
        csr = oracle._snapshot()
        cache = oracle._cache
        limit = oracle._cache_size
        n = csr.n
        st = self._stats

        # -- dedupe + memo probe, one pass ----------------------------
        # Restriction freezing is inlined for the dominant shapes (one
        # or two banned edges, no banned vertices — every Cons2FTBFS
        # feasibility probe) and must stay byte-compatible with
        # DistanceOracle._restriction: sorted resolved edge ids with
        # duplicates kept, sorted deduplicated vertices.
        nsd = cache.namespace(csr, oracle._PT_NS)  # bulk access; bookkeeping below
        eidx = csr.edge_index
        eidx_get = eidx.get
        slot_of: Dict[Tuple, int] = {}
        unique: List[Tuple] = []  # (source, target, ekey, vkey, key)
        slots: List[int] = []  # per request, its unique slot
        results: List[Optional[int]] = []
        misses: List[int] = []
        cache_hits = 0
        for source, target, be, bv, _handle in requests:
            if bv:
                eids, verts = oracle._restriction(csr, be, bv)
                ekey = tuple(eids)
                vkey = tuple(verts)
            else:
                vkey = ()
                if len(be) == 2:
                    e0, e1 = be
                    a, b = e0[0], e0[1]
                    i = eidx_get((a, b) if a < b else (b, a))
                    a, b = e1[0], e1[1]
                    j = eidx_get((a, b) if a < b else (b, a))
                    if i is None:
                        ekey = () if j is None else (j,)
                    elif j is None:
                        ekey = (i,)
                    else:
                        ekey = (i, j) if i <= j else (j, i)
                elif len(be) == 1:
                    a, b = be[0][0], be[0][1]
                    i = eidx_get((a, b) if a < b else (b, a))
                    ekey = () if i is None else (i,)
                elif not be:
                    ekey = ()
                else:
                    eids = csr.resolve_edge_ids(be)
                    eids.sort()
                    ekey = tuple(eids)
            key = (source, target, ekey, vkey)
            slot = slot_of.get(key)
            if slot is None:
                slot = len(unique)
                slot_of[key] = slot
                unique.append((source, target, ekey, vkey, key))
                hit = nsd.get(key)
                if hit is not None:
                    results.append(hit)
                    cache_hits += 1
                elif not 0 <= source < n:
                    raise GraphError(f"source {source} outside [0, {n})")
                elif not (0 <= target < n):
                    # match DistanceOracle.distance's "never found"
                    results.append(UNREACHED)
                    misses.append(slot)
                else:
                    results.append(None)
                    misses.append(slot)
            slots.append(slot)
        st["queries"] += len(requests)
        st["unique"] += len(unique)
        st["cached"] += cache_hits
        cache.add_stats(hits=cache_hits, misses=len(unique) - cache_hits)
        # out-of-range targets were answered inline; drop them from the
        # execution plan but keep them in `misses` for the cache fill.
        pending = [slot for slot in misses if results[slot] is None]

        # -- group misses by (source, frozen restriction): the executor
        # strategies all amortize per group.
        by_restriction: Dict[Tuple, List[int]] = {}
        eligible: Dict[int, int] = {}
        for slot in pending:
            source, _t, ekey, vkey, _k = unique[slot]
            by_restriction.setdefault((source, ekey, vkey), []).append(slot)
            if not vkey:
                eligible[source] = eligible.get(source, 0) + 1

        # -- tree-repair fast path: an edge-only restriction collapses
        # to one mini search over the subtrees below its faulted tree
        # edges, answering every target of the group (see _TreeRepair);
        # the per-source context is amortized across the batch and
        # cached on the snapshot.
        groups: Dict[Tuple, List[int]] = {}
        repairs: Dict[int, Optional[_TreeRepair]] = {}
        repair_ns = "repair:" + oracle._PT_NS
        for (source, ekey, vkey), group_slots in by_restriction.items():
            answers = None
            if not vkey:
                repair = repairs.get(source)
                if repair is None and source not in repairs:
                    repair = cache.get(csr, repair_ns, source)
                    if repair is None and eligible[source] >= 4:
                        # The context costs one full BFS — only worth
                        # building when this batch amortizes it (it is
                        # then cached for every later batch).
                        repair = _TreeRepair(csr, source)
                        cache.put(csr, repair_ns, source, repair, limit=64)
                    repairs[source] = repair
                if repair is not None:
                    targets = [unique[slot][1] for slot in group_slots]
                    # The region walk is shared by the whole group, so
                    # the affordable region grows with the group size
                    # (the cap is a per-query budget).
                    answers = repair.query_many(
                        targets, ekey, REPAIR_MAX_REGION * len(group_slots)
                    )
            if answers is not None:
                for slot, answer in zip(group_slots, answers):
                    results[slot] = answer
                st["repaired"] += len(group_slots)
            else:
                groups.setdefault((ekey, vkey), []).extend(group_slots)

        # -- residual: every pair the repair left.  One C call answers
        # them all; small residues (or no C kernel) loop the pooled
        # scalar query, one stamping per frozen restriction.
        residual = [slot for group_slots in groups.values() for slot in group_slots]
        if residual:
            if csr.c_active and len(residual) >= PAIR_MIN_C:
                queries = [
                    (unique[slot][0], unique[slot][1], unique[slot][2], unique[slot][3])
                    for slot in residual
                ]
                for slot, d in zip(residual, csr.multi_pair_dists(queries)):
                    results[slot] = d
                st["paired"] += len(residual)
            else:
                for (ekey, vkey), group_slots in groups.items():
                    ban = csr.stamp_edge_ids(list(ekey), list(vkey))
                    pairs = [
                        (unique[slot][0], unique[slot][1]) for slot in group_slots
                    ]
                    for slot, d in zip(
                        group_slots, csr.bidir_distances(pairs, ban)
                    ):
                        results[slot] = d

        if misses:
            cache.bulk_evict(nsd, limit)
            for slot in misses:
                nsd[unique[slot][4]] = results[slot]

        out: List[int] = []
        for (_s, _t, _be, _bv, handle), slot in zip(requests, slots):
            handle.hops = results[slot]
            out.append(handle.hops)
        self._executed += len(requests)
        return out


class LegacyQueryBatch:
    """Planner over a scalar-only oracle: dedupe, then loop.

    Gives :class:`~repro.core.canonical.PythonDistanceOracle` and the
    weighted oracles of :mod:`repro.core.weighted` the same planner
    surface as the kernel oracles, so converted consumers run
    unchanged under ``--engine lex`` or a weighted engine — each unique
    request is answered by one scalar ``oracle.distance`` call (the
    pre-kernel behavior the reference arm exists to preserve),
    duplicates are answered once.  Unreachable pairs answer
    :data:`UNREACHED`, integral distances come back as ``int`` (so
    uniform-weight runs are bit-identical to the hop planners) and
    non-integral weighted distances stay ``float``.
    """

    __slots__ = ("_oracle", "_requests")

    def __init__(self, oracle) -> None:
        self._oracle = oracle
        self._requests: List[Tuple] = []

    def __len__(self) -> int:
        return len(self._requests)

    def add(
        self,
        source: int,
        target: int,
        banned_edges: Iterable[Sequence[int]] = (),
        banned_vertices: Iterable[int] = (),
    ) -> QueryHandle:
        """Plan one query (executed lazily by :meth:`execute`)."""
        handle = QueryHandle()
        self._requests.append(
            (source, target, tuple(banned_edges), tuple(banned_vertices), handle)
        )
        return handle

    def execute(self) -> List[int]:
        """Answer all pending requests (duplicates answered once)."""
        requests, self._requests = self._requests, []
        memo: Dict[Tuple, int] = {}
        out: List[int] = []
        distance = self._oracle.distance
        for source, target, be, bv, handle in requests:
            key = (source, target, be, bv)
            hops = memo.get(key)
            if hops is None:
                d = distance(source, target, be, bv)
                if d == INF:
                    hops = UNREACHED
                elif isinstance(d, float) and not d.is_integer():
                    hops = d
                else:
                    hops = int(d)
                memo[key] = hops
            handle.hops = hops
            out.append(hops)
        return out
