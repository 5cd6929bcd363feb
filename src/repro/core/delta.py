"""Survival certificates: lineage-aware cache migration across a delta.

When :func:`repro.core.csr.csr_of` patches a snapshot incrementally
(:class:`~repro.core.csr.DeltaCSRGraph`), the entries memoized against
the parent snapshot are not automatically garbage: most of them answer
restricted searches whose outcome the delta provably cannot have
changed.  This module decides, entry by entry, which cached results
*survive* the delta — moving them to the child snapshot's table via
:meth:`~repro.core.snapshot_cache.SnapshotCache.migrate` — and which
must be evicted.

The certificates (all reasoned against the entry's own stored labels,
never against the mutated graph, so each check is O(delta) per entry):

**Edge delete** ``(u, v)``:

* the deleted edge is *banned* in the entry's restriction — the entry
  never saw it; it survives with the (now meaningless) edge id dropped
  from its key.  Note the rewritten key can only collide with another
  survivor certifying the same function, so collisions are benign.
* an endpoint is a banned vertex — the edge was untraversable; survive.
* an endpoint is unreached/undiscovered in the stored labels — the
  deleted arcs were never consumed by the search (in a complete search
  a reached↔unbanned-unreached edge is impossible; in a target-stopped
  prefix an arc out of an undiscovered or unprocessed vertex was never
  scanned before the stop), so the labels are unchanged; survive.
* both endpoints reached: the search changes iff the deleted edge was
  a *tree arc* of the stored result (``parent[v] == u`` with
  ``dv == du + 1`` or symmetrically).  Distance-only entries carry no
  parents, so they use the monotone layering argument instead: an edge
  with ``|du - dv| != 1`` lies on no shortest path (depths along a
  shortest path increase by exactly 1 per hop) and its deletion moves
  no distance; ``|du - dv| == 1`` cannot be certified from distances
  alone and evicts.

**Edge insert** ``(u, v)``:

* an endpoint is a banned vertex — the new edge is untraversable;
  survive.
* both endpoints unreached/undiscovered — the new arcs hang off
  vertices the search never processed; survive.
* both reached at equal depth — a same-layer edge is scanned only
  after both endpoints are already visited and lies on no shortest
  path, so neither labels nor discovery order change; survive.
* distance-only entries additionally survive ``|du - dv| == 1`` (a new
  edge changes some distance iff it bridges a depth gap ``>= 2`` or
  reaches an unreached vertex); parent-carrying entries do *not* — the
  new arc may rank-precede the stored canonical parent — and evict.
* everything else evicts.

Certificates compose: a certified edge leaves the stored labels
unchanged, so each delta edge is checked independently against the
same labels and the conjunction certifies the whole batch.

Point-distance entries (``pt:*``) store a single scalar, which
certifies nothing by itself.  They are derived through their source's
cached distance *vector* (``vec:*``, captured from the parent table
before the migration pops it) when one exists; otherwise a bounded
number of them (:data:`DELTA_RECHECK`) are refreshed in place with
one bidirectional probe each on the *child* snapshot — counted as
``delta_rechecked`` — and the rest evict.

Structure-repair memos (``repair:*``) and unknown namespaces always
evict: recomputing them costs less than proving they survive.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.graph import Edge
from repro.core.snapshot_cache import shared_cache

UNREACHED = -1


#: Per-delta budget of point-entry refresh probes.  Each
#: surviving-but-uncertified ``pt:*`` entry may cost one bounded
#: bidirectional BFS on the child snapshot; this caps how many the
#: migration is willing to pay for before evicting the remainder.
#: Read at migration time.
DELTA_RECHECK = 256

#: Damage fraction past which a context rebuilds.  Used by
#: :meth:`repro.replacement.base.SourceContext.absorb_delta`: when the
#: subtrees dirtied by a delta cover more than this fraction of the
#: graph's vertices, selective repair is a false economy and the
#: per-source state is rebuilt outright.  Read at absorb time.
DELTA_MAX_DAMAGE = 0.25


def _search_survives(res, eset, vset, added, removed) -> bool:
    """Delete/insert certificates for a parent-carrying SearchResult."""
    dist = res.dist_or_unreached
    par = res.parent
    for (u, v), i in removed:
        if i in eset or u in vset or v in vset:
            continue
        du = dist(u)
        dv = dist(v)
        if du < 0 or dv < 0:
            continue
        if (par(v) == u and dv == du + 1) or (par(u) == v and du == dv + 1):
            return False  # tree arc of the stored result
    for (u, v) in added:
        if u in vset or v in vset:
            continue
        du = dist(u)
        dv = dist(v)
        if du < 0 and dv < 0:
            continue
        if du != dv:  # covers one-unreached and any depth gap
            return False
    return True


def _vec_survives(vec, eset, vset, added, removed) -> bool:
    """Delete/insert certificates for a distance-only vector."""
    for (u, v), i in removed:
        if i in eset or u in vset or v in vset:
            continue
        du = vec[u]
        dv = vec[v]
        if du >= 0 and dv >= 0 and abs(du - dv) == 1:
            return False
    for (u, v) in added:
        if u in vset or v in vset:
            continue
        du = vec[u]
        dv = vec[v]
        if du < 0 and dv < 0:
            continue
        if du < 0 or dv < 0 or abs(du - dv) > 1:
            return False
    return True


def migrate_cache(
    parent,
    child,
    adds: Iterable[Edge],
    removes: Iterable[Edge],
) -> Dict[str, int]:
    """Migrate the shared cache's parent-snapshot table across a delta.

    Called by :func:`repro.core.csr.csr_of` right after building a
    :class:`~repro.core.csr.DeltaCSRGraph`; applies the module's
    survival certificates through
    :meth:`~repro.core.snapshot_cache.SnapshotCache.migrate` and
    returns its per-call counter deltas.  Only the process-wide
    :func:`~repro.core.snapshot_cache.shared_cache` is migrated;
    consumers running a private cache simply rebuild.
    """
    cache = shared_cache()
    added: List[Edge] = sorted(adds)
    removed: List[Tuple[Edge, int]] = [
        (e, parent.edge_index[e]) for e in sorted(removes)
    ]
    removed_ids = frozenset(i for _, i in removed)
    # Point entries are certified through their source's distance
    # vector; capture the parent vec tables *before* migrate() pops
    # the parent's table (the dicts stay alive through these refs).
    vec_tables = {"pt:csr": cache.namespace(parent, "vec:csr")}
    # Distance-only vectors failing the layering certificate get a
    # second chance through the *parent-carrying* search entry of the
    # same key: a surviving complete search proves every distance
    # unchanged (a deleted non-tree arc never discovers anyone), which
    # distances alone cannot certify when ``|du - dv| == 1``.
    search_tables = {"vec:csr": cache.namespace(parent, "search:lex-csr")}
    state = {"budget": DELTA_RECHECK, "ban_key": None, "ban": None}

    def strip(ekey: Sequence[int]) -> Tuple[int, ...]:
        if removed_ids.isdisjoint(ekey):
            return tuple(ekey)
        return tuple(i for i in ekey if i not in removed_ids)

    def decide(namespace, key, value):
        if namespace.startswith("search:"):
            source, ekey, vkey = key
            res, complete = value
            if not _search_survives(res, set(ekey), set(vkey), added, removed):
                return None
            return ((source, strip(ekey), vkey), value)
        if namespace.startswith("vec:"):
            source, ekey, vkey = key
            if not _vec_survives(value, set(ekey), set(vkey), added, removed):
                searches = search_tables.get(namespace)
                entry = searches.get(key) if searches is not None else None
                if (
                    entry is None
                    or not entry[1]  # incomplete prefix: covers only some labels
                    or not _search_survives(
                        entry[0], set(ekey), set(vkey), added, removed
                    )
                ):
                    return None
            return ((source, strip(ekey), vkey), value)
        if namespace.startswith("pt:"):
            s, t, ekey, vkey = key
            new_key = (s, t, strip(ekey), vkey)
            vecs = vec_tables.get(namespace)
            if vecs is not None:
                vec = vecs.get((s, ekey, vkey))
                if vec is not None and _vec_survives(
                    vec, set(ekey), set(vkey), added, removed
                ):
                    return (new_key, value)
            if state["budget"] <= 0:
                return None
            state["budget"] -= 1
            if not (0 <= t < child.n):
                return (new_key, UNREACHED, True)
            # Consecutive entries of one preseeded bucket share their
            # restriction; reuse the stamp instead of re-stamping.
            bucket = (new_key[2], vkey)
            if state["ban_key"] != bucket:
                state["ban"] = child.stamp_edge_ids(new_key[2], vkey)
                state["ban_key"] = bucket
            d = child.bidir_distance(s, t, state["ban"])
            return (new_key, d, True)
        # repair:* and anything unknown: recomputation is cheaper
        # than survival analysis.
        return None

    return cache.migrate(parent, child, decide)
