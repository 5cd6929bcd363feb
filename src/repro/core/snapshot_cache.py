"""Process-wide memo cache for restricted-search results, keyed per snapshot.

The engine search memo and the distance oracle's point-query memo used
to be per-*instance* dictionaries, so two builders running on the same
graph — or two :class:`~repro.replacement.base.SourceContext` objects
probing the same fault sets from the same source — each re-ran
identical restricted searches.  This module centralizes those memos
into one shared :class:`SnapshotCache`:

* **Keying.**  Entries are keyed on the graph's live CSR snapshot
  (:class:`~repro.core.csr.CSRGraph`), a *namespace* naming the result
  kind (point distance, distance vector, search result), and the frozen
  restriction key (source/target plus sorted banned edge ids and
  vertices).  Because :func:`repro.core.csr.csr_of` returns one
  snapshot per ``(graph, version)``, all consumers of one graph agree
  on the key — and a graph mutation, which makes ``csr_of`` build a new
  snapshot, *is* the invalidation: the old snapshot's table becomes
  unreachable and is dropped by the weak table the moment the last
  engine refreshes.

* **Sharing.**  :class:`~repro.core.canonical.DistanceOracle`,
  :class:`~repro.core.canonical.CSRLexShortestPaths` both consult
  :func:`shared_cache` by default, so the repeated
  feasibility checks that dominate ``Cons2FTBFS`` are answered once per
  process, not once per builder.  Results stored here are immutable by
  contract (vector entries are copied out on read).

* **Accounting.**  ``hits`` / ``misses`` / ``evictions`` counters make
  cache behavior observable (and testable:
  ``tests/test_snapshot_cache.py``); :meth:`SnapshotCache.stats`
  snapshots them together with the live table sizes, and the
  ``delta_*`` counters account cache migration across incremental
  topology updates (:mod:`repro.core.delta`).

Benchmarks that compare engines on one graph must call
:meth:`SnapshotCache.clear` between timed arms (see
``benchmarks/bench_e10_runtime.py``) — otherwise the second arm is
measured against a warm cache and the comparison is meaningless.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, Dict, Hashable, Optional

#: Default per-namespace entry limit before a wholesale eviction.
DEFAULT_LIMIT = 262_144


class SnapshotCache:
    """Shared memo tables keyed on ``(CSR snapshot, namespace, key)``.

    Tables are held in a :class:`weakref.WeakKeyDictionary` keyed on the
    snapshot object, so entries never outlive the snapshot they describe
    — graph mutation invalidates by construction, no explicit flush
    required.  Within a snapshot, each namespace is an independent dict
    with an independent size limit; overflow clears that namespace
    wholesale (the stamped-kernel workloads have no useful recency
    structure, so LRU bookkeeping would cost more than it saves).

    Counter updates and eviction bookkeeping run under a cheap
    uncontended lock: the C kernel tier releases the GIL for whole
    batches and threaded consumers may touch the shared cache
    concurrently, and unguarded read-modify-write counter updates
    would silently corrupt the accounting ``repro bench`` reports
    (hammered in ``tests/test_snapshot_cache.py``).  Bulk consumers
    using :meth:`namespace` do their own per-key bookkeeping outside
    the lock by design — they batch their counter settlement into one
    guarded :meth:`add_stats` call.
    """

    __slots__ = (
        "_lock",
        "hits",
        "misses",
        "evictions",
        "oversize",
        "delta_survived",
        "delta_evicted",
        "delta_rechecked",
        "_tables",
        "_weights",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.oversize = 0
        self.delta_survived = 0
        self.delta_evicted = 0
        self.delta_rechecked = 0
        self._tables: "weakref.WeakKeyDictionary[Any, Dict[str, dict]]" = (
            weakref.WeakKeyDictionary()
        )
        # Per (snapshot, namespace) accumulated entry weight, for the
        # weight-capped namespaces (distance vectors); mirrors _tables'
        # lifetime so weights die with their snapshot.
        self._weights: "weakref.WeakKeyDictionary[Any, Dict[str, int]]" = (
            weakref.WeakKeyDictionary()
        )

    def get(self, snapshot: Any, namespace: str, key: Hashable) -> Optional[Any]:
        """The cached value, or ``None`` (counted as hit/miss)."""
        with self._lock:
            table = self._tables.get(snapshot)
            if table is not None:
                ns = table.get(namespace)
                if ns is not None:
                    value = ns.get(key)
                    if value is not None:
                        self.hits += 1
                        return value
            self.misses += 1
            return None

    def put(
        self,
        snapshot: Any,
        namespace: str,
        key: Hashable,
        value: Any,
        limit: int = DEFAULT_LIMIT,
        weight: int = 0,
        weight_limit: int = 0,
    ) -> None:
        """Store ``value``; clears the namespace wholesale at ``limit``.

        Weight-capped namespaces (``weight``/``weight_limit`` > 0) track
        the summed weight of their entries — the distance-vector memos
        pass the vector length, bounding the namespace's *memory*, not
        just its entry count, so vector memos cannot grow unbounded on
        large graphs.  An entry whose own weight exceeds the namespace
        budget is never cached (counted in ``oversize``); an entry that
        would push the namespace past its budget clears the namespace
        first (counted in ``evictions``, same wholesale policy as the
        entry-count limit).
        """
        with self._lock:
            capped = weight > 0 and weight_limit > 0
            if capped and weight > weight_limit:
                self.oversize += 1
                return
            table = self._tables.get(snapshot)
            if table is None:
                table = {}
                self._tables[snapshot] = table
            ns = table.get(namespace)
            ns_weight = 0
            if capped:
                weights = self._weights.get(snapshot)
                if weights is None:
                    weights = {}
                    self._weights[snapshot] = weights
                ns_weight = weights.get(namespace, 0)
            if ns is None:
                ns = {}
                table[namespace] = ns
            elif capped and key in ns:
                # Overwrite (e.g. a partial search promoted to full):
                # the replacement has the same shape, so the namespace
                # weight is unchanged — adding again would inflate the
                # tracked weight with phantom entries and force
                # premature evictions.
                ns[key] = value
                return
            elif len(ns) >= limit or (
                capped and ns_weight + weight > weight_limit
            ):
                self.evictions += len(ns)
                ns.clear()
                ns_weight = 0
            ns[key] = value
            if capped:
                weights[namespace] = ns_weight + weight

    def namespace(self, snapshot: Any, namespace: str) -> dict:
        """The raw namespace dict, for bulk readers/writers.

        The batched point-query executor resolves thousands of keys per
        call; going through :meth:`get`/:meth:`put` would pay the weak
        table lookup per key.  Callers of this accessor take over the
        bookkeeping duties: count their hits/misses into
        :attr:`hits`/:attr:`misses` themselves and enforce the
        namespace limit with :meth:`bulk_evict` before inserting.
        """
        with self._lock:
            table = self._tables.get(snapshot)
            if table is None:
                table = {}
                self._tables[snapshot] = table
            ns = table.get(namespace)
            if ns is None:
                ns = {}
                table[namespace] = ns
            return ns

    def bulk_evict(self, ns: dict, limit: int = DEFAULT_LIMIT) -> None:
        """Apply :meth:`put`'s wholesale-clear policy once for a bulk
        insert into a dict obtained from :meth:`namespace`."""
        with self._lock:
            if len(ns) >= limit:
                self.evictions += len(ns)
                ns.clear()

    def migrate(self, parent: Any, child: Any, decide) -> Dict[str, int]:
        """Move surviving entries from ``parent``'s table to ``child``'s.

        The lineage-aware invalidation primitive behind incremental
        topology updates (see ``docs/incremental.md``): instead of
        letting a graph mutation orphan the whole parent table, the
        delta layer (:mod:`repro.core.delta`) calls this with a
        ``decide(namespace, key, value)`` policy returning

        * ``None`` — evict the entry (counted in ``delta_evicted``);
        * ``(key, value)`` — keep it under the (possibly rewritten)
          key/value in the child's table (``delta_survived``);
        * ``(key, value, True)`` — same, but the survival required a
          recomputation (additionally counted in ``delta_rechecked``).

        The policy runs *outside* the lock (it may traverse the child
        snapshot); the table swap itself is atomic per namespace.
        Returns the per-call counter deltas.
        """
        with self._lock:
            table = self._tables.pop(parent, None)
            self._weights.pop(parent, None)
        survived = evicted = rechecked = 0
        migrated: Dict[str, dict] = {}
        for namespace, ns in (table or {}).items():
            out: dict = {}
            for key, value in ns.items():
                verdict = decide(namespace, key, value)
                if verdict is None:
                    evicted += 1
                    continue
                out[verdict[0]] = verdict[1]
                survived += 1
                if len(verdict) > 2 and verdict[2]:
                    rechecked += 1
            if out:
                migrated[namespace] = out
        with self._lock:
            child_table = self._tables.get(child)
            if child_table is None:
                child_table = {}
                self._tables[child] = child_table
            for namespace, out in migrated.items():
                ns = child_table.get(namespace)
                if ns is None:
                    child_table[namespace] = out
                else:
                    for key, value in out.items():
                        ns.setdefault(key, value)
            self.delta_survived += survived
            self.delta_evicted += evicted
            self.delta_rechecked += rechecked
        return {
            "delta_survived": survived,
            "delta_evicted": evicted,
            "delta_rechecked": rechecked,
        }

    def add_stats(self, **deltas: int) -> None:
        """Atomically add counter deltas by name (e.g. ``hits=42``).

        The settlement path for bulk consumers: a
        :class:`~repro.core.query_batch.PointQueryBatch` resolves
        thousands of keys against a raw :meth:`namespace` dict and
        then settles its hit/miss accounting in one guarded call
        instead of thousands of unguarded ``+=`` attribute updates.
        """
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def stats(self) -> Dict[str, int]:
        """Counters plus live table sizes (for reports and tests)."""
        with self._lock:
            return self._stats_locked()

    def _stats_locked(self) -> Dict[str, int]:
        """:meth:`stats` body; caller holds the lock."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "oversize": self.oversize,
            "delta_survived": self.delta_survived,
            "delta_evicted": self.delta_evicted,
            "delta_rechecked": self.delta_rechecked,
            "snapshots": len(self._tables),
            "entries": sum(
                len(ns) for table in self._tables.values() for ns in table.values()
            ),
            "vector_weight": sum(
                w for weights in self._weights.values() for w in weights.values()
            ),
        }

    def clear(self) -> None:
        """Drop every table (counters are kept; see :meth:`reset_stats`)."""
        with self._lock:
            self._tables.clear()
            self._weights.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction/oversize/delta counters."""
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.oversize = 0
            self.delta_survived = 0
            self.delta_evicted = 0
            self.delta_rechecked = 0


#: The process-wide instance every oracle/engine uses by default.
_SHARED = SnapshotCache()


def shared_cache() -> SnapshotCache:
    """The process-wide :class:`SnapshotCache` shared by all consumers."""
    return _SHARED
