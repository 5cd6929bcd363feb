"""Algorithm ``Cons2FTBFS`` — the paper's main construction (Sec. 3).

For every target ``v`` the algorithm proceeds in three steps:

1. **Single faults on** ``π(s, v)``: select ``P_{s,v,{e_i}}`` with the
   earliest possible π-divergence point (binary search over the
   ``G(u_k, u_i)`` restrictions of Eq. 3) and record its last edge
   (set ``E_1(π)``) and its detour ``D_i``.
2. **Two faults on** ``π(s, v)``: for every pair, prefer the candidate
   composed from the two detours when it is a genuine shortest path,
   else the canonical shortest path; record last edges (``E_2(π)``).
3. **One fault on** ``π(s, v)`` **and one on its detour**: walk the
   fault pairs ``(e_i, t_j)``, ``t_j ∈ D_i``, in the prescribed
   decreasing order.  A pair already satisfied by the current structure
   ``G_{τ-1}(v)`` (the graph whose only edges at ``v`` are the collected
   ones) contributes nothing; otherwise the pair is *new-ending* and the
   selected path — earliest π-divergence, then earliest D-divergence —
   contributes its last edge.

The output ``H = T0 ∪ ⋃_v H(v)`` is a dual-failure FT-BFS structure of
size ``O(n^{5/3})`` (Thm. 1.1).  The per-vertex new-edge counters that
the theorem bounds by ``O(n^{2/3})`` are exposed in ``stats`` and, with
``keep_records=True``, the full per-vertex evidence (detours, new-ending
paths) is retained for the structural census of experiments E8/E9.

**Plan-then-execute feasibility checks.**  Steps 2 and 3 open with a
pure feasibility filter per fault pair — ``dist(s, v, G \\ F)``, the
point queries that dominate the construction's runtime.  Those
distances depend only on ``(v, F)``, never on the evolving edge
collection, so the builder now runs in three phases: *plan* (step 1
per target, enumerating every step-2/3 fault pair and registering its
feasibility probe with a :class:`~repro.core.query_batch.PointQueryBatch`),
*execute* (one batched resolution — deduplicated, grouped by frozen
fault set, the residue answered by one C multi-pair call; a pair
of π-edges is shared by every target below it, so whole subtrees of
probes collapse into one group), then *finish* (the paper's sequential
per-vertex selection logic, consuming the precomputed distances).  The
produced structure is byte-identical to the per-pair scalar path —
set ``REPRO_QUERY_BATCH=0`` to force that path (the E16 benchmark's
baseline arm).

One probe family stays outside the plan phase: the ``d_restricted``
check of step 3 asks ``dist(s, v, G')`` where ``G'`` bans every edge
incident to ``v`` *not yet collected* — and the collected set grows as
step 3 itself appends new-ending last edges, so the probe's
restriction depends on the loop's own progress.  Step 3 therefore
issues it as one scalar point query per pair, in the paper's order.
How many of them the shared snapshot-cache memo answers depends on
the graph: 96% on ``tree_plus_chords(1000, 300)``, 2% on
``erdos_renyi(1000, 0.008)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.canonical import INF
from repro.core.graph import Edge, Graph, normalize_edge
from repro.core.paths import Path
from repro.core.query_batch import QueryHandle, batching_enabled
from repro.ftbfs.structures import FTStructure, make_structure
from repro.replacement.base import SourceContext
from repro.replacement.dual import DualReplacement, pid_replacement, pipi_replacement
from repro.replacement.single import SingleReplacement, all_single_replacements


@dataclass
class VertexRecord:
    """Per-target evidence collected by ``Cons2FTBFS``.

    Only populated when the builder runs with ``keep_records=True``.
    """

    vertex: int
    pi_path: Path
    singles: Dict[Edge, Optional[SingleReplacement]]
    pipi_records: List[DualReplacement] = field(default_factory=list)
    new_ending: List[DualReplacement] = field(default_factory=list)
    satisfied_pairs: int = 0
    new_edges: Set[Edge] = field(default_factory=set)
    new_from_single: int = 0
    new_from_pipi: int = 0
    new_from_pid: int = 0

    @property
    def detours(self) -> List[SingleReplacement]:
        """The detour collection ``D`` of this target (non-bridge faults)."""
        return [s for s in self.singles.values() if s is not None]


def build_cons2ftbfs(
    graph: Graph,
    source: int,
    engine=None,
    keep_records: bool = False,
) -> FTStructure:
    """Run Algorithm ``Cons2FTBFS`` and return the structure.

    ``stats`` keys:

    * ``new_edges_per_vertex`` — ``|New(v)|`` for every reachable ``v``
      (the quantity Thm. 1.1 bounds by ``O(n^{2/3})``);
    * ``new_ending_paths`` / ``satisfied_pairs`` — step-3 outcome counts;
    * ``fallbacks`` — structured-candidate validation failures (expected
      to stay at/near zero);
    * ``records`` — list of :class:`VertexRecord` when requested.
    """
    ctx = SourceContext(graph, source, engine)
    tree = ctx.tree
    t0_edges = set(tree.edges())
    edges: Set[Edge] = set(t0_edges)
    new_per_vertex: Dict[int, int] = {}
    phase_counts = {"single": 0, "pipi": 0, "pid": 0}
    records: List[VertexRecord] = []
    total_new_ending = 0
    total_satisfied = 0
    total_fallbacks = 0

    # Phase 1+2 (plan, execute): enumerate every step-2/3 fault pair
    # and resolve all their feasibility distances in one batched
    # execution; phase 3 (finish) then replays the paper's sequential
    # selection against the precomputed answers.  See module docstring.
    batch = ctx.query_batch() if batching_enabled() else None
    plans = [
        _plan_vertex(ctx, v, batch)
        for v in tree.vertices()
        if v != source
    ]
    if batch is not None:
        batch.execute()

    for plan in plans:
        record = _finish_vertex(ctx, plan, keep_records)
        v = record.vertex
        edges.update(record.new_edges)
        edges.update(_incident_tree_edges(tree, v))
        new_per_vertex[v] = len(record.new_edges)
        phase_counts["single"] += record.new_from_single
        phase_counts["pipi"] += record.new_from_pipi
        phase_counts["pid"] += record.new_from_pid
        total_new_ending += len(record.new_ending)
        total_satisfied += record.satisfied_pairs
        total_fallbacks += sum(1 for r in record.new_ending if r.fallback)
        total_fallbacks += sum(1 for r in record.pipi_records if r.fallback)
        if keep_records:
            records.append(record)

    stats = {
        "tree_edges": len(t0_edges),
        "new_edges_per_vertex": new_per_vertex,
        "max_new_edges": max(new_per_vertex.values(), default=0),
        "new_ending_paths": total_new_ending,
        "satisfied_pairs": total_satisfied,
        "fallbacks": total_fallbacks,
        "new_edges_by_phase": phase_counts,
    }
    if keep_records:
        stats["records"] = records
    return make_structure(
        graph, (source,), 2, edges, builder="cons2ftbfs", stats=stats
    )


def _incident_tree_edges(tree, v: int) -> Set[Edge]:
    """``E(v, T0)``: the tree edges incident to ``v``."""
    out: Set[Edge] = set()
    p = tree.parent(v)
    if p != v and p != -1:
        out.add(normalize_edge(p, v))
    for c in tree.children(v):
        out.add(normalize_edge(c, v))
    return out


@dataclass
class _VertexPlan:
    """One target's planned step-2/3 work: fault pairs + query handles.

    ``pipi``/``pid`` hold the pairs in exactly the iteration order the
    scalar algorithm uses; each entry carries the
    :class:`~repro.core.query_batch.QueryHandle` of its feasibility
    probe (``None`` when batching is disabled, in which case
    :func:`_finish_vertex` issues the scalar point query instead).
    """

    vertex: int
    pi_path: Path
    singles: Dict[Edge, Optional[SingleReplacement]]
    pipi: List[Tuple[SingleReplacement, SingleReplacement, Optional[QueryHandle]]]
    pid: List[Tuple[SingleReplacement, Edge, Optional[QueryHandle]]]


def _plan_vertex(ctx: SourceContext, v: int, batch) -> _VertexPlan:
    """Step 1 for ``v`` plus the plan of every step-2/3 feasibility probe.

    The probes registered here are pure functions of ``(v, F)`` — they
    do not see the evolving edge collection — which is what makes them
    batchable across all targets.  A π-edge pair is shared by every
    target below its lower edge, so these probes collapse into large
    single-fault-set groups at execution time.
    """
    pi_path = ctx.pi(v)
    singles = all_single_replacements(ctx, v)
    pi_edges = [normalize_edge(a, b) for a, b in pi_path.directed_edges()]
    source = ctx.source

    pipi: List[Tuple[SingleReplacement, SingleReplacement, Optional[QueryHandle]]] = []
    for i in range(len(pi_edges)):
        upper = singles[pi_edges[i]]
        if upper is None:
            continue  # bridge above: the pair disconnects v as well
        for j in range(i + 1, len(pi_edges)):
            lower = singles[pi_edges[j]]
            if lower is None:
                continue
            if batch is None:
                handle = None
            elif not upper.path.has_edge(*lower.fault):
                # Step-1 certificate: P_{s,v,{e_i}} survives in
                # G \ {e_i, e_j}, and by restriction monotonicity its
                # length *is* dist(s, v, G \ {e_i, e_j}) — the pair's
                # feasibility probe resolves with zero traversal.
                handle = QueryHandle.resolved(len(upper.path))
            elif not lower.path.has_edge(*upper.fault):
                handle = QueryHandle.resolved(len(lower.path))
            else:
                handle = batch.add(source, v, (upper.fault, lower.fault))
            pipi.append((upper, lower, handle))

    pid: List[Tuple[SingleReplacement, Edge, Optional[QueryHandle]]] = []
    for e in reversed(pi_edges):  # deepest first fault first
        rep = singles[e]
        if rep is None:
            continue
        detour_edges = [
            normalize_edge(a, b) for a, b in rep.detour.directed_edges()
        ]
        for t in reversed(detour_edges):  # deepest detour fault first
            handle = (
                batch.add(source, v, (rep.fault, t))
                if batch is not None
                else None
            )
            pid.append((rep, t, handle))

    return _VertexPlan(vertex=v, pi_path=pi_path, singles=singles, pipi=pipi, pid=pid)


def _finish_vertex(
    ctx: SourceContext, plan: _VertexPlan, keep_records: bool
) -> VertexRecord:
    """Steps 1-3 for one target: the paper's sequential selection logic,
    consuming the batched feasibility distances.

    Every step-3 ``d_restricted`` probe is issued as a scalar point
    query against the live collected set, exactly in the prescribed
    pair order.
    """
    v = plan.vertex
    tree = ctx.tree
    pi_path = plan.pi_path
    singles = plan.singles
    incident_tree = _incident_tree_edges(tree, v)
    all_incident = set(ctx.graph.incident_edges(v))

    # ------------------------------------------------------------------
    # Step 1: single faults on π(s, v) (computed during planning).
    # ------------------------------------------------------------------
    record = VertexRecord(vertex=v, pi_path=pi_path, singles=singles)
    collected: Set[Edge] = set(incident_tree)
    for rep in singles.values():
        if rep is not None:
            le = rep.path.last_edge()
            if le not in collected:
                record.new_from_single += 1
            collected.add(le)

    # ------------------------------------------------------------------
    # Step 2: both faults on π(s, v).
    # ------------------------------------------------------------------
    for upper, lower, handle in plan.pipi:
        target = handle.distance if handle is not None else None
        rec = pipi_replacement(ctx, v, upper, lower, target=target)
        if rec is None:
            continue
        le = rec.path.last_edge()
        if le not in collected:
            record.new_from_pipi += 1
            collected.add(le)
            if keep_records:
                # Only paths that introduced a new edge belong to
                # the new-ending census (class A of Fig. 7).
                record.pipi_records.append(rec)

    # ------------------------------------------------------------------
    # Step 3: one fault on π(s, v), one on its detour, in the
    # prescribed decreasing (e, t) order.
    # ------------------------------------------------------------------
    for rep, t, handle in plan.pid:
        faults = (rep.fault, t)
        target = (
            handle.distance
            if handle is not None
            else ctx.distance(v, banned_edges=faults)
        )
        if target == INF:
            continue
        restricted_ban = (all_incident - collected) | set(faults)
        d_restricted = ctx.distance(v, banned_edges=restricted_ban)
        if d_restricted == target:
            record.satisfied_pairs += 1
            continue
        dual = pid_replacement(ctx, v, rep, t, target=target)
        if dual is None:  # pragma: no cover - target was finite above
            continue
        le = dual.path.last_edge()
        if le not in collected:
            record.new_from_pid += 1
        collected.add(le)
        record.new_ending.append(dual)

    record.new_edges = collected - incident_tree
    return record


def feasibility_probes(
    ctx: SourceContext,
) -> List[Tuple[int, Tuple[Edge, Edge], Optional[Tuple[Path, Path]]]]:
    """The construction's plannable feasibility-probe workload.

    Enumerates, in plan order, every step-2/3 target-distance probe
    ``dist(s, v, G \\ F)`` that :func:`build_cons2ftbfs` issues —
    ``(target, fault pair, certificates)`` triples, where
    ``certificates`` carries the two step-1 replacement paths whose
    edge membership can resolve a step-2 probe without any query
    (``None`` for step-3 probes).  This is the workload of benchmark
    E16, which times the batched pipeline against a per-pair scalar
    loop over exactly these probes; running it executes step 1 (the
    singles computation) as a side effect.
    """
    out: List[Tuple[int, Tuple[Edge, Edge], Optional[Tuple[Path, Path]]]] = []
    tree = ctx.tree
    for v in tree.vertices():
        if v == ctx.source:
            continue
        pi_path = ctx.pi(v)
        singles = all_single_replacements(ctx, v)
        pi_edges = [normalize_edge(a, b) for a, b in pi_path.directed_edges()]
        for i in range(len(pi_edges)):
            upper = singles[pi_edges[i]]
            if upper is None:
                continue
            for j in range(i + 1, len(pi_edges)):
                lower = singles[pi_edges[j]]
                if lower is None:
                    continue
                out.append(
                    (v, (upper.fault, lower.fault), (upper.path, lower.path))
                )
        for e in reversed(pi_edges):
            rep = singles[e]
            if rep is None:
                continue
            detour_edges = [
                normalize_edge(a, b) for a, b in rep.detour.directed_edges()
            ]
            for t in reversed(detour_edges):
                out.append((v, (rep.fault, t), None))
    return out


def new_edge_profile(structure: FTStructure) -> List[int]:
    """Sorted per-vertex ``|New(v)|`` counts (descending).

    Convenience accessor for the E7 benchmark; requires a structure
    built by :func:`build_cons2ftbfs`.
    """
    per_vertex = structure.stats.get("new_edges_per_vertex", {})
    return sorted(per_vertex.values(), reverse=True)
