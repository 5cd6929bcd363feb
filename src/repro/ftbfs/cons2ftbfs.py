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
collection, so the builder runs in four phases: *step 1* for every
target at once (:func:`~repro.replacement.single.single_replacements_by_target`:
the Eq. 3 binary searches of all targets advance in lockstep, one
planner execution per wave, about ``log2(depth of T0)`` of them),
*plan* (walk every step-2/3 fault pair in the paper's order,
:func:`_fault_pairs`, and register its feasibility probe with a
:class:`~repro.core.query_batch.PointQueryBatch`), *execute* (one
batched resolution — deduplicated, then one C multi-pair call under
the C kernel, or tree repair and the pooled loop grouped by fault set
on the python tier, where a pair of π-edges shared by every target
below it collapses whole subtrees of probes into one group), then
*finish* (the paper's sequential per-vertex selection logic, consuming
the precomputed distances).  A cold build under C thus makes a handful
of planner executions.  Every probe is exact, so the structure is the
one the paper's per-pair loop selects; ``--engine lex`` builds it on
the independent reference engine and oracle.

One check stays outside the plan phase: the ``d_restricted`` test of
step 3 asks whether ``dist(s, v, G')`` still equals the pair's target,
where ``G'`` bans every edge incident to ``v`` *not yet collected* —
and the collected set grows as step 3 itself appends new-ending last
edges, so the restriction depends on the loop's own progress.  Step 3
decides most pairs with no search at all, from T0 depths and the
tree's Euler intervals (:class:`_DepthRule`; the proof is in
:func:`_finish_vertex`), and issues a point query, in the paper's
order, only for the pairs that rule leaves open — about 1 in 10 on
``erdos_renyi(1000, 0.008)``, most of them on
``tree_plus_chords(1000, 300)``, where the shared snapshot-cache memo
answers 96% of them.  With the C kernel loaded each remaining query is
one C call (:meth:`repro.core.csr.CSRGraph.bidir_distance`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.canonical import INF, UNREACHED
from repro.core.graph import Edge, Graph, normalize_edge
from repro.core.paths import Path
from repro.ftbfs.structures import FTStructure, make_structure
from repro.replacement.base import SourceContext
from repro.replacement.dual import DualReplacement, pid_replacement, pipi_replacement
from repro.replacement.single import (
    SingleReplacement,
    all_single_replacements,
    single_replacements_by_target,
)


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
    # The depth rule is stated for hop distances; a weighted engine's
    # step 3 keeps its point query for every pair.
    rule = None if getattr(ctx.engine, "weighted", False) else _DepthRule(tree)
    t0_edges = set(tree.edges())
    edges: Set[Edge] = set(t0_edges)
    new_per_vertex: Dict[int, int] = {}
    phase_counts = {"single": 0, "pipi": 0, "pid": 0}
    records: List[VertexRecord] = []
    total_new_ending = 0
    total_satisfied = 0
    total_fallbacks = 0

    # Step 1 for every target at once (build-wide lockstep waves), then
    # plan every step-2/3 fault pair and resolve all their feasibility
    # distances in one batched execution; finish then replays the
    # paper's sequential selection against the precomputed answers.
    # See module docstring.
    targets = [v for v in tree.vertices() if v != source]
    singles = single_replacements_by_target(ctx, targets)
    batch = ctx.query_batch()
    plans = [_plan_vertex(ctx, v, singles[v], batch) for v in targets]
    hops = batch.execute()

    for plan in plans:
        record = _finish_vertex(ctx, plan, hops, keep_records, rule)
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


def _fault_pairs(
    singles: Dict[Edge, Optional[SingleReplacement]],
) -> Tuple[
    List[Tuple[SingleReplacement, SingleReplacement]],
    List[Tuple[SingleReplacement, Edge]],
]:
    """One target's step-2 and step-3 fault pairs, in the paper's order.

    ``singles`` is the target's step-1 dict (keys in π order).  Step 2
    pairs two π-edges, upper first, top to bottom; step 3 pairs a
    π-edge with an edge of its detour, deepest π-edge first and, per
    π-edge, deepest detour edge first.  A bridge (``None`` single)
    pairs with nothing: it disconnects the target on its own.
    """
    reps = [rep for rep in singles.values() if rep is not None]
    pipi = [
        (upper, lower) for i, upper in enumerate(reps) for lower in reps[i + 1 :]
    ]
    pid = [
        (rep, normalize_edge(a, b))
        for rep in reversed(reps)
        for a, b in reversed(rep.detour.directed_edges())
    ]
    return pipi, pid


@dataclass
class _VertexPlan:
    """One target's planned step-2/3 work, as planner slots.

    The fault pairs are :func:`_fault_pairs` of ``singles``, in its
    order; the plan holds plain ints only.  ``pipi`` has one entry per
    step-2 pair: the slot of its feasibility probe (``>= 0``) or, for a
    pair its step-1 certificate resolves, ``~length`` of the
    certificate (``< 0``).  Step 3's probes take the contiguous slots
    from ``pid_start`` on, one per pair.
    """

    vertex: int
    pi_path: Path
    singles: Dict[Edge, Optional[SingleReplacement]]
    pipi: List[int]
    pid_start: int


def _plan_vertex(
    ctx: SourceContext,
    v: int,
    singles: Dict[Edge, Optional[SingleReplacement]],
    batch,
) -> _VertexPlan:
    """The plan of every step-2/3 feasibility probe of ``v``, from its
    step-1 ``singles``, registered with ``batch``.

    The probes registered here are pure functions of ``(v, F)`` — they
    do not see the evolving edge collection — which is what makes them
    batchable across all targets.  A π-edge pair is shared by every
    target below its lower edge, so these probes collapse into large
    single-fault-set groups at execution time.
    """
    source = ctx.source
    add = batch.add
    pipi_pairs, pid_pairs = _fault_pairs(singles)
    pipi = []
    for upper, lower in pipi_pairs:
        if not upper.path.has_edge(*lower.fault):
            # Step-1 certificate: P_{s,v,{e_i}} survives in
            # G \ {e_i, e_j}, and by restriction monotonicity its
            # length *is* dist(s, v, G \ {e_i, e_j}) — the pair's
            # feasibility probe resolves with zero traversal.
            pipi.append(~len(upper.path))
        elif not lower.path.has_edge(*upper.fault):
            pipi.append(~len(lower.path))
        else:
            pipi.append(add(source, v, (upper.fault, lower.fault)))
    pid_start = len(batch)  # the slot the next add returns
    for rep, t in pid_pairs:
        add(source, v, (rep.fault, t))
    return _VertexPlan(
        vertex=v, pi_path=ctx.pi(v), singles=singles, pipi=pipi, pid_start=pid_start
    )


class _DepthRule:
    """Step 3's ``d_restricted == target`` test decided from T0 depths.

    Holds the tree index the test reads: Euler intervals, and the child
    endpoint of every tree edge a fault pair has named so far.  A
    collected edge ``(u, v)`` enters the test as the entry
    ``(edge, depth(u), tin(u))`` (:meth:`entry`); :meth:`decide` answers
    ``True``, ``False`` or ``None`` (the pair needs its point query).
    See :func:`_finish_vertex` for why the answers are exact.
    """

    __slots__ = ("tree", "tin", "tout", "_child")

    def __init__(self, tree) -> None:
        self.tree = tree
        self.tin, self.tout = tree.euler_intervals()
        self._child: Dict[Edge, int] = {}

    def entry(self, v: int, edge: Edge) -> Tuple[Edge, int, int]:
        """The test's view of collected edge ``edge`` at ``v``."""
        u = edge[0] if edge[1] == v else edge[1]
        return edge, self.tree.depth(u), self.tin[u]

    def child(self, e: Edge) -> int:
        """The child endpoint of ``e`` in T0, ``-1`` if ``e`` is no tree edge."""
        c = self._child.get(e)
        if c is None:
            a, b = e
            parent = self.tree.parent
            c = b if parent(b) == a else a if parent(a) == b else -1
            self._child[e] = c
        return c

    def decide(
        self,
        entries: List[Tuple[Edge, int, int]],
        faults: Tuple[Edge, Edge],
        target: int,
    ) -> Optional[bool]:
        """Does some collected edge ``(u, v)`` outside ``F`` have
        ``dist(s, u, G \\ F) = target - 1``?  ``None`` when T0 depths
        cannot tell."""
        f0, f1 = faults
        tin = self.tin
        tout = self.tout
        c = self.child(f0)
        lo0, hi0 = (tin[c], tout[c]) if c >= 0 else (0, 0)
        c = self.child(f1)
        lo1, hi1 = (tin[c], tout[c]) if c >= 0 else (0, 0)
        tm = target - 1
        undecided = False
        for edge, du, tu in entries:
            if du > tm or edge == f0 or edge == f1:
                continue
            if lo0 <= tu < hi0 or lo1 <= tu < hi1:
                undecided = True  # T0 path of u meets F: depth(u) is a lower bound
            elif du == tm:
                return True
        return None if undecided else False


def _finish_vertex(
    ctx: SourceContext,
    plan: _VertexPlan,
    hops: List[int],
    keep_records: bool,
    rule: Optional[_DepthRule],
) -> VertexRecord:
    """Steps 1-3 for one target: the paper's sequential selection logic,
    consuming the batched feasibility distances ``hops`` (the planner's
    answers, read by the slots in ``plan``).

    Step 3 asks, per pair ``F = (e, t)`` with finite
    ``target = dist(s, v, G \\ F)``, whether ``dist(s, v, G \\ B) ==
    target`` for ``B = F ∪ (E(v) \\ collected)``.  That holds iff some
    collected edge ``(u, v)`` not in ``F`` has ``dist(s, u, G \\ F) =
    target − 1``:

    * ``G \\ B ⊆ G \\ F``, so ``dist(s, v, G \\ B) ≥ target`` always.
    * If it equals ``target``, a shortest s–v path in ``G \\ B`` ends
      with an edge ``(u, v)`` outside ``B`` — collected, not in ``F``
      — and its prefix gives ``dist(s, u, G \\ F) ≤ target − 1``; the
      edge ``(u, v)`` gives ``≥`` (else ``v`` would be closer than
      ``target``).
    * Conversely a shortest s–u path in ``G \\ F`` of length
      ``target − 1`` cannot touch ``v`` (that would put ``v`` closer
      than ``target``), so it keeps clear of every edge of ``B`` and
      extends by ``(u, v)`` to a path of length ``target`` in
      ``G \\ B``.

    When u's T0 path avoids ``F``, ``dist(s, u, G \\ F) = depth(u)``:
    the path survives and nothing is shorter.  It meets ``F`` iff ``u``
    lies below the child endpoint of a tree edge in ``F`` (the
    *region*, an Euler-interval test); inside it ``depth(u)`` is only a
    lower bound.  So ``rule`` decides "yes" when a collected neighbour
    outside the region has ``depth(u) = target − 1``, and "no" when no
    such neighbour exists and no collected neighbour inside the region
    has ``depth(u) ≤ target − 1``.  The other pairs — and every pair
    when ``rule`` is ``None`` (weighted engines) — run the point query
    against the live collected set, in the prescribed pair order.
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
    pipi_pairs, pid_pairs = _fault_pairs(singles)
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
    for (upper, lower), code in zip(pipi_pairs, plan.pipi):
        d = hops[code] if code >= 0 else ~code  # a slot, or ~certificate length
        target = INF if d == UNREACHED else d
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
    entries = [rule.entry(v, e) for e in collected] if rule is not None else None
    for slot, (rep, t) in enumerate(pid_pairs, plan.pid_start):
        target = hops[slot]
        if target == UNREACHED:
            continue
        faults = (rep.fault, t)
        satisfied = rule.decide(entries, faults, target) if rule is not None else None
        if satisfied is None:
            restricted_ban = (all_incident - collected) | set(faults)
            satisfied = ctx.distance(v, banned_edges=restricted_ban) == target
        if satisfied:
            record.satisfied_pairs += 1
            continue
        dual = pid_replacement(ctx, v, rep, t, target=target)
        if dual is None:  # pragma: no cover - target was finite above
            continue
        le = dual.path.last_edge()
        if le not in collected:
            record.new_from_pid += 1
            collected.add(le)
            if rule is not None:
                entries.append(rule.entry(v, le))
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
    for v in ctx.tree.vertices():
        if v == ctx.source:
            continue
        pipi, pid = _fault_pairs(all_single_replacements(ctx, v))
        out.extend(
            (v, (upper.fault, lower.fault), (upper.path, lower.path))
            for upper, lower in pipi
        )
        out.extend((v, (rep.fault, t), None) for rep, t in pid)
    return out


def new_edge_profile(structure: FTStructure) -> List[int]:
    """Sorted per-vertex ``|New(v)|`` counts (descending).

    Convenience accessor for the E7 benchmark; requires a structure
    built by :func:`build_cons2ftbfs`.
    """
    per_vertex = structure.stats.get("new_edges_per_vertex", {})
    return sorted(per_vertex.values(), reverse=True)
