"""Single-failure replacement paths — Step (1) of Algorithm ``Cons2FTBFS``.

For a target ``v`` and a failing edge ``e_i = (u_i, u_{i+1}) ∈ π(s, v)``,
the paper selects the replacement path ``P_{s,v,{e_i}}`` that diverges
from ``π(s, v)`` **as close to the source as possible**: it finds the
minimal index ``k`` with

    ``dist(s, v, G(u_k, u_i) \\ {e_i}) = dist(s, v, G \\ {e_i})``

(where ``G(u_k, u_l)`` masks the interior of the π-segment, Eq. 3) and
takes the canonical shortest path in that restriction.  Claim 3.4 then
guarantees the decomposition

    ``P_{s,v,{e_i}} = π(s, x_i) ∘ D_i ∘ π(y_i, v)``

with a detour segment ``D_i`` that meets ``π(s, v)`` exactly at its
endpoints ``x_i = u_k`` and ``y_i``.

This module computes those paths and their decompositions.  Feasibility
in ``k`` is monotone (masking a shorter prefix only removes paths), so
the minimal ``k`` is located by binary search; a linear-scan reference
(``earliest_divergence_index(..., linear=True)``) is retained for tests.

The one binary search, :func:`_batched_divergence_indices`, runs the
searches of many ``(target, π-edge)`` pairs in *lockstep waves*: each
round collects the current probe of every still-active search and
resolves them through one
:class:`~repro.core.query_batch.PointQueryBatch` execution.
:func:`single_replacements_by_target` hands it every pair of every
target, so a whole build's step 1 costs about ``log2(depth of T0)``
executions: under the C kernel each is one multi-pair call, and on the
python tier the probes of one wave that share a fault and a masked
segment (every target below the fault, at the same ``k``) share one ban
stamping.  :func:`all_single_replacements` is its one-target call, and
:func:`earliest_divergence_index` runs the waves on one pair.  Each
search probes the same sequence of ``k`` however many searches share
its waves, so the selected divergence indices (and hence the
replacement paths) do not depend on the batching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.canonical import INF, UNREACHED
from repro.core.errors import ConstructionError
from repro.core.graph import Edge, normalize_edge
from repro.core.paths import Path
from repro.replacement.base import SourceContext


@dataclass(frozen=True)
class SingleReplacement:
    """A selected single-failure replacement path and its decomposition.

    Attributes
    ----------
    fault:
        The protected edge ``e_i`` (normalized), lying on ``π(s, v)``.
    path:
        ``P_{s,v,{e_i}}`` — the selected replacement path.
    divergence:
        ``x_i``: the unique divergence point from ``π(s, v)`` (equals
        ``b(P)`` and the first vertex of the detour).
    reattach:
        ``y_i``: the first vertex after ``x_i`` shared with ``π(s, v)``
        (the last vertex of the detour; may equal the target ``v``).
    detour:
        ``D_i = P[x_i, y_i]`` including both endpoints.
    """

    fault: Edge
    path: Path
    divergence: int
    reattach: int
    detour: Path

    @property
    def x(self) -> int:
        """Alias for :attr:`divergence` (``x(D_i)`` in the paper)."""
        return self.divergence

    @property
    def y(self) -> int:
        """Alias for :attr:`reattach` (``y(D_i)`` in the paper)."""
        return self.reattach


def decompose_replacement(pi_path: Path, path: Path, fault: Edge) -> SingleReplacement:
    """Split a replacement path into prefix ∘ detour ∘ suffix (Claim 3.4).

    ``x`` is the first divergence point from ``π``, ``y`` the first
    vertex of the path after ``x`` that lies on ``π`` (possibly the
    target).  Raises :class:`ConstructionError` if the path does not
    have the claimed three-segment shape — which, per Claim 3.4, cannot
    happen for paths selected with the earliest-divergence rule.
    """
    pi_vertices = set(pi_path.vertices)
    verts = path.vertices
    x_index = None
    for i in range(len(verts) - 1):
        if verts[i] in pi_vertices and verts[i + 1] not in pi_vertices:
            x_index = i
            break
    if x_index is None:
        raise ConstructionError(
            f"replacement path {path!r} never diverges from π (fault {fault})"
        )
    y_index = None
    for j in range(x_index + 1, len(verts)):
        if verts[j] in pi_vertices:
            y_index = j
            break
    if y_index is None:
        raise ConstructionError(f"replacement path {path!r} never rejoins π")
    x = verts[x_index]
    y = verts[y_index]
    # Sanity: prefix must coincide with π(s, x) and the suffix with
    # π(y, v); the detour interior must avoid π entirely.
    pi_vs = pi_path.vertices
    if verts[: x_index + 1] != pi_vs[: pi_path.position(x) + 1]:
        raise ConstructionError(
            f"prefix of {path!r} deviates from π before its divergence point"
        )
    if verts[y_index:] != pi_vs[pi_path.position(y) :]:
        raise ConstructionError(
            f"suffix of {path!r} deviates from π after reattaching at {y}"
        )
    detour = Path(verts[x_index : y_index + 1])
    return SingleReplacement(
        fault=fault, path=path, divergence=x, reattach=y, detour=detour
    )


def earliest_divergence_index(
    ctx: SourceContext,
    v: int,
    fault: Edge,
    *,
    linear: bool = False,
) -> Optional[int]:
    """Minimal ``k`` such that ``G(u_k, u_i) \\ {e_i}`` stays optimal.

    ``fault = (u_i, u_{i+1})`` must lie on ``π(s, v)``.  Returns ``None``
    when ``v`` is disconnected by the failure.  The binary search is
    :func:`_batched_divergence_indices` on this one pair;
    ``linear=True`` runs the O(depth) reference scan instead.
    """
    e = normalize_edge(fault[0], fault[1])
    if not linear:
        return _batched_divergence_indices(ctx, ((v, e),))[v, e]
    pi_path = ctx.pi(v)
    upper = min(pi_path.position(e[0]), pi_path.position(e[1]))
    target_dist = ctx.fault_distance(v, e)
    if target_dist == INF:
        return None
    for k in range(upper + 1):
        banned_v = ctx.pi_segment_interior_ban(pi_path, pi_path[k], pi_path[upper])
        if ctx.distance(v, banned_edges=(e,), banned_vertices=banned_v) == target_dist:
            return k
    raise ConstructionError("no feasible divergence index (k = i must work)")


def _selected_replacement(
    ctx: SourceContext, v: int, pi_path: Path, e: Edge, k: int
) -> SingleReplacement:
    """Extract + decompose ``P_{s,v,{e}}`` for a known divergence index."""
    upper = min(pi_path.position(e[0]), pi_path.position(e[1]))
    banned_v = ctx.pi_segment_interior_ban(pi_path, pi_path[k], pi_path[upper])
    path = ctx.canonical_path(v, banned_edges=(e,), banned_vertices=banned_v)
    return decompose_replacement(pi_path, path, e)


def single_replacement(
    ctx: SourceContext, v: int, fault: Sequence[int]
) -> Optional[SingleReplacement]:
    """Compute the selected ``P_{s,v,{e_i}}`` with its decomposition.

    Returns ``None`` when the failure disconnects ``v`` from ``s``.
    """
    e = normalize_edge(fault[0], fault[1])
    pi_path = ctx.pi(v)
    if not pi_path.has_edge(*e):
        raise ConstructionError(f"fault {e} is not on π(s, {v})")
    k = earliest_divergence_index(ctx, v, e)
    if k is None:
        return None
    return _selected_replacement(ctx, v, pi_path, e, k)


def _batched_divergence_indices(
    ctx: SourceContext, pairs: Iterable[Tuple[int, Edge]]
) -> Dict[Tuple[int, Edge], Optional[int]]:
    """Minimal divergence index per ``(target, π-edge)`` pair, in lockstep.

    The binary search of step 1: one search per pair ``(v, e)``, ``e``
    a normalized edge of ``π(s, v)``.  Each wave gathers the pending
    probe of every still-active search and resolves them in one batched
    execution, so the wave count is that of the longest search, not
    the number of pairs.  Entries are ``None`` for bridge faults that
    disconnect ``v``.
    """
    out: Dict[Tuple[int, Edge], Optional[int]] = {}
    # Per active search: [v, π(s, v), fault, upper, target hops, lo, hi].
    states: List[list] = []
    for v, e in pairs:
        # One full BFS per fault serves every affected target (cached
        # on the context); raw hops, -1 = disconnected.
        target = ctx.fault_distances(e)[v]
        if target == UNREACHED:
            out[v, e] = None
            continue
        pi_path = ctx.pi(v)
        # e = (u_i, u_{i+1}): k = i always works, since G(u_i, u_i) = G.
        upper = min(pi_path.position(e[0]), pi_path.position(e[1]))
        states.append([v, pi_path, e, upper, target, 0, upper])
    batch = ctx.query_batch()
    source = ctx.source
    active = [st for st in states if st[5] < st[6]]
    while active:
        for v, pi_path, e, upper, _target, lo, hi in active:
            banned_v = ctx.pi_segment_interior_ban(
                pi_path, pi_path[(lo + hi) // 2], pi_path[upper]
            )
            batch.add(source, v, (e,), banned_v)
        # The wave's probes are slots 0, 1, ... of this execution, in
        # the order of `active`.
        for st, hops in zip(active, batch.execute()):
            if hops == st[4]:  # feasible: tighten from above
                st[6] = (st[5] + st[6]) // 2
            else:
                st[5] = (st[5] + st[6]) // 2 + 1
        active = [st for st in active if st[5] < st[6]]
    for v, _pi, e, _upper, _target, lo, _hi in states:
        out[v, e] = lo
    return out


def single_replacements_by_target(
    ctx: SourceContext, targets: Sequence[int]
) -> Dict[int, Dict[Edge, Optional[SingleReplacement]]]:
    """:func:`all_single_replacements` for every target at once.

    Maps each target ``v`` to its ``{e_i: P_{s,v,{e_i}}}`` dict (keys in
    π order, ``None`` for bridges).  The binary searches of all targets
    run in one set of lockstep waves (see module docstring), so a whole
    build's step 1 costs about ``log2(depth of T0)`` planner executions.
    """
    out: Dict[int, Dict[Edge, Optional[SingleReplacement]]] = {}
    indices = _batched_divergence_indices(
        ctx, [(v, e) for v in targets for e in _pi_edges(ctx.pi(v))]
    )
    for v in targets:
        pi_path = ctx.pi(v)
        singles: Dict[Edge, Optional[SingleReplacement]] = {}
        for e in _pi_edges(pi_path):
            k = indices[v, e]
            singles[e] = (
                None if k is None else _selected_replacement(ctx, v, pi_path, e, k)
            )
        out[v] = singles
    return out


def all_single_replacements(
    ctx: SourceContext, v: int
) -> Dict[Edge, Optional[SingleReplacement]]:
    """``P_{s,v,{e_i}}`` for every ``e_i ∈ π(s, v)``, keyed by edge.

    Entries are ``None`` for bridge edges whose removal disconnects
    ``v``.  Keys iterate in π order (top to bottom).  The one-target
    call of :func:`single_replacements_by_target`: the per-fault
    divergence binary searches run in batched lockstep waves.
    """
    return single_replacements_by_target(ctx, (v,))[v]


def _pi_edges(pi_path: Path) -> List[Edge]:
    """The normalized edges of ``π(s, v)``, top to bottom."""
    return [normalize_edge(u, w) for u, w in pi_path.directed_edges()]


def plain_replacement_path(
    ctx: SourceContext, v: int, fault: Sequence[int]
) -> Optional[Path]:
    """The canonical ``SP(s, v, G \\ {e}, W)`` with no divergence preference.

    Used by ablation baselines; returns ``None`` if disconnected.
    """
    e = normalize_edge(fault[0], fault[1])
    if ctx.fault_distance(v, e) == INF:
        return None
    return ctx.canonical_path(v, banned_edges=(e,))
