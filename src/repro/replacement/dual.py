"""Dual-failure replacement paths — Steps (2) and (3) of ``Cons2FTBFS``.

Two fault configurations require genuinely new paths:

``(π, π)`` — both failures on ``π(s, v)`` (Step 2).  The algorithm first
tries the *composed* candidate built from the two single-failure detours
``D_i, D_j`` (when they intersect): ``π(s, x_i) ∘ D_i[x_i, w] ∘
D_j[w, y_j] ∘ π(y_j, v)`` with ``w`` the last vertex on ``D_j`` common to
``D_i``; if that is a genuine shortest path avoiding both faults it is
selected, otherwise the canonical ``SP(s, v, G \\ F, W)`` is.

``(π, D)`` — first failure ``e`` on ``π(s, v)``, second failure ``t`` on
the detour ``D`` of ``P_{s,v,{e}}`` (Step 3).  The selected path prefers
(a) the π-divergence point ``b`` closest to the source — located by a
feasibility binary search over ``G(u_k, v)`` restrictions (Eq. 3) — and,
when ``b`` coincides with the detour start ``x``, (b) the D-divergence
point ``c`` closest to ``x`` — located by a feasibility binary search
over ``G_D(w_ℓ)`` restrictions (Eq. 4).

Both searches exploit monotonicity of feasibility (masking less of the
path/detour only adds candidate paths); Lemma 3.1 guarantees a feasible
point always exists.  As a safety net for tie-breaking-engine corner
cases, each structured candidate is validated (simple, avoids the
faults, optimal length) and the canonical shortest path is used as a
fallback; the ``fallback`` flag records when that happened so tests and
benchmarks can confirm it stays rare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Set, Tuple

from repro.core.canonical import INF
from repro.core.errors import ConstructionError, PathError
from repro.core.graph import Edge, normalize_edge
from repro.core.paths import Path
from repro.replacement.base import SourceContext
from repro.replacement.single import SingleReplacement


@dataclass(frozen=True)
class DualReplacement:
    """A selected dual-failure replacement path ``P_{s,v,F}``.

    Attributes
    ----------
    first_fault:
        ``F1(P)``: the failure on ``π(s, v)`` (the upper one for (π,π)).
    second_fault:
        ``F2(P)``: the second failure (on ``π`` or on the detour).
    path:
        The selected shortest path in ``G \\ F``.
    kind:
        ``"pipi"`` or ``"pid"``.
    pi_divergence:
        ``b(P)``: the first divergence point from ``π(s, v)``
        (``None`` when the path equals ``π``, which cannot happen here).
    detour_divergence:
        ``c(P)``: the first divergence point from ``D(P)`` when the path
        intersects its detour's edges; ``None`` otherwise or for (π,π).
    composed:
        (π,π) only — whether the detour-composed candidate was used.
    fallback:
        True when the structured construction failed validation and the
        plain canonical shortest path was substituted.
    """

    first_fault: Edge
    second_fault: Edge
    path: Path
    kind: str
    pi_divergence: Optional[int]
    detour_divergence: Optional[int]
    composed: bool = False
    fallback: bool = False

    @property
    def faults(self) -> Tuple[Edge, Edge]:
        """The protected pair ``F``."""
        return (self.first_fault, self.second_fault)


def _is_valid_candidate(
    path: Path, source: int, v: int, faults: Iterable[Edge], target_len: float
) -> bool:
    if path.source != source or path.target != v or len(path) != target_len:
        return False
    return not any(path.has_edge(*f) for f in faults)


# ----------------------------------------------------------------------
# Step 2: both failures on π(s, v)
# ----------------------------------------------------------------------
def pipi_replacement(
    ctx: SourceContext,
    v: int,
    upper: SingleReplacement,
    lower: SingleReplacement,
    target: Optional[float] = None,
) -> Optional[DualReplacement]:
    """``P_{s,v,{e_i,e_j}}`` for two π-failures (Step 2).

    ``upper``/``lower`` are the single-failure records of the two
    failing edges, ``upper.fault`` being closer to the source.  Returns
    ``None`` when the pair disconnects ``v``.

    ``target`` may carry the precomputed ``dist(s, v, G \\ F)`` — the
    plan-then-execute builders answer these feasibility filters in one
    batched execution (:mod:`repro.core.query_batch`) and pass the
    values down; when omitted the scalar point query runs here.
    """
    e_i, e_j = upper.fault, lower.fault
    faults = (e_i, e_j)
    if target is None:
        target = ctx.distance(v, banned_edges=faults)
    if target == INF:
        return None
    pi_path = ctx.pi(v)

    composed = _compose_from_detours(ctx, v, upper, lower, pi_path)
    if composed is not None and _is_valid_candidate(
        composed, ctx.source, v, faults, target
    ):
        path = composed
        used_composition = True
    else:
        path = ctx.canonical_path(v, banned_edges=faults)
        used_composition = False
    b = path.divergence_point(pi_path)
    return DualReplacement(
        first_fault=e_i,
        second_fault=e_j,
        path=path,
        kind="pipi",
        pi_divergence=b,
        detour_divergence=None,
        composed=used_composition,
    )


def _compose_from_detours(
    ctx: SourceContext,
    v: int,
    upper: SingleReplacement,
    lower: SingleReplacement,
    pi_path: Path,
) -> Optional[Path]:
    """The Step-2 composed candidate, or ``None`` when it cannot be built.

    The four pieces are sliced straight into one vertex tuple: ``x_i``
    heads ``D_i`` and ``y_j`` ends ``D_j``, so every junction matches
    and ``D_i[x_i, w]`` / ``D_j[w, y_j]`` run forward along the detours.
    """
    d_i, d_j = upper.detour, lower.detour
    # w: the last point on D_j that is common to D_i.
    w = d_j.last_common_vertex(d_i)
    if w is None:
        return None
    pi_vs = pi_path.vertices
    try:
        return Path(
            pi_vs[: pi_path.position(upper.x) + 1]
            + d_i.vertices[1 : d_i.position(w) + 1]
            + d_j.vertices[d_j.position(w) + 1 :]
            + pi_vs[pi_path.position(lower.y) + 1 :]
        )
    except PathError:
        # The composition revisits a vertex; the caller falls back to
        # the canonical shortest path, as the algorithm prescribes.
        return None


# ----------------------------------------------------------------------
# Step 3: first failure on π(s, v), second on its detour
# ----------------------------------------------------------------------
def earliest_pi_divergence(
    ctx: SourceContext,
    v: int,
    faults: Tuple[Edge, Edge],
    upper_index: int,
    *,
    linear: bool = False,
) -> Optional[int]:
    """Minimal ``k`` with ``dist(s, v, G(u_k, v) \\ F) = dist(s, v, G \\ F)``.

    ``upper_index`` is the π-index of ``u_i`` for the first fault
    ``e = (u_i, u_{i+1})``; the divergence point must occur at or above
    it.  Returns ``None`` when ``F`` disconnects ``v``.
    """
    pi_path = ctx.pi(v)
    target = ctx.distance(v, banned_edges=faults)
    if target == INF:
        return None

    def feasible(k: int) -> bool:
        banned_v = ctx.pi_segment_interior_ban(pi_path, pi_path[k], v)
        return ctx.distance(v, banned_edges=faults, banned_vertices=banned_v) == target

    if linear:
        for k in range(upper_index + 1):
            if feasible(k):
                return k
        return None

    if not feasible(upper_index):
        # No shortest path diverges at-or-above the fault while avoiding
        # the rest of π — the replacement must reuse lower π vertices.
        # Per Claim 3.5 this cannot happen for genuinely new-ending
        # paths; callers treat it as "satisfied elsewhere".
        return None
    lo, hi = 0, upper_index
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def earliest_detour_divergence(
    ctx: SourceContext,
    v: int,
    faults: Tuple[Edge, Edge],
    detour: Path,
    second_fault: Edge,
    target: float,
    pi_interior_ban: Set[int],
    *,
    linear: bool = False,
) -> Optional[int]:
    """Minimal ``ℓ`` with ``dist(s, v, G_D(w_ℓ) \\ F) = dist(s, v, G \\ F)``.

    ``w_ℓ`` ranges over detour positions from ``x`` up to the upper
    endpoint of the second fault ``t = (w_j, w_{j+1})``.  Returns the
    feasible index, or ``None`` if none exists (path satisfied without a
    detour-following prefix).
    """
    t0, t1 = second_fault
    j = min(detour.position(t0), detour.position(t1))

    def feasible(ell: int) -> bool:
        banned_v = set(pi_interior_ban)
        banned_v.update(detour.vertices[ell:])
        banned_v.discard(detour[ell])
        banned_v.discard(detour.target)  # y may equal the target v
        banned_v.discard(ctx.pi(v).target)
        return ctx.distance(v, banned_edges=faults, banned_vertices=banned_v) == target

    if linear:
        for ell in range(j + 1):
            if feasible(ell):
                return ell
        return None

    if not feasible(j):
        return None
    lo, hi = 0, j
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def pid_replacement(
    ctx: SourceContext,
    v: int,
    single: SingleReplacement,
    second_fault: Sequence[int],
    *,
    target: Optional[float] = None,
) -> Optional[DualReplacement]:
    """``P_{s,v,{e,t}}`` for ``e ∈ π(s, v)``, ``t ∈ D(e)`` (Step 3 selection).

    Implements the full preference cascade of the paper: earliest
    π-divergence ``b``; if ``b = x(D)``, earliest D-divergence ``c``.
    Returns ``None`` when the pair disconnects ``v``.  ``target``
    optionally carries the batched-precomputed ``dist(s, v, G \\ F)``
    (see :func:`pipi_replacement`).
    """
    e = single.fault
    t = normalize_edge(second_fault[0], second_fault[1])
    if not single.detour.has_edge(*t):
        raise ConstructionError(f"second fault {t} is not on the detour of {e}")
    faults = (e, t)
    if target is None:
        target = ctx.distance(v, banned_edges=faults)
    if target == INF:
        return None
    pi_path = ctx.pi(v)
    upper_index = min(pi_path.position(e[0]), pi_path.position(e[1]))

    k = earliest_pi_divergence(ctx, v, faults, upper_index)
    if k is None:
        # Every shortest path re-uses π below the fault; fall back to
        # the unconstrained canonical choice.
        path = ctx.canonical_path(v, banned_edges=faults)
        return _finish_pid(ctx, v, faults, path, single, fallback=True)

    b = pi_path[k]
    pi_ban = ctx.pi_segment_interior_ban(pi_path, b, v)
    if b != single.x:
        path = ctx.canonical_path(v, banned_edges=faults, banned_vertices=pi_ban)
        if path.divergence_point(pi_path) != b or not _is_valid_candidate(
            path, ctx.source, v, faults, target
        ):
            path = ctx.canonical_path(v, banned_edges=faults)
            return _finish_pid(ctx, v, faults, path, single, fallback=True)
        return _finish_pid(ctx, v, faults, path, single)

    # b == x: additionally push the divergence from the detour as close
    # to x as possible (Eq. 4 restriction).
    detour = single.detour
    ell = earliest_detour_divergence(ctx, v, faults, detour, t, target, pi_ban)
    if ell is None:
        path = ctx.canonical_path(v, banned_edges=faults, banned_vertices=pi_ban)
        return _finish_pid(ctx, v, faults, path, single, fallback=True)
    w_ell = detour[ell]
    banned_v = set(pi_ban)
    banned_v.update(detour.vertices[ell:])
    banned_v.discard(w_ell)
    banned_v.discard(v)
    structured = _structured_pid_path(
        ctx, v, faults, pi_path, detour, ell, banned_v
    )
    if structured is not None and _is_valid_candidate(
        structured, ctx.source, v, faults, target
    ):
        return _finish_pid(ctx, v, faults, structured, single)
    # Safety net: the canonical path under the G_D(w_ℓ) restriction is a
    # genuine shortest path by the feasibility check.
    path = ctx.canonical_path(v, banned_edges=faults, banned_vertices=banned_v)
    return _finish_pid(ctx, v, faults, path, single, fallback=True)


def _structured_pid_path(
    ctx: SourceContext,
    v: int,
    faults: Tuple[Edge, Edge],
    pi_path: Path,
    detour: Path,
    ell: int,
    banned_v: Set[int],
) -> Optional[Path]:
    """``π(s, x) ∘ D[x, w_ℓ] ∘ SP(w_ℓ, v, G_D(w_ℓ) \\ F, W)``.

    The tail additionally bans the already-used prefix vertices so the
    concatenation is guaranteed simple; validation happens in the
    caller.  ``x`` heads the detour and the tail starts at ``w_ℓ``, so
    the three pieces are sliced into one vertex tuple.
    """
    w_ell = detour[ell]
    prefix = pi_path.vertices[: pi_path.position(detour.source) + 1]
    along = detour.vertices[1 : ell + 1]  # D(x, w_ℓ]
    tail_ban = set(banned_v)
    tail_ban.update(prefix)
    tail_ban.update(along)
    tail_ban.discard(w_ell)
    tail_ban.discard(v)
    try:
        tail = ctx.engine.canonical_path(
            w_ell, v, banned_edges=faults, banned_vertices=tail_ban
        )
    except Exception:
        return None
    try:
        return Path(prefix + along + tail.vertices[1:])
    except PathError:
        return None


def _finish_pid(
    ctx: SourceContext,
    v: int,
    faults: Tuple[Edge, Edge],
    path: Path,
    single: SingleReplacement,
    fallback: bool = False,
) -> DualReplacement:
    pi_path = ctx.pi(v)
    b = path.divergence_point(pi_path)
    c = None
    detour_edges = single.detour.edge_set()
    if path.edge_set() & detour_edges:
        c = path.divergence_point(single.detour)
    return DualReplacement(
        first_fault=single.fault,
        second_fault=faults[1],
        path=path,
        kind="pid",
        pi_divergence=b,
        detour_divergence=c,
        fallback=fallback,
    )


def plain_dual_replacement(
    ctx: SourceContext, v: int, faults: Sequence[Sequence[int]]
) -> Optional[Path]:
    """The canonical ``SP(s, v, G \\ F, W)`` with no selection preferences.

    Used by the un-tuned exact builder and ablations.  Returns ``None``
    when the pair disconnects ``v``.
    """
    fs = tuple(normalize_edge(f[0], f[1]) for f in faults)
    if ctx.distance(v, banned_edges=fs) == INF:
        return None
    return ctx.canonical_path(v, banned_edges=fs)
