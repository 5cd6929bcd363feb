"""Tests for dual-failure replacement path selection (Steps 2 & 3)."""

from collections import Counter

import pytest

from repro.core.canonical import INF
from repro.core.errors import ConstructionError, PathError
from repro.core.graph import normalize_edge
from repro.core.paths import Path
from repro.ftbfs.cons2ftbfs import _fault_pairs
from repro.replacement import dual
from repro.replacement.base import SourceContext
from repro.replacement.dual import (
    earliest_detour_divergence,
    earliest_pi_divergence,
    pid_replacement,
    pipi_replacement,
    plain_dual_replacement,
)
from repro.replacement.single import (
    SingleReplacement,
    all_single_replacements,
    single_replacements_by_target,
)

from tests.zoo import CONS2_SHAPES, zoo_params


def iter_pipi_cases(ctx, v):
    pi_path = ctx.pi(v)
    pi_edges = [normalize_edge(a, b) for a, b in pi_path.directed_edges()]
    singles = all_single_replacements(ctx, v)
    for i in range(len(pi_edges)):
        if singles[pi_edges[i]] is None:
            continue
        for j in range(i + 1, len(pi_edges)):
            if singles[pi_edges[j]] is None:
                continue
            yield singles[pi_edges[i]], singles[pi_edges[j]]


def iter_pid_cases(ctx, v):
    singles = all_single_replacements(ctx, v)
    for rep in singles.values():
        if rep is None:
            continue
        for a, b in rep.detour.directed_edges():
            yield rep, normalize_edge(a, b)


@zoo_params()
def test_pipi_paths_are_optimal(name, graph):
    ctx = SourceContext(graph, 0)
    for v in ctx.tree.vertices():
        if v == 0:
            continue
        for upper, lower in iter_pipi_cases(ctx, v):
            rec = pipi_replacement(ctx, v, upper, lower)
            faults = (upper.fault, lower.fault)
            true = ctx.distance(v, banned_edges=faults)
            if rec is None:
                assert true == INF
                continue
            assert len(rec.path) == true
            assert not (set(faults) & rec.path.edge_set())
            assert rec.kind == "pipi"


@zoo_params()
def test_pid_paths_are_optimal(name, graph):
    ctx = SourceContext(graph, 0)
    for v in ctx.tree.vertices():
        if v == 0:
            continue
        for rep, t in iter_pid_cases(ctx, v):
            rec = pid_replacement(ctx, v, rep, t)
            faults = (rep.fault, t)
            true = ctx.distance(v, banned_edges=faults)
            if rec is None:
                assert true == INF
                continue
            assert len(rec.path) == true
            assert not (set(faults) & rec.path.edge_set())
            assert rec.kind == "pid"


@zoo_params()
def test_no_fallbacks_for_new_ending_pairs(name, graph):
    """Lemma 3.1's guarantee: the structured selection always succeeds
    for pairs that are *new-ending* with respect to the algorithm's
    state (pairs already satisfied by ``G_{τ-1}(v)`` may legitimately
    lack a ``G_D(w_ℓ)``-shaped shortest path and fall back — the
    algorithm never asks for them)."""
    from repro.ftbfs.cons2ftbfs import build_cons2ftbfs

    h = build_cons2ftbfs(graph, 0)
    assert h.stats["fallbacks"] == 0


@zoo_params()
def test_pid_fallback_paths_still_optimal(name, graph):
    """Even direct calls on non-new-ending pairs return optimal paths."""
    ctx = SourceContext(graph, 0)
    for v in ctx.tree.vertices():
        if v == 0:
            continue
        for rep, t in iter_pid_cases(ctx, v):
            rec = pid_replacement(ctx, v, rep, t)
            if rec is not None and rec.fallback:
                true = ctx.distance(v, banned_edges=(rep.fault, t))
                assert len(rec.path) == true


def test_pid_divergence_preferences(medium_er):
    """b(P) is the highest feasible divergence; Claim 3.15(1)."""
    ctx = SourceContext(medium_er, 0)
    checked = 0
    for v in list(ctx.tree.vertices())[1:12]:
        pi_path = ctx.pi(v)
        for rep, t in iter_pid_cases(ctx, v):
            rec = pid_replacement(ctx, v, rep, t)
            if rec is None or rec.fallback:
                continue
            b = rec.pi_divergence
            assert b is not None
            upper_index = min(
                pi_path.position(rep.fault[0]), pi_path.position(rep.fault[1])
            )
            k = earliest_pi_divergence(
                ctx, v, (rep.fault, t), upper_index
            )
            if k is not None:
                assert pi_path.position(b) <= k or pi_path.position(b) == k
                checked += 1
    assert checked > 0


def test_pid_linear_matches_binary(medium_er):
    ctx = SourceContext(medium_er, 0)
    import itertools

    cases = 0
    for v in list(ctx.tree.vertices())[1:8]:
        pi_path = ctx.pi(v)
        for rep, t in itertools.islice(iter_pid_cases(ctx, v), 6):
            faults = (rep.fault, t)
            upper_index = min(
                pi_path.position(rep.fault[0]), pi_path.position(rep.fault[1])
            )
            fast = earliest_pi_divergence(ctx, v, faults, upper_index)
            slow = earliest_pi_divergence(
                ctx, v, faults, upper_index, linear=True
            )
            assert fast == slow
            cases += 1
    assert cases > 0


def test_detour_divergence_linear_matches_binary(medium_er):
    ctx = SourceContext(medium_er, 0)
    cases = 0
    for v in list(ctx.tree.vertices())[1:10]:
        pi_path = ctx.pi(v)
        for rep, t in iter_pid_cases(ctx, v):
            faults = (rep.fault, t)
            target = ctx.distance(v, banned_edges=faults)
            if target == INF:
                continue
            pi_ban = ctx.pi_segment_interior_ban(pi_path, rep.x, v)
            fast = earliest_detour_divergence(
                ctx, v, faults, rep.detour, t, target, pi_ban
            )
            slow = earliest_detour_divergence(
                ctx, v, faults, rep.detour, t, target, pi_ban, linear=True
            )
            assert fast == slow
            cases += 1
    assert cases > 0


def test_pid_second_fault_off_detour_rejected(small_er):
    ctx = SourceContext(small_er, 0)
    for v in list(ctx.tree.vertices())[1:]:
        singles = all_single_replacements(ctx, v)
        reps = [r for r in singles.values() if r is not None]
        if not reps:
            continue
        rep = reps[0]
        off = next(
            e
            for e in sorted(small_er.edges())
            if not rep.detour.has_edge(*e)
        )
        with pytest.raises(ConstructionError):
            pid_replacement(ctx, v, rep, off)
        return
    pytest.skip("no usable target")


def test_plain_dual_replacement(small_er):
    ctx = SourceContext(small_er, 0)
    edges = sorted(small_er.edges())
    p = plain_dual_replacement(ctx, 5, (edges[0], edges[1]))
    true = ctx.distance(5, banned_edges=edges[:2])
    if p is None:
        assert true == INF
    else:
        assert len(p) == true


def test_pipi_composed_flag_consistency(chordal_tree):
    """When the composed candidate is used it must be optimal (re-check)."""
    ctx = SourceContext(chordal_tree, 0)
    composed_seen = 0
    for v in list(ctx.tree.vertices())[1:]:
        for upper, lower in iter_pipi_cases(ctx, v):
            rec = pipi_replacement(ctx, v, upper, lower)
            if rec is None:
                continue
            if rec.composed:
                composed_seen += 1
                true = ctx.distance(v, banned_edges=rec.faults)
                assert len(rec.path) == true
    # The fixture's chords make composed candidates win, so the check
    # above actually ran.
    assert composed_seen > 0


# ----------------------------------------------------------------------
# The one-tuple compositions against the path algebra they replace
# ----------------------------------------------------------------------
def composed_by_algebra(pi_path, upper, lower):
    """Step 2's candidate ``π(s, x_i) ∘ D_i[x_i, w] ∘ D_j[w, y_j] ∘
    π(y_j, v)`` built with :class:`Path` operations; ``None`` without a
    common detour vertex or where the chain raises ``PathError``."""
    d_i, d_j = upper.detour, lower.detour
    common = d_j.common_vertices(d_i)
    if not common:
        return None
    w = next(u for u in reversed(d_j.vertices) if u in common)
    try:
        return (
            pi_path.prefix(upper.x)
            .concat(d_i.subpath(upper.x, w))
            .concat(d_j.subpath(w, lower.y))
            .concat(pi_path.suffix(lower.y))
        )
    except PathError:
        return None


def structured_by_algebra(ctx, v, faults, pi_path, detour, ell, banned_v):
    """Step 3's ``π(s, x) ∘ D[x, w_ℓ] ∘ SP(w_ℓ, v, ...)`` built with
    :class:`Path` operations, banning the same tail vertices."""
    x = detour.source
    w_ell = detour[ell]
    prefix = pi_path.prefix(x)
    along = Path(detour.vertices[: ell + 1])
    used = set(prefix.vertices) | set(along.vertices)
    used.discard(w_ell)
    tail_ban = set(banned_v) | used
    tail_ban.discard(w_ell)
    tail_ban.discard(v)
    try:
        tail = ctx.engine.canonical_path(
            w_ell, v, banned_edges=faults, banned_vertices=tail_ban
        )
    except Exception:
        return None
    try:
        if ell == 0:
            return prefix.concat(tail)
        return prefix.concat(along).concat(tail)
    except PathError:
        return None


@pytest.mark.parametrize("shape", list(CONS2_SHAPES))
def test_compose_from_detours_matches_path_algebra(shape):
    """For every step-2 pair, the sliced candidate equals the
    ``prefix ∘ subpath ∘ subpath ∘ suffix`` chain, and is ``None``
    exactly where that chain raises."""
    ctx = SourceContext(CONS2_SHAPES[shape](), 0)
    targets = [v for v in ctx.tree.vertices() if v != 0]
    singles = single_replacements_by_target(ctx, targets)
    outcomes = Counter()
    for v in targets:
        pi_path = ctx.pi(v)
        for upper, lower in _fault_pairs(singles[v])[0]:
            got = dual._compose_from_detours(ctx, v, upper, lower, pi_path)
            want = composed_by_algebra(pi_path, upper, lower)
            assert got == want, (v, upper.fault, lower.fault)
            outcomes["none" if got is None else "composed"] += 1
    assert outcomes["composed"], outcomes


def test_compose_from_detours_none_where_algebra_raises():
    """A composition that revisits a vertex is ``None`` on both sides.
    Real detours never produce one (the zoo shapes above compose every
    pair with a common vertex), so two hand-made records do: ``D_j``
    ends back on the π prefix."""
    pi_path = Path([0, 1, 2, 3])
    upper = SingleReplacement(
        fault=(1, 2),
        path=Path([0, 1, 9, 3]),
        divergence=1,
        reattach=3,
        detour=Path([1, 9, 3]),
    )
    lower = SingleReplacement(
        fault=(2, 3),
        path=Path([2, 9, 0]),
        divergence=2,
        reattach=0,
        detour=Path([2, 9, 0]),
    )
    assert lower.detour.last_common_vertex(upper.detour) == 9
    with pytest.raises(PathError):
        pi_path.prefix(1).concat(Path([1, 9])).concat(Path([9, 0]))
    assert composed_by_algebra(pi_path, upper, lower) is None
    assert dual._compose_from_detours(None, 3, upper, lower, pi_path) is None


@pytest.mark.parametrize("shape", list(CONS2_SHAPES))
def test_structured_pid_path_matches_path_algebra(shape, monkeypatch):
    """On every step-3 pair whose selection reaches the structured
    candidate, the sliced path equals the ``prefix ∘ D[x, w_ℓ] ∘ tail``
    chain (``None`` exactly where it raises)."""
    ctx = SourceContext(CONS2_SHAPES[shape](), 0)
    sliced = dual._structured_pid_path
    calls = []

    def recorded(*args):
        out = sliced(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(dual, "_structured_pid_path", recorded)
    targets = [v for v in ctx.tree.vertices() if v != 0]
    singles = single_replacements_by_target(ctx, targets)
    for v in targets:
        for rep, t in _fault_pairs(singles[v])[1]:
            pid_replacement(ctx, v, rep, t)
    assert calls
    for args, out in calls:
        assert out == structured_by_algebra(*args), args[1:3]
    assert any(out is not None for _args, out in calls)
