"""Tests for single-failure replacement paths (Step 1 / Claim 3.4)."""

import pytest

from repro.core.canonical import INF, LexShortestPaths
from repro.core.ckernel import c_kernel_available
from repro.core.errors import ConstructionError
from repro.core.graph import Graph
from repro.core.paths import Path
from repro.core.snapshot_cache import shared_cache
from repro.generators import erdos_renyi, path_graph, tree_plus_chords
from repro.replacement.base import SourceContext
from repro.replacement.single import (
    all_single_replacements,
    decompose_replacement,
    earliest_divergence_index,
    plain_replacement_path,
    single_replacement,
    single_replacements_by_target,
)

from tests.zoo import CONS2_SHAPES, graph_zoo, zoo_params


def contexts_and_targets(graph, limit=None):
    ctx = SourceContext(graph, 0)
    targets = [v for v in ctx.tree.vertices() if v != 0]
    return ctx, targets[:limit]


@zoo_params()
def test_replacement_paths_are_optimal(name, graph):
    """The selected path is a true shortest path in G \\ {e}."""
    ctx, targets = contexts_and_targets(graph)
    for v in targets:
        for e, rep in all_single_replacements(ctx, v).items():
            true = ctx.distance(v, banned_edges=(e,))
            if rep is None:
                assert true == INF
            else:
                assert len(rep.path) == true
                assert e not in rep.path.edge_set()


@zoo_params()
def test_decomposition_claim_3_4(name, graph):
    """P = π(s,x) ∘ D ∘ π(y,v) with the detour meeting π only at x, y."""
    ctx, targets = contexts_and_targets(graph)
    for v in targets:
        pi_path = ctx.pi(v)
        for e, rep in all_single_replacements(ctx, v).items():
            if rep is None:
                continue
            # Prefix and suffix lie on π.
            assert rep.path.prefix(rep.x) == pi_path.prefix(rep.x)
            assert rep.path.suffix(rep.y) == pi_path.suffix(rep.y)
            # Detour interior avoids π entirely.
            interior = set(rep.detour.vertices[1:-1])
            assert not (interior & set(pi_path.vertices))
            # The protected edge lies under the detour span.
            xi = pi_path.position(rep.x)
            yi = pi_path.position(rep.y)
            depth = pi_path.edge_position(e)
            assert xi < depth <= yi


@zoo_params()
def test_divergence_point_is_unique(name, graph):
    ctx, targets = contexts_and_targets(graph)
    for v in targets:
        pi_path = ctx.pi(v)
        for e, rep in all_single_replacements(ctx, v).items():
            if rep is None:
                continue
            assert rep.path.divergence_points(pi_path) == [rep.x]


@zoo_params()
def test_earliest_divergence_beats_plain(name, graph):
    """The preferred divergence point is never deeper than the plain one."""
    ctx, targets = contexts_and_targets(graph)
    for v in targets:
        pi_path = ctx.pi(v)
        for e, rep in all_single_replacements(ctx, v).items():
            if rep is None:
                continue
            plain = plain_replacement_path(ctx, v, e)
            b_plain = plain.divergence_point(pi_path)
            assert pi_path.position(rep.x) <= pi_path.position(b_plain)


@zoo_params()
def test_binary_search_matches_linear_scan(name, graph):
    """Step 1's binary search, run as lockstep waves on one pair, finds
    the reference linear scan's minimal divergence index."""
    ctx, targets = contexts_and_targets(graph, limit=6)
    for v in targets:
        pi_path = ctx.pi(v)
        for a, b in pi_path.directed_edges():
            from repro.core.graph import normalize_edge

            e = normalize_edge(a, b)
            fast = earliest_divergence_index(ctx, v, e)
            slow = earliest_divergence_index(ctx, v, e, linear=True)
            assert fast == slow


def test_claim_3_4_part2_no_higher_divergence(small_er):
    """No alternative replacement path diverges strictly above x_i."""
    ctx, targets = contexts_and_targets(small_er)
    for v in targets[:6]:
        pi_path = ctx.pi(v)
        for e, rep in all_single_replacements(ctx, v).items():
            if rep is None:
                continue
            k = pi_path.position(rep.x)
            target_dist = ctx.distance(v, banned_edges=(e,))
            for kk in range(k):
                banned_v = ctx.pi_segment_interior_ban(
                    pi_path,
                    pi_path[kk],
                    pi_path[min(pi_path.position(e[0]), pi_path.position(e[1]))],
                )
                d = ctx.distance(v, banned_edges=(e,), banned_vertices=banned_v)
                assert d > target_dist


def test_bridge_returns_none():
    g = path_graph(4)
    ctx = SourceContext(g, 0)
    assert single_replacement(ctx, 3, (1, 2)) is None


def test_fault_off_pi_rejected(small_er):
    ctx = SourceContext(small_er, 0)
    pi_path = ctx.pi(5)
    off = next(e for e in sorted(small_er.edges()) if e not in pi_path.edge_set())
    with pytest.raises(ConstructionError):
        single_replacement(ctx, 5, off)


def test_decompose_rejects_non_replacement():
    pi_path = Path([0, 1, 2, 3])
    with pytest.raises(ConstructionError):
        decompose_replacement(pi_path, Path([0, 1, 2, 3]), (1, 2))


def test_decompose_detects_malformed_suffix():
    # Path re-enters pi and deviates afterward: 0-9-2-8-3 against pi 0-1-2-3:
    # at 2 it rejoins pi but then leaves again -> suffix mismatch.
    pi_path = Path([0, 1, 2, 3])
    bad = Path([0, 9, 2, 8, 3])
    with pytest.raises(ConstructionError):
        decompose_replacement(pi_path, bad, (1, 2))


def test_detour_aliases(small_er):
    ctx, targets = contexts_and_targets(small_er)
    for v in targets[:4]:
        for e, rep in all_single_replacements(ctx, v).items():
            if rep is None:
                continue
            assert rep.x == rep.divergence == rep.detour.source
            assert rep.y == rep.reattach == rep.detour.target


#: The zoo plus the Cons2FTBFS build shapes, as graph factories.
STEP1_GRAPHS = [pytest.param(lambda g=g: g, id=name) for name, g in graph_zoo()] + [
    pytest.param(make, id="cons2" + ("-" + key.rstrip("-") if key else ""))
    for key, make in CONS2_SHAPES.items()
]


@pytest.mark.parametrize(
    "engine,c_mode", [("lex", "auto"), ("lex-csr", "on"), ("lex-csr", "off")]
)
@pytest.mark.parametrize("make_graph", STEP1_GRAPHS)
def test_build_wide_step1_matches_per_target(make_graph, engine, c_mode, monkeypatch):
    """Step 1 for every target in one set of lockstep waves selects
    exactly what the per-target call selects, dict for dict (same
    replacement paths and decompositions, keys in π order)."""
    monkeypatch.setenv("REPRO_C_KERNEL", c_mode)
    if c_mode == "on" and not c_kernel_available():
        pytest.skip("compiled C kernel unavailable")
    g = make_graph()
    shared_cache().clear()
    ctx = SourceContext(g, 0, engine)
    targets = [v for v in ctx.tree.vertices() if v != 0]
    wide = single_replacements_by_target(ctx, targets)
    assert list(wide) == targets
    shared_cache().clear()
    fresh = SourceContext(g, 0, engine)
    for v in targets:
        assert list(wide[v].items()) == list(
            all_single_replacements(fresh, v).items()
        )
