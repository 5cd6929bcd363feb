"""Deterministic zoo of small connected graphs shared across test modules.

Besides the unweighted zoo, this module hosts the *weighted* graph
generators the weighted differential suites share
(``tests/test_weighted.py``, ``tests/test_csr_equivalence.py``):
tie-heavy small-integer weightings that keep the Dial bucket queue and
the deterministic tie-break under pressure, and float weightings that
send the CSR engine to the reference search.  ``random_restriction`` (random banned
edge/vertex sets) lives here too so every equivalence suite draws
faults the same way.
"""

from __future__ import annotations

import random

import pytest

from repro.core.graph import Graph
from repro.generators import (
    barbell_graph,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    path_graph,
    tree_plus_chords,
)


def graph_zoo():
    """A deterministic collection of small connected test graphs."""
    return [
        ("diamond", Graph(6, [(0, 1), (1, 3), (0, 2), (2, 3), (0, 4), (4, 5), (5, 3)])),
        ("path6", path_graph(6)),
        ("cycle7", cycle_graph(7)),
        ("grid3x4", grid_graph(3, 4)),
        ("barbell", barbell_graph(4, 2)),
        ("er10", erdos_renyi(10, 0.25, seed=1)),
        ("er13", erdos_renyi(13, 0.2, seed=2)),
        ("er16", erdos_renyi(16, 0.18, seed=3)),
        ("chords12", tree_plus_chords(12, 5, seed=4)),
    ]


#: Cons2FTBFS build shapes, keyed by test id prefix (the small default
#: shape has none): the planned-probe check against an independent
#: oracle, the lex vs lex-csr build agreement, the build-wide step-1
#: check and the step-3 depth-rule check run on each.  ``er-dense`` has
#: many step-3 new-ending events, i.e. d_restricted restrictions that
#: shrink mid-loop.
CONS2_SHAPES = {
    "": lambda: tree_plus_chords(40, 18, seed=6),
    "chords-": lambda: tree_plus_chords(120, 45, seed=6),
    "er-sparse-": lambda: erdos_renyi(90, 0.05, seed=11),
    "er-dense-": lambda: erdos_renyi(70, 0.14, seed=3),
}


def zoo_params():
    zoo = graph_zoo()
    return pytest.mark.parametrize("name,graph", zoo, ids=[name for name, _ in zoo])


def random_restriction(graph, rng, max_edges=3, max_vertices=3, forbid=(0,)):
    """A random banned edge/vertex set (never banning the vertices in forbid)."""
    edges = sorted(graph.edges())
    banned_edges = rng.sample(edges, k=min(len(edges), rng.randrange(0, max_edges + 1)))
    candidates = [v for v in graph.vertices() if v not in set(forbid)]
    banned_vertices = rng.sample(
        candidates, k=min(len(candidates), rng.randrange(0, max_vertices + 1))
    )
    return banned_edges, banned_vertices


# ----------------------------------------------------------------------
# weighted generators (docs/weighted.md)
# ----------------------------------------------------------------------
def reweight(graph, seed, kind="tie-int"):
    """A weighted copy of ``graph`` under a deterministic weighting.

    ``kind`` picks the weight distribution:

    * ``"tie-int"`` — small integers from ``{1, 2, 3}``: many equal-cost
      shortest paths, maximal pressure on the deterministic tie-break,
      and all weights within the Dial crossover.
    * ``"big-int"`` — integers from ``[1, 200]``: still exact integer
      arithmetic, but above ``DIAL_MAX_WEIGHT``, so the CSR engine runs
      the reference heap search.
    * ``"float"`` — floats from ``(0.1, 4.0)`` rounded to 3 decimals
      (ties still possible): the reference path with fractional
      distances.
    """
    rng = random.Random(f"reweight:{kind}:{seed}")
    if kind == "tie-int":
        draw = lambda: rng.randint(1, 3)  # noqa: E731
    elif kind == "big-int":
        draw = lambda: rng.randint(1, 200)  # noqa: E731
    elif kind == "float":
        draw = lambda: round(rng.uniform(0.1, 4.0), 3)  # noqa: E731
    else:  # pragma: no cover - caller bug
        raise ValueError(f"unknown weighting kind {kind!r}")
    out = Graph(graph.n)
    for (u, v) in sorted(graph.edges()):
        out.add_edge(u, v, draw())
    return out


def random_weighted_graph(n, p, seed, kind="tie-int"):
    """A weighted Erdős–Rényi graph (shared by the weighted suites)."""
    return reweight(erdos_renyi(n, p, seed=seed), seed, kind=kind)


def weighted_zoo():
    """Deterministic weighted companions to the unweighted zoo.

    Every unweighted zoo graph appears under the tie-heavy integer
    weighting; a few reappear under big-integer (reference search) and
    float weightings so both search paths are always exercised.
    """
    out = [
        (f"{name}+w", reweight(g, i, kind="tie-int"))
        for i, (name, g) in enumerate(graph_zoo())
    ]
    out += [
        ("er13+big", random_weighted_graph(13, 0.2, seed=2, kind="big-int")),
        ("er16+float", random_weighted_graph(16, 0.18, seed=3, kind="float")),
        ("grid3x4+float", reweight(grid_graph(3, 4), 9, kind="float")),
    ]
    return out


def weighted_zoo_params():
    zoo = weighted_zoo()
    return pytest.mark.parametrize(
        "name,graph", zoo, ids=[name for name, _ in zoo]
    )
