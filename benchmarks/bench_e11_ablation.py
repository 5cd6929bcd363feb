"""E11 — ablation of Cons2FTBFS's design choices.

The construction (``docs/architecture.md`` maps it onto
``src/repro/ftbfs/cons2ftbfs.py``) has two ingredients worth ablating:

* the *last-edge sparsification* (vs keeping whole replacement paths);
* the *selection preferences* (earliest π-/D-divergence + the
  ``G_{τ-1}(v)`` reuse check) on top of plain canonical choices.

This benchmark isolates both by comparing the dense union, the un-tuned
``simple`` builder and full ``Cons2FTBFS`` across a sweep.
"""

import pytest

from repro.ftbfs import (
    build_cons2ftbfs,
    build_dense_union,
    build_dual_ftbfs_simple,
)
from repro.generators import erdos_renyi, tree_plus_chords
from repro.lowerbound import build_lower_bound_graph

from _common import emit, table

CASES = [
    ("ER n=60", lambda: (erdos_renyi(60, 5.0 / 60, seed=2), 0)),
    ("ER n=100", lambda: (erdos_renyi(100, 5.0 / 100, seed=2), 0)),
    ("chords n=80", lambda: (tree_plus_chords(80, 40, seed=2), 0)),
]


def test_e11_ablation(benchmark):
    rows = []
    for label, make in CASES:
        g, s = make()
        dense = build_dense_union(g, s, 2)
        simple = build_dual_ftbfs_simple(g, s)
        cons2 = build_cons2ftbfs(g, s)
        rows.append(
            [
                label,
                g.m,
                dense.size,
                simple.size,
                cons2.size,
                f"{100.0 * (1 - simple.size / dense.size):.0f}%",
                f"{100.0 * (1 - cons2.size / max(simple.size, 1)):.0f}%",
            ]
        )
        # last-edge sparsification must never lose to the dense union
        assert simple.size <= dense.size
        assert cons2.size <= dense.size

    inst = build_lower_bound_graph(92, 2)
    g, s = inst.graph, inst.sources[0]
    dense = build_dense_union(g, s, 2)
    simple = build_dual_ftbfs_simple(g, s)
    cons2 = build_cons2ftbfs(g, s)
    rows.append(
        ["G*_2 n=92", g.m, dense.size, simple.size, cons2.size,
         f"{100.0 * (1 - simple.size / dense.size):.0f}%",
         f"{100.0 * (1 - cons2.size / max(simple.size, 1)):.0f}%"]
    )

    body = table(
        [
            "instance",
            "m",
            "dense union",
            "last-edge (plain)",
            "Cons2FTBFS",
            "sparsif. saves",
            "prefs save",
        ],
        rows,
    )
    emit("E11", "ablation: sparsification and selection preferences", body)

    g = erdos_renyi(100, 0.05, seed=2)
    benchmark.pedantic(
        lambda: build_dual_ftbfs_simple(g, 0), rounds=2, iterations=1
    )
