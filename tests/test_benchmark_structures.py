"""The structures of the perfbench build workloads, pinned byte for byte.

``perfbench`` builds ``tree_plus_chords(1000, 300)`` and
``erdos_renyi(1000, 0.008)`` from source 0 on the default engine.  A
change to the builder, the planner, the path algebra or a kernel tier
must leave those structures identical.  This pins, per graph, ``|H|``,
the step counters, a SHA-256 of the sorted edge list and the number of
:meth:`~repro.core.query_batch.PointQueryBatch.execute` calls of a cold
build (one per step-1 wave plus one for steps 2 and 3).  The values
hold on both kernel tiers, so the suite checks whichever one runs.
"""

import hashlib

import pytest

from repro.core import query_batch
from repro.core.snapshot_cache import shared_cache
from repro.ftbfs.cons2ftbfs import build_cons2ftbfs
from repro.generators import erdos_renyi, tree_plus_chords

PINNED = {
    "chords": dict(
        graph=lambda: tree_plus_chords(1000, 300),
        size=1299,
        satisfied_pairs=27111,
        new_ending_paths=114,
        new_edges_by_phase={"single": 440, "pipi": 8, "pid": 114},
        digest="c1d19c560919f3dda3e8fa3a8534ad739587ee4e4aeefc68c570519e48a41753",
        executes=4,
    ),
    "er": dict(
        graph=lambda: erdos_renyi(1000, 0.008),
        size=2746,
        satisfied_pairs=10514,
        new_ending_paths=917,
        new_edges_by_phase={"single": 999, "pipi": 3, "pid": 917},
        digest="91f6f2e2db42ddbff2279012bbf93fe86f9730ab5f4d5141e52b6af8dbc8d2df",
        executes=3,
    ),
}


def edge_digest(edges) -> str:
    """SHA-256 of the sorted edge list, one ``"u v"`` line per edge."""
    text = "".join(f"{u} {v}\n" for u, v in sorted(edges))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_benchmark_build_is_byte_identical(name, monkeypatch):
    pinned = PINNED[name]
    executes = []
    execute = query_batch.PointQueryBatch.execute

    def counted(batch):
        executes.append(len(batch))
        return execute(batch)

    monkeypatch.setattr(query_batch.PointQueryBatch, "execute", counted)
    shared_cache().clear()
    h = build_cons2ftbfs(pinned["graph"](), 0)
    assert h.size == pinned["size"]
    assert h.stats["satisfied_pairs"] == pinned["satisfied_pairs"]
    assert h.stats["new_ending_paths"] == pinned["new_ending_paths"]
    assert h.stats["new_edges_by_phase"] == pinned["new_edges_by_phase"]
    assert edge_digest(h.edges) == pinned["digest"]
    assert len(executes) == pinned["executes"]
