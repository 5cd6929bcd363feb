"""Shared helpers for the experiment benchmarks.

Every benchmark regenerates one table/figure-equivalent of the paper
(see DESIGN.md §3).  The table is printed to stdout *and* persisted to
``benchmarks/results/<exp>.txt`` so ``pytest benchmarks/
--benchmark-only`` leaves a full record behind regardless of output
capture.

Benchmarks that measure performance additionally persist
machine-readable results via :func:`emit_json` as
``benchmarks/results/BENCH_<exp>.json`` (graph sizes, wall times, edge
counts, speedups), so the perf trajectory across PRs can be tracked and
diffed mechanically instead of by reading text tables.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Iterable, List, Sequence

from repro.analysis import format_table
from repro.core.snapshot_cache import shared_cache
from repro.generators import erdos_renyi, tree_plus_chords


def _results_dir() -> pathlib.Path:
    """Where benchmark outputs land (``REPRO_RESULTS_DIR`` overrides).

    The default is ``benchmarks/results/`` inside the checkout; on
    read-only checkouts (CI caches, mounted images) set
    ``REPRO_RESULTS_DIR`` to any writable directory and every
    ``<exp>.txt`` / ``BENCH_<exp>.json`` goes there instead — the same
    knob :func:`repro.core.io.resolve_out` honors for CLI outputs.
    """
    override = os.environ.get("REPRO_RESULTS_DIR", "").strip()
    if override:
        return pathlib.Path(override)
    return pathlib.Path(__file__).parent / "results"


RESULTS_DIR = _results_dir()


#: Where the checked-in topology corpus lives (``topo:`` workloads).
TOPOLOGIES_DIR = pathlib.Path(__file__).parent / "topologies"


def parse_workload(item: str):
    """One benchmark workload spec → a ``(kind, n, arg)`` triple.

    The one graph-source grammar every benchmark shares (E16's
    ``REPRO_E16_SIZES``, E18's ``REPRO_E18_SIZES``, E19's corpus
    entries):

    * ``chords:<n>:<chords>`` — random tree plus chords;
    * ``er:<n>:<p>`` — Erdős–Rényi;
    * ``<n>:<p>`` — bare ER shorthand (E18's legacy form);
    * ``topo:<ref>`` — a corpus topology: a file under
      ``benchmarks/topologies/`` (or any path) or a generator spec
      like ``fattree:k=4`` (see :mod:`repro.core.topology`); ``n`` is
      ``None`` until the graph is built.
    """
    parts = item.split(":")
    if parts[0] == "topo":
        ref = ":".join(parts[1:])
        if not ref:
            raise ValueError(f"workload {item!r} names no topology")
        return ("topo", None, ref)
    if len(parts) == 2:  # bare "n:p" ER shorthand
        return ("er", int(parts[0]), float(parts[1]))
    kind, n, arg = parts[:3]
    if kind == "chords":
        return ("chords", int(n), int(float(arg)))
    if kind == "er":
        return ("er", int(n), float(arg))
    raise ValueError(f"unknown workload kind {kind!r} in {item!r}")


def parse_workloads(env_var: str, default: str) -> List[tuple]:
    """The workload ladder of one benchmark (``env_var`` overrides)."""
    spec = os.environ.get(env_var, default)
    return [parse_workload(item.strip()) for item in spec.split(",") if item.strip()]


def workload_graph(kind: str, n, arg, seed: int = 20):
    """Materialize one :func:`parse_workload` triple into a graph.

    ``topo`` workloads resolve relative file references against
    :data:`TOPOLOGIES_DIR` so specs like ``topo:abilene.graphml`` work
    from any working directory; ``seed`` only affects the random
    families.
    """
    if kind == "topo":
        from repro.core.topology import load_topology

        return load_topology(arg, base_dir=TOPOLOGIES_DIR).graph
    if kind == "chords":
        return tree_plus_chords(n, int(arg), seed=seed)
    if kind == "er":
        return erdos_renyi(n, arg, seed=seed)
    raise ValueError(f"unknown workload kind {kind!r}")


def workload_label(kind: str, n, arg) -> str:
    """Human-readable workload label for benchmark tables."""
    if kind == "topo":
        return f"topo {arg}"
    return f"{kind} n={n}"


def jobs_axis() -> List[int]:
    """Worker counts the parallel benchmarks sweep (``REPRO_BENCH_JOBS``).

    A comma list like ``1,2,4``; always starts with 1 (the serial
    baseline the scaling is measured against) and deduplicates while
    preserving order.  Defaults to ``[1, 2]`` — the smallest sweep that
    exercises the process-pool axis — so local runs stay cheap; CI's
    nightly leg widens it to ``1,4``.
    """
    raw = os.environ.get("REPRO_BENCH_JOBS", "1,2")
    axis: List[int] = [1]
    for part in raw.split(","):
        try:
            j = int(part.strip())
        except ValueError:
            continue
        if j > 1 and j not in axis:
            axis.append(j)
    return axis


def scaling_floor() -> float:
    """Minimum accepted parallel speedup (``REPRO_BENCH_MIN_PARALLEL_SCALING``).

    0 (the default) records scaling without enforcing it — the right
    behavior on shared or single-core boxes where pool overhead swamps
    the win.  CI sets it (1.4 on the 2-core smoke leg, 1.6 on the
    4-core nightly) to turn the measurement into a regression gate.
    Callers must apply the floor only when the host actually has at
    least as many cores as the measured jobs arm.
    """
    try:
        return float(os.environ.get("REPRO_BENCH_MIN_PARALLEL_SCALING", "0"))
    except ValueError:
        return 0.0


def engine_arms() -> List[str]:
    """The engines perf benchmarks compare, in baseline-first order.

    Legacy ``lex`` is the pre-kernel baseline every speedup is measured
    against; ``lex-csr`` is the CSR kernel, its searches in C whenever
    the C kernel loads.
    """
    return ["lex", "lex-csr"]


def cold_cache() -> None:
    """Drop the process-wide snapshot cache before a timed arm.

    Engines and oracles share restricted-search memos across instances
    (see :mod:`repro.core.snapshot_cache`); a benchmark that times
    engine B after engine A on the same graph would otherwise measure
    A's warm cache, not B.
    """
    shared_cache().clear()


def emit(exp_id: str, title: str, body: str) -> None:
    """Print an experiment report and persist it under results/."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    report = f"== {exp_id}: {title} ==\n{body}\n"
    print("\n" + report)
    (RESULTS_DIR / f"{exp_id}.txt").write_text(report)


def emit_json(exp_id: str, payload: dict) -> pathlib.Path:
    """Persist machine-readable benchmark results next to the text table.

    Writes ``results/BENCH_<exp>.json`` and returns the path.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{exp_id}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Format a table body (thin wrapper for import convenience)."""
    return format_table(headers, rows)
