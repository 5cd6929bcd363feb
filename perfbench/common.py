"""Paths, environment hygiene and small statistics shared by the benchmark.

The benchmark runs from the root of a source checkout: the package under
test lives in ``src/`` and every file the benchmark writes goes under
``.bench_build/perfbench/`` in the same checkout.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import pathlib
import random
import sys
import time
from typing import Dict, List, Optional, Sequence

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

#: Environment variables the package reads start with this prefix.
KNOB_PREFIX = "REPRO_"


def have_sources() -> bool:
    """True when the checkout holds the package the benchmark drives."""
    return (SRC / "repro" / "__init__.py").is_file()


def use_sources() -> None:
    """Import ``repro`` from this checkout's ``src/``."""
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)


def knobs_present(environ=None) -> Dict[str, str]:
    """Every ``REPRO_*`` variable set in ``environ`` (default: ours)."""
    env = os.environ if environ is None else environ
    return {k: v for k, v in sorted(env.items()) if k.startswith(KNOB_PREFIX)}


def workload_env() -> Dict[str, str]:
    """The environment for every process that runs the program.

    All ``REPRO_*`` knobs are removed so the shipped defaults are what
    gets measured; only the results directory is set, to the work dir.
    ``XDG_CACHE_HOME`` points into the work dir as well, so an
    on-demand C-kernel compile (if a future default triggers one)
    stays inside the checkout.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith(KNOB_PREFIX)}
    env["REPRO_RESULTS_DIR"] = str(WORK)
    env["XDG_CACHE_HOME"] = str(WORK / "cache")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def scrub_own_env() -> Dict[str, str]:
    """Apply :func:`workload_env`'s knob policy to this process too.

    The benchmark process imports the package (client, generators,
    artifact reader), so it must not see knobs either.  Returns the
    knobs that were present, for the environment block.
    """
    present = knobs_present()
    for key in present:
        del os.environ[key]
    os.environ["REPRO_RESULTS_DIR"] = str(WORK)
    return present


def source_digest() -> str:
    """Content hash of the package sources (keys cached build products)."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*")):
        if path.suffix in (".py", ".c") and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def read_peak_rss_mb(pid: int) -> Optional[float]:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    s = sorted(values)
    k = len(s)
    mid = k // 2
    return s[mid] if k % 2 else 0.5 * (s[mid - 1] + s[mid])


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sequence."""
    s = sorted(values)
    i = max(0, min(len(s) - 1, math.ceil(q * len(s)) - 1))
    return s[i]


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as :func:`statistics.quantiles` gives them."""
    import statistics

    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


#: Seconds :func:`calibrate` takes on the host the bounds were fitted
#: on; normalized figures are expressed at that host speed.
CAL_NOMINAL = 0.32


@functools.lru_cache(maxsize=1)
def _calibration_graph():
    from reference import adjacency

    rng = random.Random(20150721)
    n = 2000
    edges = set()
    while len(edges) < 8000:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return adjacency(n, sorted(edges))


def calibrate() -> float:
    """Seconds a fixed pure-python BFS workload takes right now.

    The speed of a shared host drifts by tens of percent over minutes,
    which would swamp any regression bound.  The workload uses only
    the benchmark's own reference BFS, so nothing the package does
    changes it; dividing the time of single-process, CPU-bound work
    (a build) by it (see :func:`at_nominal`) cancels the drift.
    """
    from reference import bfs

    adj = _calibration_graph()
    t0 = time.perf_counter()
    for s in range(300):
        bfs(adj, s)
    return time.perf_counter() - t0


def at_nominal(seconds: float, cal: float) -> float:
    """``seconds`` measured while :func:`calibrate` took ``cal``,
    expressed at the nominal host speed."""
    return seconds * CAL_NOMINAL / cal
