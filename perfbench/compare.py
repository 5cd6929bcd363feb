"""Compare two benchmark result files (JSON lines written by ``run.py --out``).

Usage: ``python3 perfbench/compare.py BASE.jsonl NEW.jsonl``

For every workload and end-to-end metric it prints each side's median
and quartiles over its runs, the relative change and a verdict against
the bound ``BENCHMARK.json`` fixes for that metric:

* ``worse``  — the new median is worse by more than the bound, and the
  spread of the runs is within the bound (or every new run is worse
  than every base run);
* ``better`` — the new median is better by more than the base runs'
  own quartile spread, under the same spread condition;
* ``unresolved`` — neither could be shown.

The ``in bound`` column says whether the new median stays within the
bound.  Traced runs add a per-layer table of median changes.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Tuple

from common import median, quartiles

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> Dict[Tuple[str, int], Dict[str, List[float]]]:
    """``(workload, trace) -> metric -> values`` over all runs in a file."""
    runs: Dict[Tuple[str, int], Dict[str, List[float]]] = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            key = (record["workload"], int(record["trace"]))
            metrics = runs.setdefault(key, {})
            for name, entry in record["result"]["metrics"].items():
                metrics.setdefault(name, []).append(float(entry["value"]))
    return runs


def verdict(base: List[float], new: List[float], better: str, bound: float) -> Tuple[float, str, bool]:
    """``(relative gain, verdict, within bound)`` of ``new`` against ``base``."""
    sign = 1.0 if better == "higher" else -1.0
    b_med, n_med = median(base), median(new)
    if b_med == 0:
        return 0.0, "unresolved", n_med == 0
    gain = sign * (n_med - b_med) / abs(b_med) + 0.0  # no "-0.0"
    bq, nq = quartiles(base), quartiles(new)
    base_spread = (bq[2] - bq[0]) / abs(b_med)
    spread = max(base_spread, (nq[2] - nq[0]) / abs(b_med))
    all_better = min(sign * v for v in new) > max(sign * v for v in base)
    all_worse = max(sign * v for v in new) < min(sign * v for v in base)
    if gain < -bound and (spread <= bound or all_worse):
        return gain, "worse", False
    if gain > 0 and gain > base_spread and (spread <= bound or all_better):
        return gain, "better", True
    return gain, "unresolved", gain >= -bound


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two benchmark result files")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)

    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    base, new = load(args.base), load(args.new)
    workloads = [w["name"] for w in spec["workloads"]]

    def fmt(values: List[float]) -> str:
        q = quartiles(values)
        return f"{median(values):12.4f} [{q[0]:.4f}, {q[2]:.4f}]"

    print(f"{'workload':<13} {'metric':<16} {'base median [q1, q3]':>36} "
          f"{'new median [q1, q3]':>36} {'change':>8} {'bound':>6}  verdict     in bound")
    worse = 0
    for workload in workloads:
        b_runs, n_runs = base.get((workload, 0), {}), new.get((workload, 0), {})
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in b_runs or name not in n_runs:
                continue
            gain, call, ok = verdict(b_runs[name], n_runs[name], metric["better"], metric["bound"])
            worse += call == "worse"
            print(f"{workload:<13} {name:<16} {fmt(b_runs[name]):>36} {fmt(n_runs[name]):>36} "
                  f"{100 * gain:+7.1f}% {metric['bound']:6.2f}  {call:<11} {'yes' if ok else 'NO'}")

    print()
    print(f"{'workload':<13} {'per-layer metric':<30} {'base':>14} {'new':>14} {'change':>9}")
    for workload in workloads:
        b_runs, n_runs = base.get((workload, 1), {}), new.get((workload, 1), {})
        for metric in spec["per_layer"]:
            name = metric["name"]
            if name not in b_runs or name not in n_runs:
                continue
            b, n = median(b_runs[name]), median(n_runs[name])
            if b == 0 and n == 0:
                continue
            change = f"{100 * (n - b) / abs(b):+8.1f}%" if b else "     new"
            print(f"{workload:<13} {name:<30} {b:14.6g} {n:14.6g} {change:>9}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
