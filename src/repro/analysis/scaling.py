"""Scaling-law fits for the size experiments.

The headline claims are asymptotic (``O(n^{5/3})``, ``Ω(n^{5/3})``,
``O(n^{3/2})``, ``O(√n)`` per vertex, ...).  The benchmarks therefore
report, next to the raw size series, the *empirical exponent*: the
least-squares slope of ``log size`` against ``log n``.  This module
implements that fit without external dependencies (a 1-D regression
needs none).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of ``y ≈ C · x^alpha`` in log-log space."""

    alpha: float
    log_c: float
    r_squared: float

    @property
    def c(self) -> float:
        """The multiplicative constant ``C``."""
        return math.exp(self.log_c)

    def predict(self, x: float) -> float:
        """``C · x^alpha``."""
        return self.c * (x ** self.alpha)

    def __repr__(self) -> str:
        return (
            f"PowerLawFit(alpha={self.alpha:.3f}, C={self.c:.3f}, "
            f"R2={self.r_squared:.4f})"
        )


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Fit ``y = C x^alpha`` by linear regression on ``(log x, log y)``.

    Requires at least two positive points; repeated x-values are fine.
    """
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(pts) < 2:
        raise ValueError("need at least two positive (x, y) points")
    n = len(pts)
    mx = sum(p[0] for p in pts) / n
    my = sum(p[1] for p in pts) / n
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    sxy = sum((p[0] - mx) * (p[1] - my) for p in pts)
    if sxx == 0:
        raise ValueError("all x values identical; exponent undefined")
    alpha = sxy / sxx
    log_c = my - alpha * mx
    ss_tot = sum((p[1] - my) ** 2 for p in pts)
    ss_res = sum((p[1] - (log_c + alpha * p[0])) ** 2 for p in pts)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(alpha=alpha, log_c=log_c, r_squared=r2)


def normalized_series(
    ns: Sequence[int], sizes: Sequence[int], exponent: float
) -> List[float]:
    """``size / n^exponent`` — flat when the claimed exponent is right."""
    return [s / (n ** exponent) for n, s in zip(ns, sizes)]


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Plain-text table formatting shared by the benchmark reports."""
    rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out)
