"""Structural theory of detours — Section 3.2 of the paper.

For a fixed target ``v``, every single-failure replacement path
``P_{s,v,{e_i}}`` decomposes as ``π(s, x_i) ∘ D_i ∘ π(y_i, v)``.  The
paper's size analysis rests on understanding how two detours ``D_1,
D_2`` can relate; Definition 3.7 (Fig. 3) classifies their endpoint
arrangement, and Claim 3.11 (Fig. 4) refines dependent interleaved
pairs by the direction in which they traverse their common segment.

This module provides the classification plus executable versions of the
structural claims (3.6, 3.8–3.12) used heavily by the analysis — tests
assert them on real graphs, and the census benchmark (experiment E8)
reports how often each configuration occurs in practice.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Sequence, Tuple

from repro.core.paths import Path
from repro.replacement.single import SingleReplacement


class DetourConfiguration(Enum):
    """Pairwise detour configurations (Definition 3.7 + refinements).

    The first six values follow the paper; ``EQUAL_ENDPOINTS`` covers
    the degenerate case of two distinct detours sharing both endpoints,
    which Definition 3.7 leaves implicit.
    """

    NON_NESTED = "non-nested"
    NESTED = "nested"
    FW_INTERLEAVED = "fw-interleaved"
    REV_INTERLEAVED = "rev-interleaved"
    INTERLEAVED_INDEPENDENT = "interleaved-independent"
    X_INTERLEAVED = "x-interleaved"
    Y_INTERLEAVED = "y-interleaved"
    XY_INTERLEAVED = "xy-interleaved"
    EQUAL_ENDPOINTS = "equal-endpoints"


@dataclass(frozen=True)
class DetourPair:
    """An ordered pair of detours with their classification.

    ``first`` is the detour with the shallower start on ``π(s, v)``
    (ties broken by shallower end, then by fault depth), matching the
    paper's convention ``x_1 ≤ x_2``.
    """

    first: SingleReplacement
    second: SingleReplacement
    configuration: DetourConfiguration
    dependent: bool


def order_pair(
    pi_path: Path, a: SingleReplacement, b: SingleReplacement
) -> Tuple[SingleReplacement, SingleReplacement]:
    """Order two detours so that ``x_1 ≤ x_2`` (ties: ``y_1 ≤ y_2``)."""
    key_a = (pi_path.position(a.x), pi_path.position(a.y))
    key_b = (pi_path.position(b.x), pi_path.position(b.y))
    return (a, b) if key_a <= key_b else (b, a)


def are_dependent(a: SingleReplacement, b: SingleReplacement) -> bool:
    """``V(D_1) ∩ V(D_2) ≠ ∅`` (the paper's *dependent* relation)."""
    return bool(set(a.detour.vertices) & set(b.detour.vertices))


def first_common_vertex(
    d1: Path, d2: Path
) -> Optional[int]:
    """``First(D_1, D_2)``: first vertex on ``D_1`` also on ``D_2``."""
    return d1.first_common_vertex(d2)


def last_common_vertex(d1: Path, d2: Path) -> Optional[int]:
    """``Last(D_1, D_2)``: last vertex on ``D_1`` also on ``D_2``."""
    return d1.last_common_vertex(d2)


def classify_pair(
    pi_path: Path, a: SingleReplacement, b: SingleReplacement
) -> DetourPair:
    """Classify the configuration of two detours of the same target.

    The inputs may be in either order; the result's ``first``/``second``
    follow the ``x_1 ≤ x_2`` convention.  Interleaved dependent pairs
    are refined into ``FW``/``REV`` by comparing ``First(D_1, D_2)``
    with ``First(D_2, D_1)`` (Claim 3.11); interleaved *independent*
    pairs get their own tag since fw/rev is undefined without a common
    segment.
    """
    d1, d2 = order_pair(pi_path, a, b)
    x1, y1 = pi_path.position(d1.x), pi_path.position(d1.y)
    x2, y2 = pi_path.position(d2.x), pi_path.position(d2.y)
    dependent = are_dependent(d1, d2)

    if x1 == x2:
        if y1 == y2:
            config = DetourConfiguration.EQUAL_ENDPOINTS
        else:
            config = DetourConfiguration.X_INTERLEAVED
    elif y1 < x2:
        config = DetourConfiguration.NON_NESTED
    elif y1 == x2:
        config = DetourConfiguration.XY_INTERLEAVED
    elif y2 < y1:
        config = DetourConfiguration.NESTED
    elif y2 == y1:
        config = DetourConfiguration.Y_INTERLEAVED
    else:  # x1 < x2 < y1 < y2: interleaved proper
        if not dependent:
            config = DetourConfiguration.INTERLEAVED_INDEPENDENT
        else:
            f12 = first_common_vertex(d1.detour, d2.detour)
            f21 = first_common_vertex(d2.detour, d1.detour)
            if f12 == f21:
                config = DetourConfiguration.FW_INTERLEAVED
            else:
                config = DetourConfiguration.REV_INTERLEAVED
    return DetourPair(first=d1, second=d2, configuration=config, dependent=dependent)


def common_segment_coincides(d1: Path, d2: Path) -> bool:
    """Executable Claim 3.6: shared vertices form one common subpath.

    For detours computed with a uniqueness-guaranteeing engine, any two
    common vertices ``w_1, w_2`` satisfy ``D_1[w_1, w_2] = D_2[w_1, w_2]``
    (as undirected vertex sets).  Returns True iff that holds for the
    extreme common vertices, which implies it for all pairs.
    """
    common = set(d1.vertices) & set(d2.vertices)
    if len(common) <= 1:
        return True
    idx1 = sorted(d1.position(w) for w in common)
    # Common vertices must be contiguous on both detours and induce the
    # same vertex sequence (up to direction).
    if idx1[-1] - idx1[0] + 1 != len(idx1):
        return False
    idx2 = sorted(d2.position(w) for w in common)
    if idx2[-1] - idx2[0] + 1 != len(idx2):
        return False
    seg1 = list(d1.vertices[idx1[0] : idx1[-1] + 1])
    seg2 = list(d2.vertices[idx2[0] : idx2[-1] + 1])
    return seg1 == seg2 or seg1 == seg2[::-1]


def excluded_suffix(
    pi_path: Path, d1: SingleReplacement, d2: SingleReplacement
) -> Optional[Path]:
    """The ``D_1``-excluded segment ``L_1 = D_1[w, y_1]`` of Claim 3.12.

    Defined for dependent pairs with ``x_1 ≤ x_2 ≤ y_1 < y_2``
    (interleaved, x-interleaved or (x,y)-interleaved) where
    ``w = Last(D_2, D_1)``.  Returns ``None`` when the precondition does
    not hold.  Claim 3.12 states no selected (π,D) replacement path with
    detour ``D_1`` has its second fault on this segment — the test suite
    checks exactly that.
    """
    if not are_dependent(d1, d2):
        return None
    x1, y1 = pi_path.position(d1.x), pi_path.position(d1.y)
    x2, y2 = pi_path.position(d2.x), pi_path.position(d2.y)
    if not (x1 <= x2 <= y1 < y2):
        return None
    w = last_common_vertex(d2.detour, d1.detour)
    if w is None:
        return None
    return d1.detour.suffix(w)


def configuration_census(
    pi_path: Path, detours: Sequence[SingleReplacement]
) -> Dict[DetourConfiguration, int]:
    """Count pairwise configurations among a target's detours (Fig. 3/4).

    Feeds experiment E8.
    """
    counts: Dict[DetourConfiguration, int] = {c: 0 for c in DetourConfiguration}
    for i in range(len(detours)):
        for j in range(i + 1, len(detours)):
            pair = classify_pair(pi_path, detours[i], detours[j])
            counts[pair.configuration] += 1
    return counts
