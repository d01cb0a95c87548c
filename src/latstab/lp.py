"""Integer-hull invariance of Lp-balls approaching their limiting box.

K_p sits inside the box K_inf and grows with p, so each lattice point of
the box enters K_p at some exponent and stays.  When no applicable
semi-axis is an integer there is an explicit sufficient threshold

    p0 = ln(d_eff) / ln(1/beta_max),   beta_max = max_i floor(alpha_i)/alpha_i,

past which every box lattice point has entered.  Coordinates with
floor(alpha_i) = 0 force z_i = 0, contribute nothing to the gauge sum, and
are excluded from both d_eff and the max.  An integer semi-axis breaks the
story completely: the box corner at that coordinate sits on the flat face,
the strictly convex Lp boundary excludes it at every finite p, and no
finite threshold exists.

Invariance is a statement about point sets, not counts, and a lattice
point is treated as retained when it is not classified strictly outside:
at the threshold itself the binding points sit exactly on the Lp boundary,
where a closed body contains them but a float gauge can only say
"boundary".  Integer exponents avoid even that, via exact rational power
sums.

Deciding invariance at one p needs a single membership test, not an
enumeration.  The Lp-ball's candidate lattice points are exactly the box's
lattice points (both floor the same rational semi-axes), and the Lp gauge
is nondecreasing in each |z_i|, so every box lattice point is dominated
coordinate by coordinate by the binding corner z* = (floor(alpha_i))_i.
The two point sets are therefore equal iff z* is retained.
threshold_sufficiency_check still compares the enumerated sets, as an
oracle independent of that argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bodies import DEFAULT_EPS, AxisBox, Containment, LpBall, contains
from .enumeration import (
    CountResult,
    classify_lattice_points,
    count_points,
    list_lattice_points,
)


@dataclass(frozen=True, slots=True)
class ThresholdReport:
    p0: float
    excluded_coords: tuple[int, ...]  # indices with floor(alpha_i) = 0
    beta_max: float  # 0.0 when every coordinate is excluded
    note: str | None = None


def p_threshold(box: AxisBox) -> ThresholdReport:
    """Sufficient invariance threshold p0 for a box with no integer
    applicable semi-axis; rejects boxes where one is integer."""
    excluded = tuple(
        i for i, a in enumerate(box.semi_axes) if math.floor(a) == 0
    )
    applicable = [
        (i, a) for i, a in enumerate(box.semi_axes) if math.floor(a) >= 1
    ]
    for i, a in applicable:
        if a.denominator == 1:
            raise ValueError(
                f"semi-axis {i} = {a} is an integer: the box corner at that "
                f"coordinate leaves the Lp-ball at every finite p, so no "
                f"finite invariance threshold exists"
            )
    if not applicable:
        return ThresholdReport(
            1.0,
            excluded,
            0.0,
            note="every semi-axis has floor zero; the lattice set is {0} at all p",
        )
    beta_max = max(Fraction(math.floor(a)) / a for _, a in applicable)
    raw = math.log(len(applicable)) / math.log(float(1 / beta_max))
    if raw < 1.0:
        return ThresholdReport(
            1.0, excluded, float(beta_max), note=f"raw threshold {raw:.6g} floored to 1"
        )
    return ThresholdReport(raw, excluded, float(beta_max))


def count_lp(box: AxisBox, p: float, eps: float = DEFAULT_EPS) -> CountResult:
    """Lattice count of the Lp-ball with the box's semi-axes; p = math.inf
    uses the exact closed form."""
    return count_points(LpBall(p, box.semi_axes), eps)


def _retained_set(box: AxisBox, p: float, eps: float) -> frozenset:
    """Lattice points of the Lp-ball that are not strictly outside."""
    inside, ambiguous = classify_lattice_points(LpBall(p, box.semi_axes), eps)
    return frozenset(inside) | frozenset(ambiguous)


def _invariant_at(box: AxisBox, p: float, eps: float) -> bool:
    """True iff the Lp-ball at p retains every lattice point of the box,
    decided by the binding corner alone (see the module docstring)."""
    corner = tuple(math.floor(a) for a in box.semi_axes)
    return contains(LpBall(p, box.semi_axes), corner, eps) is not Containment.OUTSIDE


def threshold_sufficiency_check(
    box: AxisBox, grid=None, eps: float = DEFAULT_EPS
) -> bool:
    """True iff the lattice point set of K_p equals that of the box for
    every p in the grid (default: p0, p0 + 0.5, 2 p0, 10 p0)."""
    report = p_threshold(box)
    p0 = report.p0
    if grid is None:
        grid = (p0, p0 + 0.5, 2 * p0, 10 * p0)
    else:
        for p in grid:
            if p < p0 - 1e-12:
                raise ValueError(f"grid value {p} is below the threshold {p0}")
    box_set = frozenset(list_lattice_points(AxisBox(box.semi_axes)))
    return all(_retained_set(box, p, eps) == box_set for p in grid)


def empirical_threshold(box: AxisBox, tol: float = 1e-6, eps: float = DEFAULT_EPS) -> float:
    """Smallest p (within tol) at which the Lp point set already equals the
    box set, found by bisection; always at most the sufficient p0.

    Monotonicity makes the bracket sound: the Lp gauge of a fixed point is
    nonincreasing in p, so once a point is retained it stays retained.
    Each probe classifies only the binding corner (floor(alpha_i))_i, which
    dominates every box lattice point coordinate by coordinate, so the
    point sets agree exactly when the corner is retained.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if not 0 <= eps < math.inf:
        raise ValueError(f"eps must be nonnegative and finite, got {eps!r}")
    report = p_threshold(box)
    lo = 1.0
    if _invariant_at(box, lo, eps):
        return lo
    hi = report.p0
    if not _invariant_at(box, hi, eps):
        raise RuntimeError(
            "empirical_threshold: point set differs from the box set at p0, "
            "which the sufficient threshold rules out; this is a bug"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _invariant_at(box, mid, eps):
            hi = mid
        else:
            lo = mid
    return hi


def integer_alpha_exclusion_check(box: AxisBox, grid, eps: float = DEFAULT_EPS) -> bool:
    """True iff the Lp count is strictly below the box count at every finite
    p in the grid; applies to boxes with at least one integer semi-axis."""
    if all(a.denominator != 1 for a in box.semi_axes):
        raise ValueError(
            "integer_alpha_exclusion_check needs at least one integer semi-axis"
        )
    grid = list(grid)
    for p in grid:
        if not (1 <= p < math.inf):
            raise ValueError(f"grid values must be finite and >= 1, got {p}")
    box_count = count_points(AxisBox(box.semi_axes)).count
    return all(count_lp(box, p, eps).count < box_count for p in grid)
