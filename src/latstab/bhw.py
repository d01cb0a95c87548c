"""Verdicts for the Betke-Henk-Wills floor-product bound.

For a body K the bound compares the lattice point count G against
RHS = prod_i floor(2/lambda_i + 1).  Both sides jump at boundaries, so the
verdict machinery is built around one rule: a violation claim must survive
exact arithmetic.  Floors of floats are snapped to the nearest integer
inside the eps band and flagged; any snap, or any boundary-ambiguous
lattice point, demotes the verdict to boundary-ambiguous rather than
letting roundoff pick a side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Rational

from .bodies import DEFAULT_EPS, Body, LpBall
from .enumeration import classify_lattice_points, count_box_closed_form
from .minima import box_minima_closed_form, successive_minima


class VerdictStatus(Enum):
    TIGHT = "tight"
    STRICT = "strict"
    VIOLATION = "violation"
    AMBIGUOUS = "boundary-ambiguous"


@dataclass(frozen=True, slots=True)
class Verdict:
    g: int
    rhs: int
    lambdas: tuple
    status: VerdictStatus
    ambiguous_points: int = 0
    snapped: bool = False
    note: str | None = None


def floor_safe(x, eps: float = DEFAULT_EPS) -> tuple[int, bool]:
    """Floor with boundary snapping on the float path.

    Exact rationals floor exactly and never snap.  A float within eps of an
    integer is rounded to it and flagged, since its floor is not trustworthy.
    """
    if isinstance(x, Rational):
        if x < 0:
            raise ValueError(f"floor_safe expects x >= 0, got {x}")
        return math.floor(x), False
    x = float(x)
    if x < 0:
        raise ValueError(f"floor_safe expects x >= 0, got {x}")
    nearest = round(x)
    if abs(x - nearest) <= eps:
        return int(nearest), True
    return math.floor(x), False


def rhs_functional(lambdas, eps: float = DEFAULT_EPS) -> tuple[int, bool]:
    """prod_i floor(2/lambda_i + 1); the snapped flag propagates from any
    factor that needed snapping."""
    product = 1
    snapped = False
    for lam in lambdas:
        if lam <= 0:
            raise ValueError(f"rhs_functional expects positive minima, got {lam}")
        if isinstance(lam, Rational):
            factor, s = floor_safe(Fraction(2) / lam + 1, eps)
        else:
            factor, s = floor_safe(2.0 / float(lam) + 1.0, eps)
        product *= factor
        snapped = snapped or s
    return product, snapped


def floor_inequality_check(x) -> bool:
    """2*floor(x) + 1 <= floor(2x + 1) for x >= 0; the elementary fact that
    makes the bound hold with room on every box."""
    if x < 0:
        raise ValueError(f"floor_inequality_check expects x >= 0, got {x}")
    return 2 * math.floor(x) + 1 <= math.floor(2 * x + 1)


def _exact_lp_rhs_factor(power_sum: Fraction, p: int) -> int:
    """floor(2/lambda + 1) for lambda = power_sum**(1/p), exactly.

    The factor is the largest integer k with ((k-1)/2)^p * power_sum <= 1,
    which only needs rational arithmetic.
    """
    k = 1
    while (Fraction(k, 2) ** p) * power_sum <= 1:
        k += 1
    return k


def _status(g: int, rhs: int, ambiguous: int, snapped: bool, exact: bool):
    if not exact and (ambiguous > 0 or snapped):
        return VerdictStatus.AMBIGUOUS, None
    if g < rhs:
        return VerdictStatus.STRICT, None
    if g == rhs:
        return VerdictStatus.TIGHT, None
    if exact:
        return VerdictStatus.VIOLATION, None
    # A float-path count exceeding the bound is overwhelmingly a floor
    # boundary artifact; without an exact recheck it must not be reported.
    return VerdictStatus.AMBIGUOUS, (
        "floating-path count exceeded the bound but no exact recheck is "
        "available for this body; treat as boundary contact, not a violation"
    )


def verify(body, eps: float = DEFAULT_EPS) -> Verdict:
    """Full verdict for a supported body.

    Axis boxes (and p = inf balls) use the exact closed forms on both
    sides.  Integer-exponent Lp-balls keep the whole pipeline exact via
    rational power sums.  Everything else runs on floats with the snapping
    and ambiguity demotions described in the module docstring.
    """
    if not isinstance(body, Body):
        raise ValueError(f"unsupported body type: {type(body).__name__}")
    box = body._box
    if box is not None:
        g, ambiguous = count_box_closed_form(box), 0
        minima = box_minima_closed_form(box)
    else:
        inside, ambiguous_points = classify_lattice_points(body, eps)
        g, ambiguous = len(inside), len(ambiguous_points)
        minima = successive_minima(body)
    p = body.int_exponent if isinstance(body, LpBall) else None
    if p is not None:
        # each witness's minima key is its exact power sum
        rhs, snapped = 1, False
        for w in minima.witnesses:
            rhs *= _exact_lp_rhs_factor(body._minima_key(w)[0], p)
    else:
        rhs, snapped = rhs_functional(minima.lambdas, eps)
    exact = box is not None or p is not None
    status, note = _status(g, rhs, ambiguous, snapped, exact)
    return Verdict(g, rhs, minima.lambdas, status, ambiguous, snapped, note)
