"""Counting and listing integer lattice points inside a body.

The workhorse is a deliberately simple brute force: iterate every integer
point of the axis-aligned bounding box in lexicographic order and classify
it with the three-valued membership test.  Boxes additionally get the exact
closed-form count prod(2*floor(alpha_i) + 1), which the brute force doubles
as an oracle for.  Points falling in the boundary band are reported, never
counted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from numbers import Rational

from .bodies import DEFAULT_EPS, AxisBox, Containment, _supported, contains

#: Brute-force dimension cap; beyond this the iteration space explodes.
MAX_DIM = 8
#: Refuse candidate spaces larger than this before starting.
MAX_CANDIDATES = 10**7

_FLOAT_SLACK = 1e-9


@dataclass(frozen=True, slots=True)
class CountResult:
    count: int
    ambiguous: int
    method: str  # "closed-form" or "brute-force"


def bounding_half_widths(body) -> tuple:
    """Half-widths h with body contained in prod [-h_i, h_i].

    Boxes and Lp-balls return their exact rational semi-axes; rotated and
    transformed boxes return the support function of the image at each
    +-e_i, sum_j |M_ij| alpha_j, as floats.
    """
    return _supported(body)._half_widths()


def _candidates(body, op: str, radius=1):
    """Lattice points of the bounding box of the ``radius``-dilate, in
    lexicographic order; its half-widths are floored exactly when both
    factors are rational.  The caps are checked here, before the first
    candidate is produced."""
    limits = []
    for h in bounding_half_widths(body):
        if isinstance(h, Rational) and isinstance(radius, Rational):
            limits.append(math.floor(radius * h))
        else:
            limits.append(math.floor(float(radius) * float(h) + _FLOAT_SLACK))
    if body.dim > MAX_DIM:
        raise ValueError(f"{op}: dimension {body.dim} exceeds the cap of {MAX_DIM}")
    total = math.prod(2 * l + 1 for l in limits)
    if total > MAX_CANDIDATES:
        raise ValueError(
            f"{op}: iteration space of {total} candidates exceeds {MAX_CANDIDATES}"
        )
    return itertools.product(*(range(-l, l + 1) for l in limits))


def classify_lattice_points(
    body, eps: float = DEFAULT_EPS
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Split candidate lattice points into (inside, boundary-ambiguous)
    lists, both in lexicographic order."""
    inside: list[tuple[int, ...]] = []
    ambiguous: list[tuple[int, ...]] = []
    for z in _candidates(body, "classify_lattice_points"):
        c = contains(body, z, eps)
        if c is Containment.INSIDE:
            inside.append(z)
        elif c is Containment.AMBIGUOUS:
            ambiguous.append(z)
    return inside, ambiguous


def count_lattice_points(body, eps: float = DEFAULT_EPS) -> CountResult:
    """Brute-force lattice point count; deterministic."""
    inside, ambiguous = classify_lattice_points(body, eps)
    return CountResult(len(inside), len(ambiguous), "brute-force")


def list_lattice_points(body, eps: float = DEFAULT_EPS) -> list[tuple[int, ...]]:
    """The inside lattice points, sorted lexicographically."""
    return classify_lattice_points(body, eps)[0]


def count_box_closed_form(box: AxisBox) -> int:
    """Exact count prod(2*floor(alpha_i) + 1) for an axis box."""
    return math.prod(2 * math.floor(a) + 1 for a in box.semi_axes)


def count_points(body, eps: float = DEFAULT_EPS) -> CountResult:
    """Count with the closed form where one exists (axis boxes, Lp-balls at
    p = inf), brute force otherwise."""
    box = _supported(body)._box
    if box is not None:
        return CountResult(count_box_closed_form(box), 0, "closed-form")
    return count_lattice_points(body, eps)
