"""Successive minima of a body with respect to the integer lattice.

lambda_i is the smallest dilation factor at which the body captures i
linearly independent lattice vectors.  The general solver enumerates the
bounding box of an r-dilate, sorts nonzero candidates by gauge, and greedily
keeps those that grow the rational rank of the witness set; the greedy
choice over a linear matroid is what makes each kept gauge value exactly
lambda_i.  Axis boxes get the exact closed form lambda_i = 1/alpha_(i)
(semi-axes sorted descending), which doubles as the solver's oracle.

Rank bookkeeping is fraction-free integer elimination on the integer
witnesses, so independence decisions are exact; gauge keys are exact
rationals wherever the body allows and floats elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bodies import AxisBox, LinearImage, Transform, box_gauge_opnorm
from .enumeration import _candidates

_DOUBLING_CAP = 20
_SANDWICH_SLACK = 1e-9


@dataclass(frozen=True, slots=True)
class MinimaResult:
    """Sorted minima with integer witness vectors achieving them.

    lambdas are exact Fractions on exact paths (axis boxes, p = inf balls,
    and gauges decided by the off-plane part of a planar rotation), floats
    otherwise.  Witnesses are linearly independent over the rationals.
    """

    lambdas: tuple
    witnesses: tuple[tuple[int, ...], ...]


def box_minima_closed_form(box: AxisBox) -> MinimaResult:
    """lambda_i = 1/alpha_(i) with semi-axes sorted descending; witnesses
    are the matching standard basis vectors.  Exact."""
    order = box.descending_order
    lambdas = tuple(Fraction(1) / box.semi_axes[k] for k in order)
    witnesses = tuple(
        tuple(1 if i == k else 0 for i in range(box.dim)) for k in order
    )
    return MinimaResult(lambdas, witnesses)


def _rank_extend(echelon: list[tuple[int, list[int]]], v: tuple[int, ...]) -> bool:
    """Fraction-free elimination of v against the kept rows; appends the
    reduced row and returns True iff v grows the rank."""
    w = list(v)
    for pivot, row in echelon:
        if w[pivot] != 0:
            a, b = row[pivot], w[pivot]
            w = [a * wc - b * rc for wc, rc in zip(w, row)]
    for pivot, c in enumerate(w):
        if c != 0:
            echelon.append((pivot, w))
            return True
    return False


def _is_canonical(z: tuple[int, ...]) -> bool:
    for c in z:
        if c != 0:
            return c > 0
    return False  # the zero vector is skipped


def _collect_minima(body, radius):
    """One enumeration pass at gauge radius ``radius``; returns a
    MinimaResult or None if the dilate did not yet contain d independent
    vectors."""
    candidates = []
    for z in _candidates(body, "successive_minima", radius):
        if not _is_canonical(z):
            continue
        key, lam = body._minima_key(z)
        candidates.append((key, z, lam))
    candidates.sort(key=lambda t: (t[0], t[1]))
    echelon: list[tuple[int, list[int]]] = []
    lambdas = []
    witnesses = []
    for _, z, lam in candidates:
        if _rank_extend(echelon, z):
            lambdas.append(lam)
            witnesses.append(z)
            if len(witnesses) == body.dim:
                break
    if len(witnesses) < body.dim or lambdas[-1] > radius:
        return None
    return MinimaResult(tuple(lambdas), tuple(witnesses))


def successive_minima(body) -> MinimaResult:
    """General solver for any supported body.

    Starts at the radius max_i ||e_i||_K, which always contains the d
    standard basis vectors, and doubles it if a pass comes back short
    (degenerate inputs only; the cap turns runaway growth into an error).
    """
    d = body.dim
    basis = (tuple(1 if k == i else 0 for k in range(d)) for i in range(d))
    radius = max(body._minima_key(e)[1] for e in basis)
    for _ in range(_DOUBLING_CAP):
        result = _collect_minima(body, radius)
        if result is not None:
            return result
        radius = 2 * radius
    raise RuntimeError(
        "successive_minima: radius doubling cap exceeded; the body is "
        "degenerate or the gauge is broken"
    )


@dataclass(frozen=True, slots=True)
class SandwichReport:
    """Per-index check of the two-sided continuity bounds
    lambda_i/(1 + eps) <= lambda_i(TK) <= (1 + eps_prime) lambda_i,
    where eps = ||T - I||_K and eps_prime = ||T^-1 - I||_K.

    The orientation follows the inclusions that prove the bounds:
    TK inside (1+eps)K pushes every minimum of TK above lambda_i/(1+eps),
    and K inside (1+eps_prime)TK caps it at (1+eps_prime)lambda_i.  Both
    are sharp for pure dilations (T = cI with c >= 1 makes the lower bound
    an equality)."""

    eps: float
    eps_prime: float
    base_lambdas: tuple
    image_lambdas: tuple
    lower_ok: tuple[bool, ...]
    upper_ok: tuple[bool, ...]

    @property
    def all_ok(self) -> bool:
        return all(self.lower_ok) and all(self.upper_ok)


def check_minima_sandwich(box: AxisBox, transform: Transform) -> SandwichReport:
    """Verify the continuity sandwich for the image TK of a box.

    eps and eps_prime are the exact box-gauge operator norms of T - I and
    T^-1 - I; the image minima come from the general solver on the
    composed gauge ||T^-1 x||_K.  Both inequalities are checked per index
    within a slack of 1e-9.
    """
    if box.dim != transform.dim:
        raise ValueError("dimension mismatch between box and transform")
    eye = np.eye(box.dim)
    eps = box_gauge_opnorm(box, transform.matrix - eye)
    eps_prime = box_gauge_opnorm(box, transform.inverse - eye)
    base = box_minima_closed_form(box)
    image = successive_minima(LinearImage(box, transform))
    lower_ok = []
    upper_ok = []
    for b, t in zip(base.lambdas, image.lambdas):
        b, t = float(b), float(t)
        lower_ok.append(t >= b / (1.0 + eps) - _SANDWICH_SLACK)
        upper_ok.append(t <= (1.0 + eps_prime) * b + _SANDWICH_SLACK)
    return SandwichReport(
        eps, eps_prime, base.lambdas, image.lambdas, tuple(lower_ok), tuple(upper_ok)
    )
