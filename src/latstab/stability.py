"""Rotation stability of the floor-product bound for boxes.

How far can a box be rotated before an exterior lattice point can enter?
The answer is governed by two exact quantities: the isolation distance
(how far the nearest exterior lattice point sits from the box) and the
circumradius (how far any captured point can be from the origin).  Their
ratio is the stability radius: any rotation closer to the identity than
that, in Euclidean operator norm, cannot pull a new lattice point inside.

The module also provides the experimental side: Givens and random rotation
generators, the corner-exclusion check (a nontrivial rotation of an integer
box expels at least one corner), the basis-gauge check that keeps the bound's
right-hand side from shrinking, and a sweep driver that records verdicts
over a family of rotations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bodies import (
    DEFAULT_EPS,
    AxisBox,
    Containment,
    Rotation,
    RotatedBox,
    circumradius,
    contains,
    euclidean_opnorm,
    gauge,
)
from .bhw import VerdictStatus, verify

_IDENTITY_TOL = 1e-12
_BASIS_GAUGE_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class StabilityReport:
    delta: Fraction  # isolation distance, exact
    circumradius: float
    radius: float  # delta / circumradius


@dataclass(frozen=True, slots=True)
class SweepRecord:
    opnorm: float
    g: int
    rhs: int
    status: VerdictStatus
    corner_excluded: bool


def isolation_distance(box: AxisBox) -> Fraction:
    """Distance from the box to the nearest exterior lattice point,
    min_i (floor(alpha_i) + 1 - alpha_i), exact.

    The nearest exterior point exceeds the box in exactly one coordinate,
    at the first integer past the semi-axis; every other coordinate can sit
    at 0.  Always in (0, 1].
    """
    return min(math.floor(a) + 1 - a for a in box.semi_axes)


def stability_radius(box: AxisBox) -> StabilityReport:
    """Safe rotation budget: isolation distance over circumradius."""
    delta = isolation_distance(box)
    circ = circumradius(box)
    return StabilityReport(delta, circ, float(delta) / circ)


def givens_rotation(d: int, i: int, j: int, theta: float) -> Rotation:
    """Planar rotation by theta in coordinates (i, j), identity elsewhere.

    ||R - I|| = 2|sin(theta/2)|.  The returned Rotation carries its plane so
    downstream membership tests stay exact off-plane.
    """
    if not (0 <= i < j < d):
        raise ValueError(f"need 0 <= i < j < d, got i={i}, j={j}, d={d}")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    m = np.eye(d)
    c, s = math.cos(theta), math.sin(theta)
    m[i, i] = c
    m[j, j] = c
    m[i, j] = -s
    m[j, i] = s
    return Rotation(m, plane=(i, j), theta=float(theta))


def expm(skew) -> np.ndarray:
    """Matrix exponential of a real skew-symmetric matrix S.

    i*S is Hermitian, so eigh gives i*S = U diag(w) U^H with real w, and
    exp(S) = U diag(exp(-i w)) U^H, which is real up to rounding.
    """
    s = np.asarray(skew, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("expm needs a square matrix")
    if not np.isfinite(s).all() or np.any(s + s.T):
        raise ValueError("expm needs a finite skew-symmetric matrix")
    w, u = np.linalg.eigh(1j * s)
    return ((u * np.exp(-1j * w)) @ u.conj().T).real


def random_rotation(d: int, seed: int, max_opnorm: float) -> Rotation:
    """Deterministic random rotation with ||R - I|| uniform in (0, max_opnorm].

    Draws a random skew-symmetric generator, rescales its spectral norm to
    theta = 2*arcsin(t/2) for a uniform target t, and exponentiates; the
    exponential of a skew matrix is exactly orthogonal with det +1, and its
    distance to the identity is 2*sin(theta/2) = t.
    """
    if not (0.0 < max_opnorm <= 2.0):
        raise ValueError(f"max_opnorm must lie in (0, 2], got {max_opnorm}")
    if d == 1:
        return Rotation(np.eye(1))  # SO(1) is trivial
    rng = np.random.default_rng(seed)
    target = max_opnorm * (1.0 - rng.random())  # uniform in (0, max_opnorm]
    skew = rng.standard_normal((d, d))
    skew = skew - skew.T
    norm = euclidean_opnorm(skew)
    theta = 2.0 * math.asin(target / 2.0)
    return Rotation(expm(skew * (theta / norm)))


def corner_exclusion_check(box: AxisBox, rotation: Rotation, eps: float = DEFAULT_EPS) -> bool:
    """True iff a nontrivial rotation of an integer box expels at least one
    corner of the box from the rotated body.

    Requires every semi-axis to be an integer (the corners are lattice
    points only then) and a rotation distinguishable from the identity.
    """
    if any(a.denominator != 1 for a in box.semi_axes):
        raise ValueError("corner_exclusion_check needs integer semi-axes")
    if euclidean_opnorm(rotation.matrix - np.eye(rotation.dim)) <= _IDENTITY_TOL:
        raise ValueError("corner_exclusion_check needs a rotation distinct from the identity")
    body = RotatedBox(box, rotation)
    for signs in itertools.product((1, -1), repeat=box.dim):
        corner = tuple(s * int(a) for s, a in zip(signs, box.semi_axes))
        if contains(body, corner, eps) is Containment.OUTSIDE:
            return True
    return False


def basis_gauge_check(box: AxisBox, rotation: Rotation) -> bool:
    """True iff every standard basis vector has rotated-box gauge at most
    1/alpha_i (+1e-12): the condition under which no minimum can grow."""
    body = RotatedBox(box, rotation)
    for i in range(box.dim):
        e = tuple(1 if k == i else 0 for k in range(box.dim))
        if gauge(body, e) > 1.0 / box.float_axes[i] + _BASIS_GAUGE_TOL:
            return False
    return True


def rotation_sweep(
    box: AxisBox, rotations, eps: float = DEFAULT_EPS
) -> list[SweepRecord]:
    """One verdict per rotation, in input order.

    corner_excluded is filled in when the check applies (integer box,
    rotation distinct from the identity) and False otherwise.
    """
    integer_box = all(a.denominator == 1 for a in box.semi_axes)
    records = []
    for index, rotation in enumerate(rotations):
        try:
            opnorm = euclidean_opnorm(rotation.matrix - np.eye(rotation.dim))
            verdict = verify(RotatedBox(box, rotation), eps)
            excluded = False
            if integer_box and opnorm > _IDENTITY_TOL:
                excluded = corner_exclusion_check(box, rotation, eps)
        except (ValueError, RuntimeError) as exc:
            raise RuntimeError(f"rotation_sweep: rotation {index} failed: {exc}") from exc
        records.append(
            SweepRecord(opnorm, verdict.g, verdict.rhs, verdict.status, excluded)
        )
    return records
