"""Convex body families and their gauge functions.

Three o-symmetric families are supported: axis-aligned boxes with exact
rational semi-axes, rotated boxes, and Lp-balls (p = inf recovers the box).
Every body is immutable and exposes its gauge function (the Minkowski
functional whose unit ball is the body), so membership, dilation and
operator-norm questions all reduce to gauge arithmetic.

Semi-axes are kept as `fractions.Fraction` throughout: the floor-sensitive
counting formulas downstream need exact comparisons, while rotation and
transform matrices are inherently floating point.  Each family splits its
gauge at a point into an exact part, decided without rounding whenever the
data allows (rational point, axis-aligned body, integer p, or the
coordinates a planar rotation leaves untouched), and a float part that
carries an explicit tolerance band; one rule on ``_Body`` turns the two
into every answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from numbers import Rational
from typing import Sequence, Union

import numpy as np

#: Default half-width of the boundary band used by three-valued membership.
DEFAULT_EPS = 1e-9

_ORTHOGONALITY_TOL = 1e-12
_INVERSE_TOL = 1e-10
_OPNORM_TOL = 1e-10
_OPNORM_MAX_ITER = 10000


class Containment(Enum):
    """Three-valued membership verdict for a point against a unit body."""

    INSIDE = "inside"
    OUTSIDE = "outside"
    AMBIGUOUS = "boundary-ambiguous"


def _validate_semi_axes(semi_axes) -> tuple[Fraction, ...]:
    axes = []
    for k, a in enumerate(semi_axes):
        if isinstance(a, float):
            raise TypeError(
                f"semi-axis {k} is a float; pass a Fraction, int, or decimal "
                f"string so the value stays exact"
            )
        axes.append(Fraction(a))
    if not axes:
        raise ValueError("a body needs at least one semi-axis")
    for k, a in enumerate(axes):
        if a <= 0:
            raise ValueError(f"semi-axis {k} must be positive, got {a}")
    return tuple(axes)


def _freeze_matrix(m, name: str) -> np.ndarray:
    out = np.array(m, dtype=float)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ValueError(f"{name} must be square")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} has NaN or infinite entries")
    out.setflags(write=False)
    return out


def _is_rational_vector(x) -> bool:
    return all(isinstance(c, Rational) for c in x)


def _box_gauge_exact(axes: tuple[Fraction, ...], x) -> Fraction:
    return max(abs(Fraction(c)) / a for c, a in zip(x, axes))


def _box_gauge_float(float_axes: tuple[float, ...], x) -> float:
    return float(max(abs(float(c)) / a for c, a in zip(x, float_axes)))


def _lp_gauge_float(float_axes: tuple[float, ...], p: float, x) -> float:
    ratios = [abs(float(c)) / a for c, a in zip(x, float_axes)]
    top = max(ratios)
    if top == 0.0:
        return 0.0
    # Factor out the largest ratio so (r/top)**p underflows harmlessly
    # instead of zeroing the whole sum at large p.
    acc = sum((r / top) ** p for r in ratios)
    return top * acc ** (1.0 / p)


def _band(g: float, eps: float) -> Containment:
    if g <= 1.0 - eps:
        return Containment.INSIDE
    if g >= 1.0 + eps:
        return Containment.OUTSIDE
    return Containment.AMBIGUOUS


class _Body:
    """The questions every body family answers.  The module-level
    functions check their arguments once and then ask the body.

    A family gives its gauge at x as ``_parts(x) -> (exact, approx)``: an
    exact Fraction decided without rounding and a float that carries the
    eps band, either of which may be None.  One rule turns the parts into
    answers: the gauge is the larger part (a float if there are two); x is
    OUTSIDE if the exact part exceeds 1, otherwise the float part's band
    decides (INSIDE if there is none); and the exact part is the minima key
    when it dominates.

    A family also gives ``_half_widths()`` (h with the body inside
    prod [-h_i, h_i], exact rationals where it allows) and ``_box`` (the
    AxisBox the body coincides with, or None).
    """

    _box = None

    def _gauge(self, x) -> Fraction | float:
        exact, approx = self._parts(x)
        if approx is None:
            return exact
        if exact is None:
            return approx
        return max(float(exact), approx)

    def _contains(self, x, eps: float) -> Containment:
        exact, approx = self._parts(x)
        if exact is not None and exact > 1:
            return Containment.OUTSIDE
        if approx is None:
            return Containment.INSIDE
        return _band(approx, eps)

    def _minima_key(self, z):
        """(sort key, lambda) of a lattice vector z for the minima solver;
        the key orders vectors by gauge."""
        exact, approx = self._parts(z)
        if exact is not None and (approx is None or exact >= approx):
            return exact, exact
        return approx, approx


class _Axes(_Body):
    """A body given by exact rational ``semi_axes``."""

    @property
    def dim(self) -> int:
        return len(self.semi_axes)

    @cached_property
    def float_axes(self) -> tuple[float, ...]:
        return tuple(float(a) for a in self.semi_axes)

    def _half_widths(self) -> tuple[Fraction, ...]:
        return self.semi_axes


@dataclass(frozen=True)
class AxisBox(_Axes):
    """Axis-aligned o-symmetric box {x : |x_i| <= alpha_i} with exact
    rational semi-axes."""

    semi_axes: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "semi_axes", _validate_semi_axes(self.semi_axes))

    @cached_property
    def descending_order(self) -> tuple[int, ...]:
        """Coordinate indices sorted by semi-axis, largest first (stable)."""
        return tuple(sorted(range(self.dim), key=lambda i: (-self.semi_axes[i], i)))

    @property
    def _box(self) -> AxisBox:
        return self

    def _parts(self, x) -> tuple[Fraction | None, float | None]:
        if _is_rational_vector(x):
            return _box_gauge_exact(self.semi_axes, x), None
        return None, _box_gauge_float(self.float_axes, x)


@dataclass(frozen=True, eq=False)
class Rotation:
    """Proper rotation: orthogonal to within 1e-12 and det > 0.

    ``plane``/``theta`` are populated when the matrix was built as a planar
    (Givens) rotation.  They record that every coordinate outside the plane
    is passed through exactly, which lets lattice-point membership in the
    rotated box be decided without any floating-point slack there.
    """

    matrix: np.ndarray
    plane: tuple[int, int] | None = None
    theta: float | None = None

    def __post_init__(self):
        m = _freeze_matrix(self.matrix, "rotation matrix")
        d = m.shape[0]
        err = float(np.max(np.abs(m.T @ m - np.eye(d))))
        if not err <= _ORTHOGONALITY_TOL:
            raise ValueError(
                f"matrix is not orthogonal: max |R^T R - I| = {err:.3e} "
                f"> {_ORTHOGONALITY_TOL:.1e}"
            )
        if np.linalg.det(m) <= 0:
            raise ValueError("matrix must have positive determinant")
        object.__setattr__(self, "matrix", m)
        if self.plane is not None:
            i, j = self.plane
            if not (0 <= i < j < d):
                raise ValueError(f"plane indices must satisfy 0 <= i < j < d, got ({i}, {j})")
            # the plane tag licenses exact arithmetic on the remaining
            # coordinates, so the matrix must really be planar
            expected = np.eye(d)
            block = np.ix_((i, j), (i, j))
            expected[block] = m[block]
            if not np.array_equal(m, expected) or m[i, i] != m[j, j] or m[i, j] != -m[j, i]:
                raise ValueError("matrix is not a planar rotation in the declared plane")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Transform:
    """Invertible linear map with a certified inverse."""

    matrix: np.ndarray
    inverse: np.ndarray | None = None

    def __post_init__(self):
        m = _freeze_matrix(self.matrix, "transform matrix")
        if self.inverse is None:
            try:
                inv = np.linalg.inv(m)
            except np.linalg.LinAlgError as exc:
                raise ValueError("matrix is not invertible") from exc
        else:
            inv = np.array(self.inverse, dtype=float)
        inv.setflags(write=False)
        err = float(np.max(np.abs(m @ inv - np.eye(m.shape[0]))))
        if not err <= _INVERSE_TOL:
            raise ValueError(
                f"inverse check failed: max |T T^-1 - I| = {err:.3e} > {_INVERSE_TOL:.1e}"
            )
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "inverse", inv)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class _BoxImage(_Body):
    """Image T*K of the axis box K = ``base``, where a subclass gives T as
    ``_matrix`` and T^-1 as ``_inverse``.  In floats, the gauge is the box
    gauge of T^-1 x and the half-widths are the support function at each
    +-e_i, |T| alpha."""

    @property
    def dim(self) -> int:
        return self.base.dim

    def _parts(self, x) -> tuple[None, float]:
        y = self._inverse @ np.asarray(x, dtype=float)
        return None, _box_gauge_float(self.base.float_axes, y)

    def _half_widths(self) -> tuple[float, ...]:
        af = np.array(self.base.float_axes)
        return tuple(float(v) for v in np.abs(self._matrix) @ af)


@dataclass(frozen=True, eq=False)
class RotatedBox(_BoxImage):
    """Image R*K of an axis box under a proper rotation."""

    base: AxisBox
    rotation: Rotation

    _matrix = property(lambda self: self.rotation.matrix)
    _inverse = property(lambda self: self.rotation.matrix.T)

    def __post_init__(self):
        if self.base.dim != self.rotation.dim:
            raise ValueError(
                f"dimension mismatch: box is {self.base.dim}-dimensional, "
                f"rotation is {self.rotation.dim}-dimensional"
            )

    def _parts(self, x) -> tuple[Fraction | None, float]:
        """For a planar rotation and a rational point, the coordinates
        outside the rotation plane give an exact rational maximum and the
        two in-plane coordinates a float.  For anything else the exact part
        is None and the float part is the whole gauge."""
        rot = self.rotation
        if rot.plane is None or not _is_rational_vector(x):
            return super()._parts(x)
        i, j = rot.plane
        c = float(rot.matrix[i, i])
        s = float(rot.matrix[j, i])
        xi, xj = float(x[i]), float(x[j])
        fa = self.base.float_axes
        in_plane = max(abs(c * xi + s * xj) / fa[i], abs(-s * xi + c * xj) / fa[j])
        axes = self.base.semi_axes
        rest = [abs(Fraction(x[k])) / axes[k] for k in range(self.dim) if k != i and k != j]
        return (max(rest) if rest else None), in_plane


@dataclass(frozen=True)
class LpBall(_Axes):
    """Anisotropic Lp-ball {x : sum |x_i/alpha_i|^p <= 1}, 1 <= p <= inf.

    p = math.inf is the exact encoding of the limiting box, never a large
    finite stand-in; at p = inf the ball delegates every question to the
    AxisBox of the same semi-axes and inherits its exact-arithmetic paths.
    For an integer p and a rational point, the exact part is the power sum
    sum |x_i/alpha_i|^p: it lies on the same side of 1 as the gauge, but it
    is not the gauge, so ``_gauge`` and ``_minima_key`` are the ball's own.
    """

    p: float
    semi_axes: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "semi_axes", _validate_semi_axes(self.semi_axes))
        p = self.p
        if isinstance(p, Rational):
            p = float(p)
        if not isinstance(p, (int, float)) or math.isnan(p) or p < 1:
            raise ValueError(f"p must be a real >= 1 or inf, got {self.p!r}")
        p = float(p)
        object.__setattr__(self, "p", p)
        # set once here, as membership asks for both on every call:
        # int_exponent is p as an exact integer exponent when it is one
        # (enables exact rational membership), None for p = inf or fractional p
        k = None if p == math.inf or not p.is_integer() else int(p)
        object.__setattr__(self, "int_exponent", k)
        object.__setattr__(self, "_box", self.as_axis_box() if p == math.inf else None)

    @property
    def is_box(self) -> bool:
        return self.p == math.inf

    def as_axis_box(self) -> AxisBox:
        return AxisBox(self.semi_axes)

    def _power_sum(self, x) -> Fraction:
        """sum |x_i/alpha_i|^p as an exact rational; requires integer p and
        rational x."""
        k = self.int_exponent
        return sum((abs(Fraction(c)) / a) ** k for c, a in zip(x, self.semi_axes))

    def _gauge(self, x) -> Fraction | float:
        if self._box is not None:
            return self._box._gauge(x)
        return _lp_gauge_float(self.float_axes, self.p, x)

    def _parts(self, x) -> tuple[Fraction | None, float | None]:
        if self._box is not None:
            return self._box._parts(x)
        if self.int_exponent is not None and _is_rational_vector(x):
            return self._power_sum(x), None
        return None, _lp_gauge_float(self.float_axes, self.p, x)

    def _minima_key(self, z):
        if self.int_exponent is None:
            return super()._minima_key(z)
        # The exact power sum is monotone in the gauge, so it orders the
        # candidates exactly; lambda is its float p-th root.
        s = self._power_sum(z)
        return s, math.exp((math.log(s.numerator) - math.log(s.denominator)) / self.p)


@dataclass(frozen=True, eq=False)
class LinearImage(_BoxImage):
    """Image T*K of an axis box under an invertible map.

    Internal support type for the successive-minima continuity checker; not
    part of the public body grammar and not exposed on the CLI."""

    base: AxisBox
    transform: Transform

    _matrix = property(lambda self: self.transform.matrix)
    _inverse = property(lambda self: self.transform.inverse)

    def __post_init__(self):
        if self.base.dim != self.transform.dim:
            raise ValueError("dimension mismatch between box and transform")


Body = Union[AxisBox, RotatedBox, LpBall]


def _check_dim(body_dim: int, x: Sequence) -> None:
    if len(x) != body_dim:
        raise ValueError(
            f"dimension mismatch: body is {body_dim}-dimensional, "
            f"point has {len(x)} coordinates"
        )


def _supported(body) -> _Body:
    if not isinstance(body, _Body):
        raise TypeError(f"unsupported body type: {type(body).__name__}")
    return body


def gauge(body, x) -> Fraction | float:
    """Gauge function ||x||_K: homogeneous of degree 1, zero iff x = 0.

    Returns an exact Fraction for an axis box (or an Lp-ball at p = inf)
    evaluated at a rational point, a float otherwise.
    """
    _check_dim(_supported(body).dim, x)
    return body._gauge(x)


def contains(body, x, eps: float = DEFAULT_EPS) -> Containment:
    """Three-valued membership of x in the closed body.

    Exact paths (axis box at a rational point, integer-exponent Lp-ball at
    a rational point, and the off-plane coordinates of a planar rotation)
    compare against 1 exactly and never return AMBIGUOUS on their own;
    float paths report AMBIGUOUS inside the eps band around the boundary.
    """
    if not 0 <= eps < math.inf:
        raise ValueError(f"eps must be nonnegative and finite, got {eps!r}")
    _check_dim(_supported(body).dim, x)
    return body._contains(x, eps)


def circumradius(body) -> float:
    """Radius of the smallest origin-centered ball containing the body:
    sqrt(sum alpha_i^2). Rotation-invariant; Lp-balls are rejected."""
    if isinstance(body, RotatedBox):
        return circumradius(body.base)
    if isinstance(body, AxisBox):
        return math.sqrt(float(sum(a * a for a in body.semi_axes)))
    raise ValueError(
        f"circumradius is only provided for box bodies, not {type(body).__name__}"
    )


def box_gauge_opnorm(box: AxisBox, a) -> float:
    """Operator norm of a matrix in the box gauge.

    The gauge unit ball is the box itself, and |(Ax)_i| is maximised over
    it by the signed vertex x_j = alpha_j * sign(A_ij), which yields the
    closed form max_i sum_j |A_ij| alpha_j / alpha_i.
    """
    m = np.asarray(a, dtype=float)
    if m.shape != (box.dim, box.dim):
        raise ValueError(
            f"matrix shape {m.shape} does not match box dimension {box.dim}"
        )
    af = np.array(box.float_axes)
    return float(np.max((np.abs(m) @ af) / af))


def euclidean_opnorm(a) -> float:
    """Largest singular value, iterated to relative tolerance 1e-10.

    Power iteration on B = A^T A, preceded by a normalised
    repeated-squaring phase: squaring B sixty times raises the eigenvalue
    ratio to the 2^60-th power, so the iterate lands in the top eigenspace
    even when the spectral gap is far too small for plain power steps.
    The refinement loop stops on the Rayleigh-quotient residual, which for
    a symmetric matrix bounds the eigenvalue error directly.  Raises
    RuntimeError if the residual never stabilises within 10000 steps,
    which signals pathological input.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.any(m):
        return 0.0
    b = m.T @ m
    n = m.shape[0]
    c = b / np.linalg.norm(b)
    for _ in range(60):
        c = c @ c
        c = c / np.linalg.norm(c)
    starts = [1.0 / (1.0 + np.arange(n)), np.ones(n), np.eye(n)[int(np.argmax(np.diag(c)))]]
    v = None
    for start in starts:
        w = c @ start
        norm = np.linalg.norm(w)
        if norm > 1e-12:
            v = w / norm
            break
    if v is None:
        v = starts[0] / np.linalg.norm(starts[0])
    for _ in range(_OPNORM_MAX_ITER):
        w = b @ v
        lam = float(v @ w)
        if lam <= 0.0:
            return 0.0
        residual = float(np.linalg.norm(w - lam * v))
        if residual <= _OPNORM_TOL * lam:
            return math.sqrt(lam)
        v = w / np.linalg.norm(w)
    raise RuntimeError(
        f"euclidean_opnorm: power iteration did not converge in {_OPNORM_MAX_ITER} steps"
    )
