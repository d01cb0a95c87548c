import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latstab as ls
from latstab import bodies
from latstab.bodies import Containment


def box(*alphas):
    return ls.AxisBox([Fraction(a) for a in alphas])


@st.composite
def boxes(draw, max_dim=4):
    d = draw(st.integers(1, max_dim))
    return box(*[Fraction(draw(st.integers(1, 40)), 10) for _ in range(d)])


@st.composite
def box_and_vector(draw, rational=False, max_dim=4):
    b = draw(boxes(max_dim))
    if rational:
        v = tuple(
            Fraction(draw(st.integers(-60, 60)), draw(st.integers(1, 9)))
            for _ in range(b.dim)
        )
    else:
        v = tuple(
            draw(st.floats(-10, 10, allow_nan=False, allow_infinity=False))
            for _ in range(b.dim)
        )
    return b, v


# ---------------------------------------------------------------- gauge

def test_box_gauge_corner_on_boundary():
    g = ls.gauge(box("2", "1"), (2, 1))
    assert g == 1
    assert isinstance(g, Fraction)


def test_box_gauge_origin():
    assert ls.gauge(box("2", "1"), (0, 0)) == 0


def test_lp_gauge_matches_power_sum_oracle():
    ball = ls.LpBall(2, (Fraction(3, 2), Fraction(3, 2)))
    # oracle: scalar sum of squared ratios, then the root
    oracle = math.sqrt((1 / 1.5) ** 2 + (1 / 1.5) ** 2)
    g = ls.gauge(ball, (1, 1))
    assert g == pytest.approx(oracle, abs=1e-15)
    assert g == pytest.approx(0.9428090415820634, abs=1e-12)


def test_lp_gauge_inf_equals_box_gauge():
    ball = ls.LpBall(math.inf, (Fraction(3, 2), Fraction(1, 2)))
    assert ls.gauge(ball, (1, 1)) == ls.gauge(box("1.5", "0.5"), (1, 1)) == 2


def test_gauge_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        ls.gauge(box("1", "1"), (1, 2, 3))


def test_large_p_gauge_does_not_underflow():
    ball = ls.LpBall(900.0, (Fraction(3, 2), Fraction(3, 2)))
    g = ls.gauge(ball, (1, 1))
    # both ratios are 2/3; the max-normalised sum is 2, so g = (2/3)*2^(1/900)
    assert g == pytest.approx((2 / 3) * 2 ** (1 / 900), rel=1e-12)
    assert g > 2 / 3


@settings(max_examples=200, deadline=None)
@given(box_and_vector(rational=True), st.integers(0, 20))
def test_gauge_homogeneity_exact(bv, t):
    b, v = bv
    assert ls.gauge(b, tuple(t * c for c in v)) == t * ls.gauge(b, v)


@settings(max_examples=200, deadline=None)
@given(box_and_vector(), box_and_vector())
def test_gauge_triangle_inequality(bv1, bv2):
    b, x = bv1
    _, y0 = bv2
    y = tuple(y0[i % len(y0)] for i in range(b.dim))
    s = tuple(a + c for a, c in zip(x, y))
    assert ls.gauge(b, s) <= ls.gauge(b, x) + ls.gauge(b, y) + 1e-9


@settings(max_examples=200, deadline=None)
@given(box_and_vector(rational=True))
def test_gauge_symmetry_exact_on_boxes(bv):
    b, v = bv
    assert ls.gauge(b, tuple(-c for c in v)) == ls.gauge(b, v)


@settings(max_examples=100, deadline=None)
@given(boxes(max_dim=3), st.integers(0, 10**6), st.floats(0.01, 1.9))
def test_gauge_symmetry_rotated(b, seed, max_opnorm):
    body = ls.RotatedBox(b, ls.random_rotation(b.dim, seed, max_opnorm))
    v = tuple(range(1, b.dim + 1))
    neg = tuple(-c for c in v)
    assert ls.gauge(body, neg) == pytest.approx(ls.gauge(body, v), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(boxes(max_dim=3), st.integers(0, 10**6))
def test_rotated_gauge_agrees_with_base_at_rotated_point(b, seed):
    rot = ls.random_rotation(b.dim, seed, 1.0)
    body = ls.RotatedBox(b, rot)
    x = tuple(range(1, b.dim + 1))
    rx = rot.matrix @ np.array(x, dtype=float)
    assert ls.gauge(body, tuple(rx)) == pytest.approx(float(ls.gauge(b, x)), abs=1e-10)


@settings(max_examples=150, deadline=None)
@given(box_and_vector(rational=True), st.floats(1.0, 40.0), st.floats(0.0, 40.0))
def test_lp_gauge_nonincreasing_in_p(bv, p, dp):
    b, v = bv
    lo = ls.LpBall(p, b.semi_axes)
    hi = ls.LpBall(p + dp, b.semi_axes)
    assert ls.gauge(hi, v) <= ls.gauge(lo, v) + 1e-9


# ------------------------------------------------------------- contains

def test_box_contains_corner_exactly():
    assert ls.contains(box("1", "1"), (1, 1)) is Containment.INSIDE


def test_rotated_box_excludes_corner():
    body = ls.RotatedBox(box("1", "1"), ls.givens_rotation(2, 0, 1, 0.1))
    # oracle: evaluate R^T x numerically
    r = ls.givens_rotation(2, 0, 1, 0.1).matrix
    y = r.T @ np.array([1.0, 1.0])
    assert max(abs(y)) == pytest.approx(math.cos(0.1) + math.sin(0.1), abs=1e-15)
    assert max(abs(y)) > 1
    assert ls.contains(body, (1, 1)) is Containment.OUTSIDE


def test_lp_ball_contains_corner():
    ball = ls.LpBall(2, (Fraction(3, 2), Fraction(3, 2)))
    assert ls.contains(ball, (1, 1)) is Containment.INSIDE


def test_box_rational_membership_never_ambiguous_on_boundary():
    b = box("1", "1")
    assert ls.contains(b, (Fraction(1), Fraction(1)), eps=0.5) is Containment.INSIDE
    assert ls.contains(b, (Fraction(101, 100), 0), eps=0.5) is Containment.OUTSIDE


def test_float_membership_uses_boundary_band():
    b = box("1", "1")
    assert ls.contains(b, (1.0 + 1e-12, 0.0)) is Containment.AMBIGUOUS
    assert ls.contains(b, (1.1, 0.0)) is Containment.OUTSIDE
    assert ls.contains(b, (0.9, 0.0)) is Containment.INSIDE


_EXACT_KINDS = ("axis", "lp-inf", "lp-int")


@st.composite
def any_body(draw):
    """(kind, body) over every construction of a body."""
    kind = draw(st.sampled_from(
        _EXACT_KINDS + ("lp-frac", "givens", "rotated", "linear-image")
    ))
    b = box(*[Fraction(n, 10) for n in draw(st.lists(st.integers(1, 40), min_size=2, max_size=3))])
    d = b.dim
    if kind == "axis":
        return kind, b
    if kind == "lp-inf":
        return kind, ls.LpBall(math.inf, b.semi_axes)
    if kind == "lp-int":
        return kind, ls.LpBall(draw(st.integers(1, 4)), b.semi_axes)
    if kind == "lp-frac":
        return kind, ls.LpBall(draw(st.floats(1.0, 8.0).filter(lambda p: p % 1)), b.semi_axes)
    if kind == "givens":
        i, j = sorted(draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True)))
        return kind, ls.RotatedBox(b, ls.givens_rotation(d, i, j, draw(st.floats(-3.2, 3.2))))
    if kind == "rotated":
        rot = ls.random_rotation(d, draw(st.integers(0, 10**6)), draw(st.floats(0.01, 2.0)))
        return kind, ls.RotatedBox(b, rot)
    shift = draw(st.lists(st.floats(-0.3, 0.3), min_size=d * d, max_size=d * d))
    return kind, bodies.LinearImage(b, ls.Transform(np.eye(d) + np.reshape(shift, (d, d))))


@settings(max_examples=300, deadline=None)
@given(any_body(), st.data())
def test_membership_follows_gauge_on_every_family(kb, data):
    # one rule turns every family's gauge parts into answers
    kind, body = kb
    reach = [math.floor(float(h)) + 2 for h in body._half_widths()]
    z = tuple(data.draw(st.integers(-r, r)) for r in reach)
    den = data.draw(st.integers(1, 7))
    x = tuple(Fraction(data.draw(st.integers(-r * den, r * den)), den) for r in reach)
    for point in (z, x):
        g = ls.gauge(body, point)
        for eps in (0.0, 1e-9, 1e-3):
            c = ls.contains(body, point, eps)
            if kind in _EXACT_KINDS:
                assert c is not Containment.AMBIGUOUS
                if kind == "lp-int":
                    s = sum((abs(Fraction(v)) / a) ** int(body.p)
                            for v, a in zip(point, body.semi_axes))
                    assert (c is Containment.INSIDE) == (s <= 1)
                else:
                    assert (c is Containment.INSIDE) == (g <= 1)
            if abs(float(g) - 1.0) > eps + 1e-12:
                assert c is bodies._band(float(g), eps)
    if any(z):
        lam = float(body._minima_key(z)[1])
        if kind == "lp-int":
            assert lam == pytest.approx(float(ls.gauge(body, z)), rel=1e-12)
        else:
            assert lam == float(ls.gauge(body, z))


def test_float_gauge_of_exactly_one_is_inside_at_zero_eps():
    # a float part of exactly 1.0 is on the closed body's boundary: at
    # eps = 0 the band puts it inside, for every family with a float part
    unit = box("1", "1", "1")
    same = [
        ls.RotatedBox(unit, ls.givens_rotation(3, 0, 1, 0.0)),
        ls.RotatedBox(unit, ls.Rotation(np.eye(3))),
        bodies.LinearImage(unit, ls.Transform(np.eye(3))),
    ]
    for body in same:
        for x in ((1, 0, 0), (1, 1, 1), (1.0, 0.0, 0.0)):
            assert ls.contains(body, x, eps=0.0) is Containment.INSIDE
            assert ls.contains(body, x) is Containment.AMBIGUOUS
    result = ls.count_lattice_points(same[0], eps=0.0)
    assert (result.count, result.ambiguous) == (27, 0)


def test_contains_rejects_negative_eps():
    for eps in (-1, math.nan, math.inf):
        with pytest.raises(ValueError, match="eps"):
            ls.contains(box("1"), (0,), eps=eps)


# ---------------------------------------------------------- circumradius

def test_circumradius_formula():
    assert ls.circumradius(box("2.3", "1.7")) == pytest.approx(
        math.sqrt(8.18), abs=1e-15
    )
    assert ls.circumradius(box("2.3", "1.7")) == pytest.approx(2.8600699292150185)


def test_circumradius_unit_cube_d4():
    assert ls.circumradius(box("0.5", "0.5", "0.5", "0.5")) == 1.0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_circumradius_rotation_invariant(seed):
    b = box("2.3", "1.7")
    body = ls.RotatedBox(b, ls.random_rotation(2, seed, 2.0))
    assert ls.circumradius(body) == ls.circumradius(b)


def test_circumradius_rejects_lp_ball():
    with pytest.raises(ValueError):
        ls.circumradius(ls.LpBall(2, (Fraction(1),)))


# ------------------------------------------------------ box gauge opnorm

def test_box_gauge_opnorm_identity():
    assert ls.box_gauge_opnorm(box("2", "1"), np.eye(2)) == 1.0


def test_box_gauge_opnorm_scalar_dilation():
    a = 1.1 * np.eye(2) - np.eye(2)
    assert ls.box_gauge_opnorm(box("2", "1"), a) == pytest.approx(0.1, abs=1e-15)


def test_box_gauge_opnorm_off_diagonal():
    a = np.array([[0.0, 0.1], [0.0, 0.0]])
    b = box("2", "1")
    norm = ls.box_gauge_opnorm(b, a)
    assert norm == pytest.approx(0.05, abs=1e-15)
    # oracle: maximise the gauge ratio over sampled boundary points
    rng = np.random.default_rng(0)
    n = 100_000
    pts = rng.uniform(-1.0, 1.0, size=(n, 2)) * np.array([2.0, 1.0])
    pin = rng.integers(0, 2, size=n)
    sign = rng.choice([-1.0, 1.0], size=n)
    pts[np.arange(n), pin] = sign * np.array([2.0, 1.0])[pin]
    gauges_x = np.max(np.abs(pts) / [2.0, 1.0], axis=1)
    gauges_ax = np.max(np.abs(pts @ a.T) / [2.0, 1.0], axis=1)
    sampled = float(np.max(gauges_ax / gauges_x))
    assert sampled <= norm + 1e-12
    assert norm - sampled < 1e-3


@settings(max_examples=150, deadline=None)
@given(boxes(max_dim=4), st.data())
def test_box_gauge_opnorm_dominates_and_vertex_attains(b, data):
    d = b.dim
    a = np.array(
        [[data.draw(st.floats(-2, 2, allow_nan=False)) for _ in range(d)] for _ in range(d)]
    )
    norm = ls.box_gauge_opnorm(b, a)
    x = tuple(
        data.draw(st.floats(-5, 5, allow_nan=False).filter(lambda v: abs(v) > 1e-3))
        for _ in range(d)
    )
    gx = ls.gauge(b, x)
    gax = ls.gauge(b, tuple(a @ np.array(x)))
    assert gax <= norm * gx + 1e-9
    # equality witness: the signed vertex of the argmax row
    af = np.array(b.float_axes)
    row = int(np.argmax((np.abs(a) @ af) / af))
    vertex = tuple(
        af[j] * (1.0 if a[row, j] >= 0 else -1.0) for j in range(d)
    )
    ratio = ls.gauge(b, tuple(a @ np.array(vertex))) / ls.gauge(b, vertex)
    assert ratio == pytest.approx(norm, abs=1e-9)


# ------------------------------------------------------ euclidean opnorm

def test_euclidean_opnorm_zero():
    assert ls.euclidean_opnorm(np.zeros((3, 3))) == 0.0


def test_euclidean_opnorm_givens_closed_form():
    theta = 0.1
    a = ls.givens_rotation(2, 0, 1, theta).matrix - np.eye(2)
    norm = ls.euclidean_opnorm(a)
    assert norm == pytest.approx(2 * math.sin(theta / 2), abs=1e-12)
    # oracle: dense SVD
    assert norm == pytest.approx(float(np.linalg.svd(a)[1][0]), abs=1e-10)


def test_euclidean_opnorm_diagonal():
    assert ls.euclidean_opnorm(np.diag([3.0, 1.0]) - np.eye(2)) == pytest.approx(
        2.0, abs=1e-12
    )


def test_euclidean_opnorm_rejects_nonsquare():
    with pytest.raises(ValueError):
        ls.euclidean_opnorm(np.zeros((2, 3)))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(0, 10**6))
def test_euclidean_opnorm_matches_svd(d, seed):
    a = np.random.default_rng(seed).normal(size=(d, d))
    assert ls.euclidean_opnorm(a) == pytest.approx(
        float(np.linalg.svd(a)[1][0]), rel=1e-9
    )


# ------------------------------------------------------------ validation

def test_axis_box_rejects_floats():
    with pytest.raises(TypeError):
        ls.AxisBox((0.3, 1.0))


def test_axis_box_rejects_nonpositive():
    with pytest.raises(ValueError):
        box("0")
    with pytest.raises(ValueError):
        box("-1", "2")
    with pytest.raises(ValueError):
        ls.AxisBox(())


def test_axis_box_descending_order():
    b = box("1.7", "2.3", "1.7")
    assert b.descending_order == (1, 0, 2)


def test_rotation_rejects_non_orthogonal():
    with pytest.raises(ValueError, match="orthogonal"):
        ls.Rotation(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_rotation_rejects_reflection():
    with pytest.raises(ValueError, match="determinant"):
        ls.Rotation(np.diag([1.0, -1.0]))


def test_rotation_rejects_bogus_plane_claim():
    # the plane tag licenses exact off-plane arithmetic, so it is validated
    planar = ls.givens_rotation(3, 0, 1, 0.3).matrix
    with pytest.raises(ValueError, match="planar"):
        ls.Rotation(planar, plane=(0, 2))
    # orthogonal to within 1e-12 with det > 0, but the two diagonal entries
    # differ by one ulp: the off-plane split reads c and s from column i only
    c, s = math.cos(0.3), math.sin(0.3)
    skewed = np.array([[c, -s], [s, np.nextafter(c, 2)]])
    with pytest.raises(ValueError, match="planar"):
        ls.Rotation(skewed, plane=(0, 1))


def test_transform_rejects_singular():
    with pytest.raises(ValueError):
        ls.Transform(np.zeros((2, 2)))


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: ls.Transform(np.diag([math.nan, 1.0])), id="transform-nan"),
        pytest.param(lambda: ls.Transform(np.diag([math.inf, 1.0])), id="transform-inf"),
        pytest.param(lambda: ls.Rotation(np.diag([math.nan, 1.0])), id="rotation-nan"),
        pytest.param(
            lambda: ls.Transform(np.eye(2), np.diag([math.nan, 1.0])), id="inverse-nan"
        ),
    ],
)
def test_matrices_reject_non_finite_entries(make):
    with pytest.raises(ValueError, match="NaN or infinite|inverse check"):
        make()


def test_rotated_box_dimension_check():
    with pytest.raises(ValueError):
        ls.RotatedBox(box("1", "1", "1"), ls.givens_rotation(2, 0, 1, 0.1))


def test_lp_ball_rejects_bad_p():
    with pytest.raises(ValueError, match=r"^p must be a real >= 1 or inf, got 0\.5$"):
        ls.LpBall(0.5, (Fraction(1),))
    with pytest.raises(ValueError):
        ls.LpBall(float("nan"), (Fraction(1),))


def test_lp_ball_p_inf_is_distinct():
    ball = ls.LpBall(math.inf, (Fraction(1),))
    assert ball.is_box
    assert ball.int_exponent is None
    assert ls.LpBall(2.0, (Fraction(1),)).int_exponent == 2
    assert ls.LpBall(2.5, (Fraction(1),)).int_exponent is None
