import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latstab as ls


def box(*alphas):
    return ls.AxisBox([Fraction(a) for a in alphas])


@st.composite
def boxes(draw, max_dim=3, lo=1, hi=35):
    d = draw(st.integers(1, max_dim))
    return box(*[Fraction(draw(st.integers(lo, hi)), 10) for _ in range(d)])


# ----------------------------------------------------- bounding widths

def test_bounding_half_widths_box():
    assert ls.bounding_half_widths(box("2", "1")) == (Fraction(2), Fraction(1))


def test_bounding_half_widths_rotated_quarter_turn():
    body = ls.RotatedBox(box("1", "1"), ls.givens_rotation(2, 0, 1, math.pi / 4))
    h = ls.bounding_half_widths(body)
    # oracle: max coordinate over the four rotated vertices
    r = body.rotation.matrix
    vertices = [r @ np.array(v, dtype=float) for v in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    for i in range(2):
        expected = max(abs(v[i]) for v in vertices)
        assert h[i] == pytest.approx(expected, abs=1e-12)
        assert h[i] == pytest.approx(math.sqrt(2), abs=1e-12)


def test_bounding_half_widths_lp():
    ball = ls.LpBall(2, (Fraction(3, 2), Fraction(3, 2)))
    assert ls.bounding_half_widths(ball) == (Fraction(3, 2), Fraction(3, 2))


# ------------------------------------------------------------- counting

def test_count_unit_box():
    result = ls.count_lattice_points(box("1", "1"))
    assert result == ls.CountResult(9, 0, "brute-force")
    assert ls.count_box_closed_form(box("1", "1")) == (2 * 1 + 1) ** 2


def test_count_box_2_3_1_7():
    assert ls.count_lattice_points(box("2.3", "1.7")).count == 15
    assert ls.count_box_closed_form(box("2.3", "1.7")) == 5 * 3


def test_count_rotated_unit_box():
    body = ls.RotatedBox(box("1", "1"), ls.givens_rotation(2, 0, 1, 0.1))
    result = ls.count_lattice_points(body)
    assert result.count == 5
    assert result.ambiguous == 0


def test_closed_form_examples():
    assert ls.count_box_closed_form(box("1", "1")) == 9
    assert ls.count_box_closed_form(box("2.3", "1.7")) == 15
    assert ls.count_box_closed_form(box("0.4", "0.4", "0.4")) == 1


def test_list_points_flat_box():
    assert ls.list_lattice_points(box("1", "0.4")) == [(-1, 0), (0, 0), (1, 0)]


def test_list_points_origin_only():
    assert ls.list_lattice_points(box("0.4", "0.4")) == [(0, 0)]


def test_list_points_lp_ball():
    ball = ls.LpBall(2, (Fraction(3, 2), Fraction(3, 2)))
    pts = ls.list_lattice_points(ball)
    assert pts == [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]


def test_count_points_dispatches_closed_form():
    assert ls.count_points(box("2.3", "1.7")) == ls.CountResult(15, 0, "closed-form")
    ball = ls.LpBall(math.inf, (Fraction(23, 10), Fraction(17, 10)))
    assert ls.count_points(ball) == ls.CountResult(15, 0, "closed-form")
    assert ls.count_points(ls.LpBall(2, (Fraction(3, 2),))).method == "brute-force"


# ------------------------------------------------------------ properties

@settings(max_examples=150, deadline=None)
@given(boxes())
def test_closed_form_equals_brute_force(b):
    brute = ls.count_lattice_points(b)
    assert brute.ambiguous == 0
    assert brute.count == ls.count_box_closed_form(b)


@settings(max_examples=60, deadline=None)
@given(boxes(max_dim=2), st.floats(1.0, 30.0))
def test_count_is_odd_without_ambiguity(b, p):
    result = ls.count_lattice_points(ls.LpBall(p, b.semi_axes))
    if result.ambiguous == 0:
        assert result.count % 2 == 1


@settings(max_examples=100, deadline=None)
@given(boxes())
def test_listing_symmetric_under_negation(b):
    pts = set(ls.list_lattice_points(b))
    assert {tuple(-c for c in z) for z in pts} == pts


@settings(max_examples=80, deadline=None)
@given(boxes(max_dim=3), st.integers(1, 3))
def test_count_monotone_under_inclusion(b, k):
    # shrink by an exact rational factor: the smaller box is contained
    small = ls.AxisBox([a * Fraction(k, 4) for a in b.semi_axes])
    big = ls.AxisBox([a for a in b.semi_axes])
    assert ls.count_lattice_points(small).count <= ls.count_lattice_points(big).count


@settings(max_examples=60, deadline=None)
@given(boxes(max_dim=2), st.floats(1.0, 20.0), st.floats(0.0, 20.0))
def test_lp_count_monotone_in_p(b, p, dp):
    # the retained count (inside or boundary-ambiguous) is the monotone
    # quantity: a point exactly on the boundary of every ball, e.g. (1,)
    # in a box with an integer semi-axis, is counted by the exact
    # integer-exponent path but reported ambiguous at fractional p
    c_lo = ls.count_lattice_points(ls.LpBall(p, b.semi_axes))
    c_hi = ls.count_lattice_points(ls.LpBall(p + dp, b.semi_axes))
    assert c_lo.count + c_lo.ambiguous <= c_hi.count + c_hi.ambiguous
    if c_lo.ambiguous == 0 and c_hi.ambiguous == 0:
        assert c_lo.count <= c_hi.count


def test_rotated_count_invariant_under_lattice_symmetries():
    # all 8 signed permutations of Z^2; improper ones are composed with a
    # coordinate reflection of the (reflection-symmetric) base box
    base = box("1.3", "0.8")
    r0 = ls.givens_rotation(2, 0, 1, 0.3).matrix
    reference = ls.count_lattice_points(ls.RotatedBox(base, ls.Rotation(r0))).count
    flip = np.diag([1.0, -1.0])
    symmetries = []
    for perm in (np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])):
        for s0 in (1.0, -1.0):
            for s1 in (1.0, -1.0):
                symmetries.append(np.diag([s0, s1]) @ perm)
    assert len(symmetries) == 8
    for s in symmetries:
        m = s @ r0
        if np.linalg.det(m) < 0:
            m = m @ flip
        count = ls.count_lattice_points(ls.RotatedBox(base, ls.Rotation(m))).count
        assert count == reference


# ------------------------------------------------------------------ caps

def test_dimension_cap():
    with pytest.raises(ValueError, match="dimension"):
        ls.count_lattice_points(ls.AxisBox([Fraction(1)] * 9))


def test_iteration_space_cap_reported_before_starting():
    # 10**15 candidates, and 3163**2 = 10,004,569: just over the cap
    for axes in (("100000", "100000", "100000"), ("1581", "1581")):
        with pytest.raises(ValueError, match="candidates"):
            ls.count_lattice_points(box(*axes))
