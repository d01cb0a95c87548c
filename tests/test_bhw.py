import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import latstab as ls
from latstab import VerdictStatus
from latstab.bodies import LinearImage


def box(*alphas):
    return ls.AxisBox([Fraction(a) for a in alphas])


# ------------------------------------------------------------ floor_safe

def test_floor_safe_plain():
    assert ls.floor_safe(5.6) == (5, False)


def test_floor_safe_snaps_near_integer():
    assert ls.floor_safe(6 - 1e-12) == (6, True)
    assert ls.floor_safe(6 + 1e-12) == (6, True)


def test_floor_safe_exact_rational_bypasses_snapping():
    assert ls.floor_safe(Fraction(23, 5)) == (4, False)
    # a rational a hair below an integer still floors exactly
    assert ls.floor_safe(Fraction(6 * 10**12 - 1, 10**12)) == (5, False)


def test_floor_safe_rejects_negative():
    with pytest.raises(ValueError):
        ls.floor_safe(-0.5)
    with pytest.raises(ValueError):
        ls.floor_safe(Fraction(-1, 2))


# -------------------------------------------------------- rhs functional

def test_rhs_box_2_1():
    assert ls.rhs_functional((Fraction(1, 2), Fraction(1))) == (15, False)


def test_rhs_unit_cube_d3():
    assert ls.rhs_functional((Fraction(1),) * 3) == (27, False)


def test_rhs_box_2_3_1_7():
    lambdas = (Fraction(10, 23), Fraction(10, 17))
    # oracle: exact rational evaluation of each factor
    assert Fraction(2) / lambdas[0] + 1 == Fraction(28, 5)
    assert Fraction(2) / lambdas[1] + 1 == Fraction(22, 5)
    assert ls.rhs_functional(lambdas) == (5 * 4, False)


def test_rhs_rejects_nonpositive():
    with pytest.raises(ValueError):
        ls.rhs_functional((Fraction(0), Fraction(1)))


def test_rhs_rational_path_independent_of_eps():
    lambdas = (Fraction(10, 23), Fraction(10, 17))
    assert ls.rhs_functional(lambdas, eps=0.0) == ls.rhs_functional(lambdas, eps=0.4)


def test_rhs_float_snapping_propagates():
    value, snapped = ls.rhs_functional((1.0 - 1e-13,))
    assert value == 3 and snapped


# ----------------------------------------------------------------- verify

def test_verify_unit_box_tight():
    v = ls.verify(box("1", "1"))
    assert (v.g, v.rhs, v.status) == (9, 9, VerdictStatus.TIGHT)
    assert v.ambiguous_points == 0 and not v.snapped


def test_verify_box_2_3_1_7_strict():
    v = ls.verify(box("2.3", "1.7"))
    assert (v.g, v.rhs, v.status) == (15, 20, VerdictStatus.STRICT)
    assert v.lambdas == (Fraction(10, 23), Fraction(10, 17))


def test_verify_rotated_unit_box_strict():
    body = ls.RotatedBox(box("1", "1"), ls.givens_rotation(2, 0, 1, 0.1))
    v = ls.verify(body)
    assert v.g == 5
    assert v.rhs == 9
    assert v.status is VerdictStatus.STRICT


def test_verify_lp_inf_matches_box():
    ball = ls.LpBall(math.inf, (Fraction(23, 10), Fraction(17, 10)))
    v_ball = ls.verify(ball)
    v_box = ls.verify(box("2.3", "1.7"))
    assert (v_ball.g, v_ball.rhs, v_ball.status) == (v_box.g, v_box.rhs, v_box.status)


def test_verify_lp_integer_exponent_is_exact():
    v = ls.verify(ls.LpBall(2, (Fraction(3, 2), Fraction(3, 2))))
    # lambda_i = 2/3 exactly, so each factor is exactly floor(4) = 4
    assert (v.g, v.rhs, v.status) == (9, 16, VerdictStatus.STRICT)
    assert v.ambiguous_points == 0 and not v.snapped


def test_verify_lp_fractional_exponent_snaps_to_ambiguous():
    # same ball at p = 2.5: the float path sees 2/lambda + 1 == 4 up to
    # rounding dust, which is boundary contact on the floor lattice
    v = ls.verify(ls.LpBall(2.5, (Fraction(3, 2), Fraction(3, 2))))
    assert v.status is VerdictStatus.AMBIGUOUS
    assert v.snapped


def test_verify_near_identity_rotation_is_ambiguous():
    body = ls.RotatedBox(box("1", "1"), ls.givens_rotation(2, 0, 1, 1e-13))
    v = ls.verify(body)
    assert v.status is VerdictStatus.AMBIGUOUS
    assert v.ambiguous_points > 0


def test_verify_rejects_unsupported_body():
    with pytest.raises(ValueError):
        ls.verify(42)


def test_verify_accepts_linear_images():
    base = box("2.3", "1.7")
    v = ls.verify(LinearImage(base, ls.Transform([[1.0, 0.0], [0.0, 1.0]])))
    assert (v.g, v.rhs, v.status) == (15, 20, VerdictStatus.STRICT)
    assert v.ambiguous_points == 0 and not v.snapped
    sheared = LinearImage(base, ls.Transform([[1.0, 0.3], [0.0, 1.0]]))
    v, counted = ls.verify(sheared), ls.count_lattice_points(sheared)
    assert (v.g, v.ambiguous_points) == (counted.count, counted.ambiguous)


# --------------------------------------------------- floor inequality

def test_floor_inequality_examples():
    assert ls.floor_inequality_check(0)
    assert ls.floor_inequality_check(1.7)
    assert 2 * math.floor(1.7) + 1 == 3 and math.floor(2 * 1.7 + 1) == 4
    assert ls.floor_inequality_check(2)
    assert 2 * math.floor(2) + 1 == 5 == math.floor(2 * 2 + 1)


def test_floor_inequality_rejects_negative():
    with pytest.raises(ValueError):
        ls.floor_inequality_check(-1)


@settings(max_examples=300, deadline=None)
@given(st.floats(0, 100, allow_nan=False))
def test_floor_inequality_random_floats(x):
    assert ls.floor_inequality_check(x)


def test_floor_inequality_half_integer_lattice():
    for k in range(0, 201):
        assert ls.floor_inequality_check(Fraction(k, 2))


# ----------------------------------------------- box grid invariants

GRID = [Fraction(s) for s in ("0.3", "0.5", "1", "1.5", "2", "2.3")]


def tightness_characterisation(alpha):
    return 2 * math.floor(alpha) + 1 == math.floor(2 * alpha + 1)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_grid_boxes_never_violate_and_tightness_matches(d):
    for alphas in itertools.product(GRID, repeat=d):
        v = ls.verify(ls.AxisBox(alphas))
        assert v.status in (VerdictStatus.TIGHT, VerdictStatus.STRICT), alphas
        expect_tight = all(tightness_characterisation(a) for a in alphas)
        assert (v.status is VerdictStatus.TIGHT) == expect_tight, alphas


def test_verdict_invariants_on_examples():
    tight = ls.verify(box("1", "1"))
    assert tight.g == tight.rhs and tight.ambiguous_points == 0
    strict = ls.verify(box("2.3", "1.7"))
    assert strict.g < strict.rhs and strict.ambiguous_points == 0
