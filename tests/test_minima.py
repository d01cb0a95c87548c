import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latstab as ls


def box(*alphas):
    return ls.AxisBox([Fraction(a) for a in alphas])


def exact_rank(rows):
    """Gaussian elimination over the rationals; independent of the solver's
    fraction-free bookkeeping."""
    m = [[Fraction(c) for c in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


@st.composite
def boxes(draw, max_dim=3, lo=3, hi=35):
    d = draw(st.integers(1, max_dim))
    return box(*[Fraction(draw(st.integers(lo, hi)), 10) for _ in range(d)])


# ----------------------------------------------------------- closed form

def test_closed_form_2_3_1_7():
    result = ls.box_minima_closed_form(box("2.3", "1.7"))
    assert result.lambdas == (Fraction(10, 23), Fraction(10, 17))
    assert result.witnesses == ((1, 0), (0, 1))


def test_closed_form_unit_cube():
    result = ls.box_minima_closed_form(box("1", "1", "1"))
    assert result.lambdas == (Fraction(1), Fraction(1), Fraction(1))


def test_closed_form_skewed():
    result = ls.box_minima_closed_form(box("5", "1/3"))
    assert result.lambdas == (Fraction(1, 5), Fraction(3))
    assert result.witnesses == ((1, 0), (0, 1))


def test_closed_form_respects_descending_order():
    result = ls.box_minima_closed_form(box("1.7", "2.3"))
    assert result.lambdas == (Fraction(10, 23), Fraction(10, 17))
    assert result.witnesses == ((0, 1), (1, 0))


# --------------------------------------------------------- general solver

def test_solver_box_2_1():
    result = ls.successive_minima(box("2", "1"))
    assert result.lambdas == (Fraction(1, 2), Fraction(1))
    assert result.witnesses == ((1, 0), (0, 1))


def test_solver_half_cube_any_dim():
    for d in (1, 2, 3, 4):
        result = ls.successive_minima(ls.AxisBox([Fraction(1, 2)] * d))
        assert result.lambdas == tuple([Fraction(2)] * d)


def test_solver_rotated_unit_box():
    body = ls.RotatedBox(box("1", "1"), ls.givens_rotation(2, 0, 1, 0.1))
    result = ls.successive_minima(body)
    for lam in result.lambdas:
        assert float(lam) == pytest.approx(math.cos(0.1), abs=1e-12)
    assert {tuple(abs(c) for c in w) for w in result.witnesses} == {(1, 0), (0, 1)}
    # oracle: direct gauge evaluation of every |z|_inf <= 2
    best = min(
        ls.gauge(body, (i, j))
        for i in range(-2, 3)
        for j in range(-2, 3)
        if (i, j) != (0, 0)
    )
    assert float(result.lambdas[0]) == pytest.approx(best, abs=1e-12)


def test_solver_lp_ball():
    result = ls.successive_minima(ls.LpBall(2, (Fraction(3, 2), Fraction(3, 2))))
    for lam in result.lambdas:
        assert float(lam) == pytest.approx(2 / 3, abs=1e-12)
    assert {tuple(abs(c) for c in w) for w in result.witnesses} == {(1, 0), (0, 1)}


def test_solver_dimension_cap():
    with pytest.raises(ValueError, match="dimension"):
        ls.successive_minima(ls.AxisBox([Fraction(1)] * 9))


@settings(max_examples=100, deadline=None)
@given(boxes())
def test_solver_matches_closed_form_exactly(b):
    assert ls.successive_minima(b).lambdas == ls.box_minima_closed_form(b).lambdas


@settings(max_examples=60, deadline=None)
@given(boxes())
def test_result_sorted_and_witnesses_achieve(b):
    result = ls.successive_minima(b)
    assert list(result.lambdas) == sorted(result.lambdas)
    assert exact_rank(result.witnesses) == b.dim
    for lam, w in zip(result.lambdas, result.witnesses):
        assert ls.gauge(b, w) == lam


@settings(max_examples=40, deadline=None)
@given(boxes(max_dim=2), st.integers(0, 10**6))
def test_rotated_witnesses_independent_and_achieving(b, seed):
    body = ls.RotatedBox(b, ls.random_rotation(b.dim, seed, 0.8))
    result = ls.successive_minima(body)
    assert list(map(float, result.lambdas)) == sorted(map(float, result.lambdas))
    assert exact_rank(result.witnesses) == b.dim
    for lam, w in zip(result.lambdas, result.witnesses):
        assert ls.gauge(body, w) == pytest.approx(float(lam), abs=1e-9)


def test_scaling_covariance_exact_on_boxes():
    b = box("2.3", "1.7")
    base = ls.successive_minima(b).lambdas
    for t in (Fraction(1, 2), Fraction(2), Fraction(3)):
        scaled = ls.AxisBox([a * t for a in b.semi_axes])
        assert ls.successive_minima(scaled).lambdas == tuple(l / t for l in base)


def test_scaling_covariance_rotated():
    rot = ls.givens_rotation(2, 0, 1, 0.2)
    base = ls.successive_minima(ls.RotatedBox(box("1.3", "0.9"), rot)).lambdas
    for t in (Fraction(1, 2), Fraction(2), Fraction(3)):
        scaled = ls.AxisBox([a * t for a in box("1.3", "0.9").semi_axes])
        lams = ls.successive_minima(ls.RotatedBox(scaled, rot)).lambdas
        for l_scaled, l_base in zip(lams, base):
            assert float(l_scaled) == pytest.approx(float(l_base) / float(t), abs=1e-9)


# ------------------------------------------------------ sandwich checker

def test_sandwich_identity_collapses():
    report = ls.check_minima_sandwich(box("2", "1"), ls.Transform(np.eye(2)))
    assert report.eps == 0.0
    assert report.eps_prime == 0.0
    assert report.all_ok
    assert tuple(map(float, report.image_lambdas)) == (0.5, 1.0)


def test_sandwich_dilation():
    report = ls.check_minima_sandwich(box("2", "1"), ls.Transform(1.05 * np.eye(2)))
    assert report.eps == pytest.approx(0.05, abs=1e-12)
    assert report.eps_prime == pytest.approx(1 / 21, abs=1e-12)
    # dilation scales minima inversely; oracle: solver on the scaled box
    oracle = ls.successive_minima(ls.AxisBox([Fraction(21, 10), Fraction(21, 20)])).lambdas
    for got, exact in zip(report.image_lambdas, oracle):
        assert float(got) == pytest.approx(float(exact), abs=1e-12)
    assert report.all_ok


def test_sandwich_givens():
    g = ls.givens_rotation(2, 0, 1, 0.1)
    report = ls.check_minima_sandwich(box("1", "1"), ls.Transform(g.matrix, g.matrix.T))
    expected_eps = (1 - math.cos(0.1)) + math.sin(0.1)
    assert report.eps == pytest.approx(expected_eps, abs=1e-12)
    assert report.eps_prime == pytest.approx(expected_eps, abs=1e-12)
    for lam in report.image_lambdas:
        assert float(lam) == pytest.approx(math.cos(0.1), abs=1e-12)
    assert report.all_ok


def test_sandwich_accepts_a_rotation():
    # a Rotation is a Transform whose certified inverse is its transpose;
    # its plane tag keeps the off-plane minimum exact
    b = box("1.5", "1.25", "0.7")
    g = ls.givens_rotation(3, 0, 2, 0.3)
    report = ls.check_minima_sandwich(b, g)
    general = ls.check_minima_sandwich(b, ls.Transform(g.matrix, g.matrix.T))
    assert report.all_ok
    assert (report.eps, report.eps_prime) == (general.eps, general.eps_prime)
    assert list(map(float, report.image_lambdas)) == list(map(float, general.image_lambdas))
    assert report.image_lambdas[1] == Fraction(4, 5)
    assert isinstance(report.image_lambdas[1], Fraction)
    assert general.image_lambdas[1] == 0.8 and isinstance(general.image_lambdas[1], float)


def test_sandwich_random_transforms():
    rng = random.Random(20240811)
    for _ in range(25):
        d = rng.randint(1, 3)
        b = box(*[Fraction(rng.randint(3, 30), 10) for _ in range(d)])
        a = np.array([[rng.uniform(-1, 1) for _ in range(d)] for _ in range(d)])
        norm = ls.box_gauge_opnorm(b, a)
        a *= rng.uniform(0.01, 0.2) / norm
        report = ls.check_minima_sandwich(b, ls.Transform(np.eye(d) + a))
        assert report.all_ok, (b.semi_axes, report)


def test_sandwich_dimension_mismatch():
    with pytest.raises(ValueError):
        ls.check_minima_sandwich(box("1", "1"), ls.Transform(np.eye(3)))
