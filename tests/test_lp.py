import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import latstab as ls
from latstab import VerdictStatus
from latstab.bodies import DEFAULT_EPS
from latstab.lp import _invariant_at, _retained_set


def box(*alphas):
    return ls.AxisBox([Fraction(a) for a in alphas])


def random_noninteger_box(rng, max_dim=4):
    d = rng.randint(1, max_dim)
    axes = []
    for _ in range(d):
        n = rng.randint(1, 35)
        while n % 10 == 0:  # keep every semi-axis off the integers
            n = rng.randint(1, 35)
        axes.append(Fraction(n, 10))
    return ls.AxisBox(axes)


@st.composite
def boxes(draw, max_dim=3, lo=1, hi=35):
    d = draw(st.integers(1, max_dim))
    return box(*[Fraction(draw(st.integers(lo, hi)), 10) for _ in range(d)])


def box_set(b):
    return frozenset(ls.list_lattice_points(b))


def brute_force_threshold(b, tol=1e-6, eps=DEFAULT_EPS):
    """Independent oracle: the same bisection as empirical_threshold, but
    each probe compares the enumerated Lp point set with the box set."""
    target = box_set(b)

    def invariant(p):
        return _retained_set(b, p, eps) == target

    lo = 1.0
    if invariant(lo):
        return lo
    hi = ls.p_threshold(b).p0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if invariant(mid):
            hi = mid
        else:
            lo = mid
    return hi


def bisect_binding_equation(terms, lo=1.0, hi=400.0):
    """Independent oracle: solve sum beta_i^p = 1 for the binding lattice
    point, by plain float bisection on a decreasing function."""
    def f(p):
        return sum(b**p for b in terms) - 1.0

    if f(lo) <= 0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return hi


# ------------------------------------------------------------ p_threshold

def test_p0_symmetric_box():
    report = ls.p_threshold(box("1.5", "1.5"))
    assert report.p0 == pytest.approx(math.log(2) / math.log(1.5), abs=1e-12)
    assert report.p0 == pytest.approx(1.709511, abs=1e-6)
    assert report.excluded_coords == ()
    assert report.beta_max == pytest.approx(2 / 3, abs=1e-15)


def test_p0_box_2_3_1_7():
    report = ls.p_threshold(box("2.3", "1.7"))
    assert report.beta_max == pytest.approx(float(Fraction(2) / Fraction(23, 10)), abs=1e-15)
    assert report.p0 == pytest.approx(math.log(2) / math.log(2.3 / 2), abs=1e-9)
    assert report.p0 == pytest.approx(4.959484454640391, abs=1e-9)


def test_p0_excluded_coordinates_floor_to_one():
    report = ls.p_threshold(box("0.4", "0.4", "1.5"))
    assert report.excluded_coords == (0, 1)
    assert report.p0 == 1.0  # ln(1)/ln(1.5) = 0, floored
    assert report.note is not None


def test_p0_all_coordinates_excluded():
    report = ls.p_threshold(box("0.4", "0.4"))
    assert report.p0 == 1.0
    assert report.beta_max == 0.0
    assert report.excluded_coords == (0, 1)


def test_p0_rejects_integer_applicable_axis():
    with pytest.raises(ValueError, match="integer"):
        ls.p_threshold(box("1", "1.5"))
    with pytest.raises(ValueError, match="integer"):
        ls.p_threshold(box("2", "3"))


# ---------------------------------------------------------------- count_lp

def test_count_lp_symmetric():
    assert ls.count_lp(box("1.5", "1.5"), 2).count == 9


def test_count_lp_inf_is_box_count():
    result = ls.count_lp(box("1.5", "1.5"), math.inf)
    assert result.count == 9
    assert result.method == "closed-form"


def test_count_lp_integer_axis_drops_corners():
    # exact integer-exponent path: the four corners (+-1, +-1) fail
    # 1 + (1/1.5)^2 <= 1, everything else stays
    result = ls.count_lp(box("1", "1.5"), 2)
    assert result.ambiguous == 0
    assert result.count == 5
    assert result.count < ls.count_lp(box("1", "1.5"), math.inf).count == 9


def test_count_lp_rejects_small_p():
    for p in (0.5, math.nan):
        with pytest.raises(ValueError, match="p must be"):
            ls.count_lp(box("1"), p)


# ------------------------------------------------------------- sufficiency

def test_sufficiency_symmetric_box_default_grid():
    assert ls.threshold_sufficiency_check(box("1.5", "1.5"))


def test_sufficiency_box_2_3_1_7():
    assert ls.threshold_sufficiency_check(box("2.3", "1.7"))


def test_sufficiency_origin_only_box():
    assert ls.threshold_sufficiency_check(box("0.4", "0.4"))


def test_sufficiency_rejects_grid_below_p0():
    with pytest.raises(ValueError, match="below"):
        ls.threshold_sufficiency_check(box("1.5", "1.5"), grid=[1.0])


def test_sufficiency_random_boxes():
    rng = random.Random(1337)
    for _ in range(15):
        b = random_noninteger_box(rng, max_dim=3)
        assert ls.threshold_sufficiency_check(b), b.semi_axes


# ----------------------------------------------------- empirical threshold

def test_empirical_threshold_symmetric_box_binding_corner():
    # the corner (1,1) binds: 2*(2/3)^p = 1 at exactly p = ln2/ln1.5
    b = box("1.5", "1.5")
    p_star = ls.empirical_threshold(b)
    exact = math.log(2) / math.log(1.5)
    assert abs(p_star - exact) <= 1e-5
    assert p_star <= ls.p_threshold(b).p0 + 1e-6


def test_empirical_threshold_trivial_box():
    assert ls.empirical_threshold(box("0.4", "0.4")) == 1.0


def test_empirical_threshold_2_3_1_7():
    b = box("2.3", "1.7")
    p_star = ls.empirical_threshold(b)
    report = ls.p_threshold(b)
    assert p_star <= report.p0 + 1e-6
    # oracle: the last point to enter is (2, 1); solve its binding equation
    oracle = bisect_binding_equation([2 / 2.3, 1 / 1.7])
    assert p_star == pytest.approx(oracle, abs=5e-6)


def test_empirical_threshold_random_boxes_below_p0():
    rng = random.Random(99)
    for _ in range(10):
        b = random_noninteger_box(rng, max_dim=3)
        assert ls.empirical_threshold(b) <= ls.p_threshold(b).p0 + 1e-6


@pytest.mark.parametrize(
    "kwargs",
    [
        pytest.param({"tol": 0.0}, id="tol=0"),
        pytest.param({"tol": math.nan}, id="tol=nan"),
        pytest.param({"tol": math.inf}, id="tol=inf"),
        pytest.param({"eps": math.nan}, id="eps=nan"),
        pytest.param({"eps": math.inf}, id="eps=inf"),
    ],
)
def test_empirical_threshold_rejects_bad_tol(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        ls.empirical_threshold(box("2.3", "1.7"), **kwargs)


# ------------------------------------------ corner probe vs point-set oracle

@settings(max_examples=150, deadline=None)
@given(
    boxes(),
    st.one_of(st.floats(1, 30), st.integers(1, 30)),
    st.sampled_from([0.0, DEFAULT_EPS, 1e-6]),
)
def test_corner_probe_matches_point_set_oracle(b, p, eps):
    assert _invariant_at(b, p, eps) == (_retained_set(b, p, eps) == box_set(b))


def test_corner_probe_exact_boundary_corner_retained():
    # the corner (1, 1) sits exactly on the boundary: 9/25 + 16/25 = 1, so
    # only the exact integer-exponent path can retain it
    b = box("5/3", "5/4")
    for eps in (0.0, DEFAULT_EPS):
        assert _invariant_at(b, 2, eps)
        assert _retained_set(b, 2, eps) == box_set(b)


def test_corner_probe_floor_zero_coordinate():
    # floor(0.4) = 0 pins z_0 = 0, so the binding corner is (0, 2, 1)
    b = box("0.4", "2.5", "1.5")
    for p in (1, 1.5, 2, 2.7, 3, 4.25, 10):
        assert _invariant_at(b, p, DEFAULT_EPS) == (
            _retained_set(b, p, DEFAULT_EPS) == box_set(b)
        ), p
    assert not _invariant_at(b, 1, DEFAULT_EPS)
    assert _invariant_at(b, 10, DEFAULT_EPS)


def test_empirical_threshold_equals_brute_force_bisection():
    rng = random.Random(2718281828)  # the boxes of acceptance criterion 8
    for _ in range(50):
        b = random_noninteger_box(rng)
        assert ls.empirical_threshold(b) == brute_force_threshold(b), b.semi_axes


# ------------------------------------------------- integer-alpha exclusion

def test_exclusion_mixed_box():
    assert ls.integer_alpha_exclusion_check(box("1", "1.5"), [2, 4, 8, 16])


def test_exclusion_unit_box_disk():
    assert ls.integer_alpha_exclusion_check(box("1", "1"), [2])
    assert ls.count_lp(box("1", "1"), 2).count == 5  # 9 -> 5 in the disk


def test_exclusion_large_p_exact():
    # (2, 3) has gauge^p = 1 + (2/3)^100 > 1: invisible to floats, decided
    # by the exact rational path
    assert ls.integer_alpha_exclusion_check(box("2", "3"), [100])


def test_exclusion_rejects_fractional_box():
    with pytest.raises(ValueError):
        ls.integer_alpha_exclusion_check(box("1.5", "2.5"), [2])


def test_exclusion_rejects_infinite_p():
    with pytest.raises(ValueError):
        ls.integer_alpha_exclusion_check(box("1", "1.5"), [2, math.inf])


# ------------------------------------------------------------- monotonicity

def test_counts_nondecreasing_in_p():
    rng = random.Random(555)
    for _ in range(10):
        b = random_noninteger_box(rng, max_dim=3)
        grid = sorted(rng.uniform(1, 30) for _ in range(5)) + [math.inf]
        results = [ls.count_lp(b, p) for p in grid]
        retained = [r.count + r.ambiguous for r in results]
        assert retained == sorted(retained), (b.semi_axes, grid, retained)


def test_counts_nondecreasing_exact_grid():
    # all-exact paths (integer exponents), so the plain counts are monotone
    counts = [ls.count_lp(box("1.5", "1.5"), p).count for p in (1, 2, 4, math.inf)]
    assert counts == [5, 9, 9, 9]


# ------------------------------------------------------ verdicts under Lp

def test_verify_lp_never_violates_on_grid():
    rng = random.Random(2024)
    grid = [1, 2, 3, 7, math.inf]
    for _ in range(10):
        b = random_noninteger_box(rng, max_dim=3)
        for p in grid:
            v = ls.verify(ls.LpBall(p, b.semi_axes))
            assert v.status is not VerdictStatus.VIOLATION, (b.semi_axes, p, v)
