import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import latstab as ls
from latstab import VerdictStatus


def box(*alphas):
    return ls.AxisBox([Fraction(a) for a in alphas])


def exterior_distance_sq_oracle(b):
    """Brute force: minimum squared Euclidean distance from the box to any
    exterior lattice point in the shell [-ceil(a)-1, ceil(a)+1]^d."""
    shell = [range(-(math.ceil(a) + 1), math.ceil(a) + 2) for a in b.semi_axes]
    best = None
    for z in itertools.product(*shell):
        over = [max(abs(c) - a, Fraction(0)) for c, a in zip(z, b.semi_axes)]
        if all(o == 0 for o in over):
            continue  # inside the box
        d2 = sum(o * o for o in over)
        if best is None or d2 < best:
            best = d2
    return best


def random_box(rng, max_dim=4, max_num=36, max_den=12):
    d = rng.randint(1, max_dim)
    axes = []
    for _ in range(d):
        den = rng.randint(1, max_den)
        num = rng.randint(1, 3 * den)  # keep alpha <= 3 so the shell stays small
        axes.append(Fraction(num, den))
    return ls.AxisBox(axes)


# ------------------------------------------------------ isolation distance

def test_isolation_integer_box():
    assert ls.isolation_distance(box("1", "1")) == 1


def test_isolation_2_3_1_7():
    assert ls.isolation_distance(box("2.3", "1.7")) == Fraction(3, 10)


def test_isolation_half_cube():
    assert ls.isolation_distance(ls.AxisBox([Fraction(1, 2)] * 3)) == Fraction(1, 2)


def test_isolation_matches_bruteforce_oracle():
    rng = random.Random(424242)
    for _ in range(25):
        b = random_box(rng, max_dim=3)
        delta = ls.isolation_distance(b)
        assert delta * delta == exterior_distance_sq_oracle(b), b.semi_axes
        assert 0 < delta <= 1


# ------------------------------------------------------- stability radius

def test_radius_unit_cube_d4():
    report = ls.stability_radius(ls.AxisBox([Fraction(1, 2)] * 4))
    assert report.radius == 0.5
    assert report.delta == Fraction(1, 2)


def test_radius_2_3_1_7():
    report = ls.stability_radius(box("2.3", "1.7"))
    assert report.delta == Fraction(3, 10)
    assert report.circumradius == pytest.approx(2.8600699292150185, abs=1e-15)
    assert report.radius == pytest.approx(0.10489254019125983, abs=1e-15)


def test_radius_integer_unit_box():
    report = ls.stability_radius(box("1", "1"))
    assert report.radius == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_radius_report_consistency():
    rng = random.Random(7)
    for _ in range(20):
        b = random_box(rng, max_dim=4)
        report = ls.stability_radius(b)
        assert report.radius * report.circumradius == pytest.approx(
            float(report.delta), abs=1e-12
        )


def test_radius_scaling_one_over_sqrt_d():
    for d in range(1, 7):
        report = ls.stability_radius(ls.AxisBox([Fraction(1, 2)] * d))
        assert abs(report.radius - 1 / math.sqrt(d)) <= 1e-12


# ------------------------------------------------------- givens rotations

def test_givens_zero_is_identity():
    rot = ls.givens_rotation(3, 0, 2, 0.0)
    assert np.array_equal(rot.matrix, np.eye(3))
    assert ls.euclidean_opnorm(rot.matrix - np.eye(3)) == 0.0


def test_givens_opnorm_closed_form():
    rot = ls.givens_rotation(2, 0, 1, 0.1)
    assert ls.euclidean_opnorm(rot.matrix - np.eye(2)) == pytest.approx(
        2 * math.sin(0.05), abs=1e-12
    )


def test_givens_pi_antipodal():
    rot = ls.givens_rotation(2, 0, 1, math.pi)
    assert ls.euclidean_opnorm(rot.matrix - np.eye(2)) == pytest.approx(2.0, abs=1e-12)


def test_givens_rejects_bad_plane():
    with pytest.raises(ValueError):
        ls.givens_rotation(2, 1, 1, 0.1)
    with pytest.raises(ValueError):
        ls.givens_rotation(2, 0, 2, 0.1)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_givens_rejects_non_finite_theta(theta):
    with pytest.raises(ValueError, match="theta must be finite"):
        ls.givens_rotation(2, 0, 1, theta)


def test_givens_carries_plane_metadata():
    rot = ls.givens_rotation(4, 1, 3, 0.2)
    assert rot.plane == (1, 3)
    assert rot.theta == 0.2


# ------------------------------------------------------- random rotations

def test_random_rotation_deterministic():
    a = ls.random_rotation(3, 99, 0.3)
    b = ls.random_rotation(3, 99, 0.3)
    assert np.array_equal(a.matrix, b.matrix)


def test_random_rotation_contracts():
    for seed in range(40):
        rot = ls.random_rotation(3, seed, 0.4)
        d = rot.dim
        assert np.max(np.abs(rot.matrix.T @ rot.matrix - np.eye(d))) <= 1e-12
        opnorm = ls.euclidean_opnorm(rot.matrix - np.eye(d))
        assert 0.0 < opnorm <= 0.4 + 1e-9


@pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 2.5, -0.7, math.pi])
def test_expm_of_planar_generator_is_givens_rotation(t):
    generator = np.array([[0.0, -t], [t, 0.0]])
    expected = ls.givens_rotation(2, 0, 1, t).matrix
    assert np.max(np.abs(ls.stability.expm(generator) - expected)) <= 1e-15


def test_expm_rejects_non_skew_input():
    for bad in ([[0.0, 1.0], [1.0, 0.0]], [[0.0, math.nan], [math.nan, 0.0]], [1.0, 2.0]):
        with pytest.raises(ValueError):
            ls.stability.expm(bad)


def test_import_does_not_load_scipy():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    probe = "import sys, latstab, latstab.cli; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_random_rotation_rejects_bad_max():
    with pytest.raises(ValueError):
        ls.random_rotation(2, 0, 0.0)
    with pytest.raises(ValueError):
        ls.random_rotation(2, 0, 2.5)


# ------------------------------------------------------- corner exclusion

def test_corner_exclusion_basic():
    assert ls.corner_exclusion_check(box("1", "1"), ls.givens_rotation(2, 0, 1, 0.1))


def test_corner_exclusion_rejects_identity():
    with pytest.raises(ValueError, match="identity"):
        ls.corner_exclusion_check(box("1", "1"), ls.givens_rotation(2, 0, 1, 0.0))


def test_corner_exclusion_d3():
    assert ls.corner_exclusion_check(
        box("1", "1", "1"), ls.givens_rotation(3, 0, 1, 0.05)
    )


def test_corner_exclusion_rejects_fractional_box():
    with pytest.raises(ValueError, match="integer"):
        ls.corner_exclusion_check(box("1.5", "1"), ls.givens_rotation(2, 0, 1, 0.1))


# ------------------------------------------------------ basis gauge check

def test_basis_gauge_identity_equality():
    assert ls.basis_gauge_check(box("2", "1"), ls.givens_rotation(2, 0, 1, 0.0))


def test_basis_gauge_small_rotation():
    assert ls.basis_gauge_check(box("1", "1"), ls.givens_rotation(2, 0, 1, 0.1))


def test_basis_gauge_extreme_aspect_recorded():
    # a thin box rotated by a large angle: the off-diagonal term dominates
    result = ls.basis_gauge_check(box("10", "0.1"), ls.givens_rotation(2, 0, 1, 0.5))
    assert isinstance(result, bool)


def test_basis_gauge_true_implies_minima_do_not_grow():
    base_boxes = [box("1", "1"), box("2", "1"), box("2.3", "1.7")]
    rotations = [ls.givens_rotation(2, 0, 1, t) for t in (0.02, 0.1, 0.3)]
    rotations += [ls.random_rotation(2, seed, 0.3) for seed in range(5)]
    for b in base_boxes:
        base = [float(l) for l in ls.box_minima_closed_form(b).lambdas]
        for rot in rotations:
            if not ls.basis_gauge_check(b, rot):
                continue
            rotated = ls.successive_minima(ls.RotatedBox(b, rot))
            for lam_r, lam_0 in zip(rotated.lambdas, base):
                assert float(lam_r) <= lam_0 + 1e-9


# --------------------------------------------------------- rotation sweep

def test_sweep_givens_grid_on_unit_box():
    thetas = (0.01, 0.05, 0.1, 0.2, 0.3, 0.5)
    rotations = [ls.givens_rotation(2, 0, 1, t) for t in thetas]
    records = ls.rotation_sweep(box("1", "1"), rotations)
    assert len(records) == len(thetas)
    assert records[0].g == 5
    for record, theta in zip(records, thetas):
        assert record.opnorm == pytest.approx(2 * math.sin(theta / 2), abs=1e-12)
        assert record.corner_excluded
        assert record.status is VerdictStatus.STRICT
        assert record.g <= 9 - 1


def test_sweep_empty():
    assert ls.rotation_sweep(box("1", "1"), []) == []


def test_sweep_random_within_radius_never_gains_points():
    b = box("2.3", "1.7")
    g0 = ls.count_box_closed_form(b)
    radius = ls.stability_radius(b).radius
    rotations = [ls.random_rotation(2, seed, radius * (1 - 1e-9)) for seed in range(40)]
    for record in ls.rotation_sweep(b, rotations):
        assert record.g <= g0
        assert record.status is not VerdictStatus.VIOLATION
        assert not record.corner_excluded  # box is not integer


def test_discrete_jump_conclusions_for_integer_boxes():
    # every integer box in {1,2}^d, d in {2,3,4}, every coordinate plane,
    # rotations safely inside the stability radius: the corner leaves, the
    # count drops, the bound side cannot shrink, and the verdict is strict
    for d in (2, 3, 4):
        for alphas in itertools.product((1, 2), repeat=d):
            b = ls.AxisBox([Fraction(a) for a in alphas])
            g0 = ls.count_box_closed_form(b)
            rhs0 = ls.rhs_functional(ls.box_minima_closed_form(b).lambdas)[0]
            max_theta = 2 * math.asin(ls.stability_radius(b).radius / 2)
            for i, j in itertools.combinations(range(d), 2):
                for theta in (0.01, 0.6 * max_theta):
                    rot = ls.givens_rotation(d, i, j, theta)
                    assert ls.corner_exclusion_check(b, rot)
                    v = ls.verify(ls.RotatedBox(b, rot))
                    assert v.g <= g0 - 1
                    assert v.rhs >= rhs0
                    assert v.status is VerdictStatus.STRICT, (alphas, i, j, theta)


def test_sweep_identifies_failing_rotation():
    bad = ls.givens_rotation(3, 0, 1, 0.1)  # wrong dimension for the box
    with pytest.raises(RuntimeError, match="rotation 1"):
        ls.rotation_sweep(box("1", "1"), [ls.givens_rotation(2, 0, 1, 0.1), bad])
