"""Tests of the benchmark's own checkers: each gets a deliberately wrong
result and must report it, and a right one and must pass it.

    python3 bench/checker_tests.py        (or: python3 -m pytest bench/checker_tests.py)

The file name does not match pytest's test_*.py pattern, and pytest's
testpaths is tests/, so the default test run never collects it.
"""

import dataclasses
import os
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import latstab as ls  # noqa: E402
from latstab import VerdictStatus  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402


def box(*alphas):
    return ls.AxisBox(tuple(Fraction(a) for a in alphas))


class CliCheck(unittest.TestCase):
    expected = {"argv": ["verify", "--alphas", "1,1"], "stdout": '{"g":9}\n', "exit": 0}

    def test_right_output_passes(self):
        self.assertIsNone(W.check_cli(self.expected, b'{"g":9}\n', 0))

    def test_wrong_stdout_fails(self):
        self.assertIsNotNone(W.check_cli(self.expected, b'{"g":8}\n', 0))

    def test_wrong_exit_code_fails(self):
        self.assertIsNotNone(W.check_cli(self.expected, b'{"g":9}\n', 3))

    def test_recorded_calls_pass_in_process(self):
        for expected in W.load_golden():
            self.assertIsNone(W.check_cli(expected, *W.run_cli_warm(expected["argv"])))


class VerifyCheck(unittest.TestCase):
    def setUp(self):
        self.axis = box("2.3", "1.7")
        self.lp = ls.LpBall(2.5, self.axis.semi_axes)

    def _case(self, body):
        verdict = ls.verify(body)
        return spans.family(body), verdict, ls.count_lattice_points(body)

    def test_right_verdicts_pass(self):
        rot = ls.RotatedBox(self.axis, ls.givens_rotation(2, 0, 1, 0.3))
        for body in (self.axis, self.lp, rot, ls.LpBall(2, self.axis.semi_axes)):
            fam, verdict, oracle = self._case(body)
            closed = ls.box_minima_closed_form(body).lambdas if fam == "axis" else None
            self.assertIsNone(W.check_verify(fam, verdict, oracle, closed))

    def test_wrong_count_fails(self):
        fam, verdict, oracle = self._case(self.lp)
        wrong = dataclasses.replace(verdict, g=verdict.g + 1)
        self.assertIsNotNone(W.check_verify(fam, wrong, oracle))

    def test_wrong_ambiguous_count_fails(self):
        fam, verdict, oracle = self._case(self.lp)
        wrong = dataclasses.replace(verdict, ambiguous_points=verdict.ambiguous_points + 1)
        self.assertIsNotNone(W.check_verify(fam, wrong, oracle))

    def test_wrong_axis_minima_fail(self):
        fam, verdict, oracle = self._case(self.axis)
        closed = ls.box_minima_closed_form(self.axis).lambdas
        wrong = dataclasses.replace(verdict, lambdas=tuple(reversed(verdict.lambdas)))
        self.assertIsNotNone(W.check_verify(fam, wrong, oracle, closed))

    def test_status_inconsistent_with_g_and_rhs_fails(self):
        fam, verdict, oracle = self._case(self.axis)  # g=15 < rhs=20: strict
        for status, rhs in (
            (VerdictStatus.TIGHT, verdict.rhs),
            (VerdictStatus.STRICT, verdict.g),
            (VerdictStatus.VIOLATION, verdict.rhs),
            (VerdictStatus.AMBIGUOUS, verdict.rhs),  # exact path
        ):
            wrong = dataclasses.replace(verdict, status=status, rhs=rhs)
            self.assertIsNotNone(W.check_verify(fam, wrong, oracle), status)

    def test_unexplained_ambiguous_status_fails(self):
        rot = ls.RotatedBox(self.axis, ls.givens_rotation(2, 0, 1, 0.3))
        fam, verdict, oracle = self._case(rot)
        self.assertEqual(verdict.ambiguous_points, 0)
        wrong = dataclasses.replace(verdict, status=VerdictStatus.AMBIGUOUS, snapped=False)
        self.assertIsNotNone(W.check_verify(fam, wrong, oracle))


class SweepCheck(unittest.TestCase):
    def setUp(self):
        self.box = box(1, 1)
        self.radius = ls.stability_radius(self.box).radius
        rotations = [ls.random_rotation(2, k, 2 * self.radius) for k in range(8)]
        self.records = ls.rotation_sweep(self.box, rotations)

    def _with(self, k, **changes):
        records = list(self.records)
        records[k] = dataclasses.replace(records[k], **changes)
        return records

    def test_right_sweep_passes(self):
        self.assertIsNone(W.check_sweep(self.box, self.radius, 8, self.records))

    def test_missing_row_fails(self):
        self.assertIsNotNone(W.check_sweep(self.box, self.radius, 8, self.records[:-1]))

    def test_violation_fails(self):
        wrong = self._with(0, status=VerdictStatus.VIOLATION)
        self.assertIsNotNone(W.check_sweep(self.box, self.radius, 8, wrong))

    def test_count_above_box_inside_radius_fails(self):
        k = next(i for i, r in enumerate(self.records) if r.opnorm < self.radius)
        wrong = self._with(k, g=ls.count_box_closed_form(self.box) + 1)
        self.assertIsNotNone(W.check_sweep(self.box, self.radius, 8, wrong))

    def test_integer_box_without_corner_exclusion_fails(self):
        wrong = self._with(3, corner_excluded=False)
        self.assertIsNotNone(W.check_sweep(self.box, self.radius, 8, wrong))


class ThresholdCheck(unittest.TestCase):
    def test_scalar_root_equals_p0_for_equal_semi_axes(self):
        b = box("1.5", "1.5")
        self.assertAlmostEqual(W.scalar_root(b), ls.p_threshold(b).p0, places=10)

    def test_scalar_root_is_one_when_p1_already_suffices(self):
        self.assertEqual(W.scalar_root(box("1.5", "0.7")), 1.0)

    def test_right_threshold_passes(self):
        b = box("2.3", "1.7", "1.4")
        p0 = ls.p_threshold(b).p0
        self.assertIsNone(W.check_threshold(b, p0, ls.empirical_threshold(b)))

    def test_threshold_above_p0_fails(self):
        b = box("2.3", "1.7")
        p0 = ls.p_threshold(b).p0
        self.assertIsNotNone(W.check_threshold(b, p0, p0 + 1e-3))

    def test_threshold_off_the_root_fails(self):
        b = box("2.3", "1.7")
        p0 = ls.p_threshold(b).p0
        p_star = ls.empirical_threshold(b)
        self.assertIsNotNone(W.check_threshold(b, p0, p_star - 1e-4))


class Harness(unittest.TestCase):
    def test_tail_is_the_eleventh_largest(self):
        value, pct, beyond = run.tail([float(k) for k in range(100)])
        self.assertEqual((value, pct, beyond), (89.0, 90.0, 10))

    def test_traced_passes_repeat_counts_and_restore_names(self):
        wl = W.WORKLOADS["rotation_sweep"](3, os.path.dirname(HERE))
        original = ls.stability.euclidean_opnorm
        counts = []
        for _ in range(2):
            tracer = spans.Tracer()
            with spans.installed(tracer):
                for index, item in enumerate(wl.items[:3]):
                    with tracer.operation(index):
                        wl.run(item)
            counts.append(spans.layer_metrics(tracer.spans)[0])
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["stability.opnorm_calls_per_row"], 0)
        self.assertIs(ls.stability.euclidean_opnorm, original)


if __name__ == "__main__":
    unittest.main()
