"""The four benchmark workloads: inputs made from the seed, the operation
each input runs, and the check each operation's output must pass.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Inputs are stratified: the seed draws
the fractional parts of the semi-axes, the exponents and the rotations, but
every seed gets the same shapes (dimension and integer parts), so the work a
run does, and with it the figures, depends little on which seed is used.
Why each workload exists, and what it stresses and bypasses, is in
README.md beside this file.

Importing this module imports latstab; ``run.py`` times that import as part
of set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np

from latstab import bhw, cli, lp, stability
from latstab.bhw import VerdictStatus
from latstab.bodies import AxisBox, LpBall, RotatedBox
from latstab.enumeration import count_box_closed_form, count_lattice_points
from latstab.minima import box_minima_closed_form

from spans import FAMILIES, family

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "cli_golden.json")

#: |p* - max(1, scalar root)| allowed in the lp_threshold check: two
#: bisection tolerances of empirical_threshold (default tol 1e-6).  The eps
#: band moves the float transition by far less (about eps / |d gauge/dp|).
THRESHOLD_TOL = 2e-6


def _rng(seed: int, name: str) -> random.Random:
    # str seeds hash with SHA-512, so this is stable across processes
    return random.Random(f"latstab-bench:{name}:{seed}")


def _stratified(rng: random.Random, n: int) -> list[float]:
    """n draws from [0, 1), one in each of n equal bands, in random order."""
    bands = list(range(n))
    rng.shuffle(bands)
    return [(b + rng.random()) / n for b in bands]


#: Denominator of the k-th semi-axis, by k mod 4.  Exact paths do rational
#: arithmetic whose cost grows with the denominators, so they are fixed and
#: the seed draws only the numerators.
DENOMINATORS = (7, 9, 8, 10)


def _semi_axis(floor: int, u: float, q: int, allow_integer: bool = True) -> Fraction:
    """A rational with the given integer part, denominator q and a
    fractional part near u in [0, 1); floor 0 maps u into [1/2, 1)."""
    if floor == 0:
        return Fraction(min(q - 1, max((q + 1) // 2, round((1 + u) * q / 2))), q)
    return floor + Fraction(min(q - 1, max(0 if allow_integer else 1, round(u * q))), q)


def _replica_axes(rng: random.Random, floors, replicas: int, allow_integer=True, span=1.0):
    """Semi-axes for ``replicas`` boxes of one shape, each coordinate's
    fractional parts stratified across the replicas; ``span`` scales the
    fractional parts of floor-4 coordinates (lp_threshold keeps those below
    4.5)."""
    fracs = [_stratified(rng, replicas) for _ in floors]
    return [
        tuple(
            _semi_axis(f, u[r] * (span if f == 4 else 1.0), DENOMINATORS[k % 4], allow_integer)
            for k, (f, u) in enumerate(zip(floors, fracs))
        )
        for r in range(replicas)
    ]


# ---------------------------------------------------------------- checkers
# Each returns None when the output is right and a one-line reason when not.


def check_cli(expected: dict, stdout: bytes, exit_code: int) -> str | None:
    if exit_code != expected["exit"]:
        return f"exit code {exit_code}, expected {expected['exit']}"
    if stdout != expected["stdout"].encode():
        return f"stdout {stdout[:80]!r} differs from the recorded output"
    return None


def check_verify(fam: str, verdict, oracle, closed_form_lambdas=None) -> str | None:
    """Compare a verdict with the brute-force count and, for axis boxes, the
    closed-form minima; the status must agree with g against rhs."""
    if verdict.g != oracle.count or verdict.ambiguous_points != oracle.ambiguous:
        return (
            f"g={verdict.g}, ambiguous={verdict.ambiguous_points}; oracle "
            f"{oracle.count}, {oracle.ambiguous}"
        )
    if closed_form_lambdas is not None and tuple(verdict.lambdas) != tuple(closed_form_lambdas):
        return f"lambdas {verdict.lambdas} differ from the closed form {closed_form_lambdas}"
    status, g, rhs = verdict.status, verdict.g, verdict.rhs
    if status is VerdictStatus.TIGHT and g != rhs:
        return f"tight with g={g} != rhs={rhs}"
    if status is VerdictStatus.STRICT and g >= rhs:
        return f"strict with g={g} >= rhs={rhs}"
    if status is VerdictStatus.VIOLATION:
        return f"violation reported (g={g}, rhs={rhs})"
    if status is VerdictStatus.AMBIGUOUS:
        if fam in ("axis", "lp_int"):
            return f"boundary-ambiguous on the exact {fam} path"
        if not (verdict.ambiguous_points or verdict.snapped or g > rhs):
            return "boundary-ambiguous with no ambiguous point, snap or excess"
    return None


def check_sweep(box, radius: float, rows: int, records) -> str | None:
    """No violation; inside the stability radius g stays at most the box
    count; an integer box has a corner excluded by every rotation."""
    if len(records) != rows:
        return f"{len(records)} records for {rows} rotations"
    box_count = count_box_closed_form(box)
    integer_box = all(a.denominator == 1 for a in box.semi_axes)
    for k, r in enumerate(records):
        if r.status is VerdictStatus.VIOLATION:
            return f"row {k}: violation"
        if r.opnorm < radius and r.g > box_count:
            return f"row {k}: g={r.g} > box count {box_count} inside the stability radius"
        if integer_box and not r.corner_excluded:
            return f"row {k}: integer box with no corner excluded"
    return None


def scalar_root(box) -> float:
    """Smallest p >= 1 with sum_i beta_i^p <= 1, beta_i = floor(a_i)/a_i over
    the coordinates with floor(a_i) >= 1, by float bisection to 1e-12.

    Every lattice point of the box has Lp gauge at most that of the corner
    z_i = floor(a_i), so this is where the Lp point set reaches the box set.
    """
    betas = [math.floor(a) / float(a) for a in box.semi_axes if math.floor(a) >= 1]

    def invariant(p):
        return sum(b**p for b in betas) <= 1.0

    lo, hi = 1.0, 2.0
    if invariant(lo):
        return lo
    while not invariant(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if invariant(mid) else (mid, hi)
    return hi


def check_threshold(box, p0: float, p_star: float, tol: float = THRESHOLD_TOL) -> str | None:
    if p_star > p0:
        return f"p*={p_star} exceeds p0={p0}"
    root = scalar_root(box)
    if abs(p_star - root) > tol:
        return f"p*={p_star} differs from the scalar root {root} by more than {tol}"
    return None


# --------------------------------------------------------------- workloads


class Workload:
    """``items`` is one cycle of operations; ``run`` executes one and
    ``check`` judges its output.  The traced run executes ``trace_items``
    with ``trace_run`` (by default one cycle of the timed operation)."""

    name = ""
    block = 0  # operations per throughput block; 0 means one cycle

    def run(self, item):
        raise NotImplementedError

    def check(self, item, out) -> str | None:
        raise NotImplementedError

    @property
    def trace_items(self):
        return self.items

    def trace_run(self, item):
        return self.run(item)

    def trace_check(self, item, out):
        return self.check(item, out)


def load_golden() -> list[dict]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)["calls"]


def run_cli_warm(argv) -> tuple[bytes, int]:
    """``latstab.cli.main`` in this process, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return buf.getvalue().encode(), code


class CliCold(Workload):
    """Fresh ``python -m latstab`` processes, one at a time, over a seeded
    mix of the recorded README-class calls."""

    name = "cli_cold"
    block = 4

    def __init__(self, seed: int, root: str):
        rng = _rng(seed, self.name)
        self.golden = load_golden()
        self.items = [rng.randrange(len(self.golden)) for _ in range(512)]
        src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        self.root = root
        self.max_rss_kb = 0

    def run(self, item):
        argv = [sys.executable, "-m", "latstab", *self.golden[item]["argv"]]
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=self.env, cwd=self.root
        )
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            # reap it ourselves: wait4 also reports this child's peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        return out, proc.returncode

    def check(self, item, out):
        return check_cli(self.golden[item], *out)

    @property
    def trace_items(self):
        return range(len(self.golden))

    def trace_run(self, item):
        return run_cli_warm(self.golden[item]["argv"])


# (dimension, integer parts) per verify_mix slot; every family gets each
# shape.  Candidate counts run from a handful (d=2) to several thousand
# (rotated d=4); ratios between semi-axes stay small in d=4 because the minima
# solver enumerates a box of half-widths a_j / a_min.
VERIFY_SHAPES = (
    (0, 1), (1, 2), (2, 3),
    (1, 1, 1), (1, 2, 2), (2, 3, 3),
    (1, 1, 1, 1), (1, 1, 2, 2), (2, 2, 3, 3),
)
#: Random rotations are drawn with this max_opnorm and kept only when
#: ||R - I|| lies in its upper half, which bounds how far the rotated
#: bounding box, and with it the candidate count, can grow.
ROTATED_MAX_OPNORM = 0.5


def verify_replicas(floors) -> int:
    """Bodies per (shape, family).  The replicas' semi-axes and angles are
    stratified and exponents and planes rotate through them, so the cost of
    a cycle varies little from seed to seed; the d=4 shapes, which dominate
    the cost, get more replicas."""
    return 6 if len(floors) == 4 else 3


class VerifyItem:
    __slots__ = ("family", "body", "oracle")

    def __init__(self, fam, body):
        self.family = fam
        self.body = body
        self.oracle = None


def _verify_slot(rng: random.Random, fam: str, floors, slot: int) -> list:
    """The replicas of one family and shape."""
    d = len(floors)
    replicas = verify_replicas(floors)
    thetas = _stratified(rng, replicas)
    bodies = []
    for r, axes in enumerate(_replica_axes(rng, floors, replicas)):
        stratum = slot + r
        if fam == "axis":
            body = AxisBox(axes)
        elif fam == "givens":
            planes = [(i, j) for i in range(d) for j in range(i + 1, d)]
            i, j = planes[stratum % len(planes)]
            body = RotatedBox(AxisBox(axes), stability.givens_rotation(d, i, j, 0.2 + 0.4 * thetas[r]))
        elif fam == "rotated":
            while True:
                rot = stability.random_rotation(d, rng.randrange(2**31), ROTATED_MAX_OPNORM)
                if np.linalg.norm(rot.matrix - np.eye(d), 2) >= ROTATED_MAX_OPNORM / 2:
                    break
            body = RotatedBox(AxisBox(axes), rot)
        elif fam == "lp_int":
            body = LpBall(1 + stratum % 4, axes)
        else:
            body = LpBall(1.5 + stratum % 4 + 0.5 * (thetas[r] - 0.5), axes)
        bodies.append(VerifyItem(fam, body))
    return bodies


class VerifyMix(Workload):
    """In-process ``verify`` on bodies of all five families."""

    name = "verify_mix"

    def __init__(self, seed: int, root: str):
        rng = _rng(seed, self.name)
        self.items = [
            item
            for slot, floors in enumerate(VERIFY_SHAPES)
            for fam in FAMILIES
            for item in _verify_slot(rng, fam, floors, slot)
        ]
        rng.shuffle(self.items)

    def run(self, item):
        return bhw.verify(item.body)

    def check(self, item, out):
        if item.oracle is None:
            item.oracle = count_lattice_points(item.body)
        closed = None
        if item.family == "axis":
            closed = box_minima_closed_form(item.body).lambdas
        return check_verify(item.family, out, item.oracle, closed)


# (integer parts, integer box?) per rotation_sweep slot.
SWEEP_SHAPES = (
    ((1, 1), True), ((2, 1), True), ((2, 2), True),
    ((1, 1), False), ((2, 1), False), ((0, 2), False),
    ((1, 1, 1), True), ((2, 1, 1), True),
    ((1, 1, 1), False), ((2, 1, 0), False),
)
#: Rotations per sweep, as in ``rotation-sweep --samples 32``.
SWEEP_ROWS = 32
#: Boxes per shape; fractional parts and the opnorm reach are stratified.
SWEEP_REPLICAS = 3


class SweepItem:
    __slots__ = ("box", "radius", "max_opnorm", "seed")

    def __init__(self, box, radius, max_opnorm, seed):
        self.box, self.radius, self.max_opnorm, self.seed = box, radius, max_opnorm, seed


class RotationSweep(Workload):
    """Per box: SWEEP_ROWS random rotations with opnorm up to a few
    stability radii, then ``rotation_sweep``."""

    name = "rotation_sweep"

    def __init__(self, seed: int, root: str):
        rng = _rng(seed, self.name)
        self.items = []
        for floors, integer in SWEEP_SHAPES:
            if integer:
                boxes = [tuple(Fraction(f) for f in floors)] * SWEEP_REPLICAS
            else:
                boxes = _replica_axes(rng, floors, SWEEP_REPLICAS, allow_integer=False)
            for axes, u in zip(boxes, _stratified(rng, SWEEP_REPLICAS)):
                box = AxisBox(axes)
                radius = stability.stability_radius(box).radius
                max_opnorm = min(2.0, (1.5 + 1.5 * u) * radius)
                self.items.append(SweepItem(box, radius, max_opnorm, rng.randrange(2**31)))
        rng.shuffle(self.items)

    def run(self, item):
        d = item.box.dim
        rotations = [
            stability.random_rotation(d, item.seed + k, item.max_opnorm) for k in range(SWEEP_ROWS)
        ]
        return stability.rotation_sweep(item.box, rotations)

    def check(self, item, out):
        return check_sweep(item.box, item.radius, SWEEP_ROWS, out)


# Integer parts per lp_threshold slot; semi-axes are non-integer in (1, 4.5).
# A box costs about 20 Lp enumerations of prod(2 floor + 1) candidates; the
# number of bisection probes grows with log(p0 - 1), which the fractional
# parts set, so each shape gets stratified replicas.
LP_SHAPES = (
    (1,), (3,), (4,),
    (1, 1), (2, 1), (3, 2), (4, 4),
    (1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 2), (4, 3, 2),
    (1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1, 1), (3, 2, 2, 1), (2, 2, 2, 2), (3, 3, 2, 2),
)
LP_REPLICAS = 2


class LpThreshold(Workload):
    """Per box: ``p_threshold`` and ``empirical_threshold``."""

    name = "lp_threshold"

    def __init__(self, seed: int, root: str):
        rng = _rng(seed, self.name)
        self.items = []
        for floors in LP_SHAPES:
            boxes = _replica_axes(rng, floors, LP_REPLICAS, allow_integer=False, span=0.45)
            self.items.extend(AxisBox(axes) for axes in boxes)
        rng.shuffle(self.items)

    def run(self, item):
        report = lp.p_threshold(item)
        return report.p0, lp.empirical_threshold(item)

    def check(self, item, out):
        return check_threshold(item, *out)


WORKLOADS = {w.name: w for w in (CliCold, VerifyMix, RotationSweep, LpThreshold)}
