"""Command-line front end.

Every operation is a subcommand with machine-readable output: JSON objects
with a fixed key order for single results, RFC-4180 CSV for sweep tables.
Identical arguments (and seeds) produce byte-identical output.

Semi-axes given as ``--alphas 2.3,1.7`` are parsed as exact rationals
(2.3 -> 23/10), never floats, so floor-sensitive results cannot depend on
binary representation.  ``LATSTAB_EPS`` overrides the default boundary
band; an explicit ``--eps`` wins over the environment.

Exit codes: 0 success (verify: status tight or strict), 2 verified
violation, 3 boundary-ambiguous verdict, 1 usage or computation error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from .bodies import DEFAULT_EPS, AxisBox, LpBall, RotatedBox, Transform
from .bhw import VerdictStatus, verify
from .enumeration import count_points
from .lp import count_lp, p_threshold
from .minima import box_minima_closed_form, check_minima_sandwich, successive_minima
from .stability import givens_rotation, random_rotation, rotation_sweep, stability_radius

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2
EXIT_AMBIGUOUS = 3

_STATUS_EXIT = {
    VerdictStatus.TIGHT: EXIT_OK,
    VerdictStatus.STRICT: EXIT_OK,
    VerdictStatus.VIOLATION: EXIT_VIOLATION,
    VerdictStatus.AMBIGUOUS: EXIT_AMBIGUOUS,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the documented contract is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_ERROR)


def _parse_alphas(text: str) -> tuple[Fraction, ...]:
    parts = text.split(",")
    alphas = []
    for pos, token in enumerate(parts, start=1):
        try:
            alphas.append(Fraction(token.strip()))
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(
                f"position {pos}: {token!r} is not a rational (use e.g. 2.3 or 23/10)"
            )
    return tuple(alphas)


def _parse_givens(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected i,j,theta")
    try:
        return int(parts[0]), int(parts[1]), float(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"could not parse {text!r} as i,j,theta")


def _parse_p(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number or 'inf'")
    return value


def _parse_p_list(text: str) -> tuple[float, ...]:
    return tuple(_parse_p(tok) for tok in text.split(","))


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"could not parse {text!r} as a float list")


def _parse_plane(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected i,j")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"could not parse {text!r} as i,j")


def _body_from_args(args):
    box = AxisBox(args.alphas)
    rotate = getattr(args, "rotate_givens", None)
    p = getattr(args, "p", None)
    if rotate is not None and p is not None:
        raise ValueError("--rotate-givens and --p cannot be combined")
    if rotate is not None:
        i, j, theta = rotate
        return RotatedBox(box, givens_rotation(box.dim, i, j, theta))
    if p is not None:
        return LpBall(p, box.semi_axes)
    return box


def _num(value):
    """JSON form of a possibly exact number: Fractions as strings, floats
    as numbers."""
    if isinstance(value, Fraction):
        return str(value)
    return float(value)


def _json_line(obj) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)  # RFC 4180: CRLF line endings, minimal quoting
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _cmd_count(args) -> int:
    result = count_points(_body_from_args(args), args.eps)
    _emit(
        _json_line(
            {"count": result.count, "ambiguous": result.ambiguous, "method": result.method}
        ),
        args.out,
    )
    return EXIT_OK


def _cmd_minima(args) -> int:
    body = _body_from_args(args)
    result = (
        box_minima_closed_form(body) if isinstance(body, AxisBox) else successive_minima(body)
    )
    _emit(
        _json_line(
            {
                "lambdas": [_num(l) for l in result.lambdas],
                "witnesses": [list(w) for w in result.witnesses],
            }
        ),
        args.out,
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    verdict = verify(_body_from_args(args), args.eps)
    _emit(
        _json_line(
            {
                "g": verdict.g,
                "rhs": verdict.rhs,
                "lambdas": [_num(l) for l in verdict.lambdas],
                "status": verdict.status.value,
                "ambiguous": verdict.ambiguous_points,
            }
        ),
        args.out,
    )
    return _STATUS_EXIT[verdict.status]


def _cmd_stability_radius(args) -> int:
    report = stability_radius(AxisBox(args.alphas))
    _emit(
        _json_line(
            {
                "delta": str(report.delta),
                "radius": report.radius,
                "circumradius": report.circumradius,
            }
        ),
        args.out,
    )
    return EXIT_OK


def _cmd_rotation_sweep(args) -> int:
    box = AxisBox(args.alphas)
    if (args.thetas is None) == (args.samples is None):
        raise ValueError("give exactly one of --thetas (with --plane) or --samples")
    if args.thetas is not None:
        i, j = args.plane
        rotations = [givens_rotation(box.dim, i, j, t) for t in args.thetas]
    else:
        if args.max_opnorm is None:
            raise ValueError("--samples needs --max-opnorm")
        if args.samples < 0:
            raise ValueError(f"--samples must be nonnegative, got {args.samples}")
        rotations = [
            random_rotation(box.dim, args.seed + k, args.max_opnorm)
            for k in range(args.samples)
        ]
    records = rotation_sweep(box, rotations, args.eps)
    if args.format == "json":
        rows = [
            {
                "opnorm": r.opnorm,
                "g": r.g,
                "rhs": r.rhs,
                "status": r.status.value,
                "corner_excluded": r.corner_excluded,
            }
            for r in records
        ]
        _emit(_json_line(rows), args.out)
    else:
        _emit(
            _csv_text(
                ["opnorm", "g", "rhs", "status", "corner_excluded"],
                [
                    [r.opnorm, r.g, r.rhs, r.status.value, str(r.corner_excluded).lower()]
                    for r in records
                ],
            ),
            args.out,
        )
    return EXIT_OK


def _cmd_lp_threshold(args) -> int:
    report = p_threshold(AxisBox(args.alphas))
    _emit(
        _json_line(
            {
                "p0": report.p0,
                "excluded": list(report.excluded_coords),
                "beta_max": report.beta_max,
            }
        ),
        args.out,
    )
    return EXIT_OK


def _cmd_lp_sweep(args) -> int:
    box = AxisBox(args.alphas)
    results = [(p, count_lp(box, p, args.eps)) for p in args.ps]
    if args.format == "json":
        rows = [
            {"p": (None if p == math.inf else p), "count": c.count, "ambiguous": c.ambiguous}
            for p, c in results
        ]
        _emit(_json_line(rows), args.out)
    else:
        _emit(
            _csv_text(
                ["p", "count", "ambiguous"],
                [["inf" if p == math.inf else repr(p), c.count, c.ambiguous] for p, c in results],
            ),
            args.out,
        )
    return EXIT_OK


def _cmd_sandwich_check(args) -> int:
    box = AxisBox(args.alphas)
    given = [
        opt
        for opt in (args.scale, args.transform_givens, args.transform)
        if opt is not None
    ]
    if len(given) != 1:
        raise ValueError(
            "give exactly one of --scale, --transform-givens, or --transform"
        )
    if args.scale is not None:
        transform = Transform(args.scale * np.eye(box.dim))
    elif args.transform_givens is not None:
        i, j, theta = args.transform_givens
        rot = givens_rotation(box.dim, i, j, theta)
        transform = Transform(rot.matrix, rot.matrix.T)
    else:
        entries = args.transform
        if len(entries) != box.dim * box.dim:
            raise ValueError(
                f"--transform needs {box.dim * box.dim} row-major entries for a "
                f"{box.dim}-dimensional box, got {len(entries)}"
            )
        transform = Transform(np.array(entries).reshape(box.dim, box.dim))
    report = check_minima_sandwich(box, transform)
    _emit(
        _json_line(
            {
                "eps": report.eps,
                "eps_prime": report.eps_prime,
                "lambdas": [_num(l) for l in report.base_lambdas],
                "lambdas_image": [_num(l) for l in report.image_lambdas],
                "lower_ok": list(report.lower_ok),
                "upper_ok": list(report.upper_ok),
                "all_ok": report.all_ok,
            }
        ),
        args.out,
    )
    return EXIT_OK


def _add_body_flags(sub, with_body_variants=True):
    sub.add_argument(
        "--alphas",
        type=_parse_alphas,
        required=True,
        help="comma-separated exact rational semi-axes, e.g. 2.3,1.7 or 23/10,17/10",
    )
    if with_body_variants:
        sub.add_argument(
            "--rotate-givens",
            type=_parse_givens,
            default=None,
            metavar="I,J,THETA",
            help="rotate the box by a planar rotation in coordinates (i, j)",
        )
        sub.add_argument(
            "--p",
            type=_parse_p,
            default=None,
            help="use the Lp-ball with these semi-axes; a number >= 1 or 'inf'",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="latstab",
        description="Lattice point counts, successive minima, and stability "
        "verdicts for boxes, rotated boxes, and Lp-balls.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="lattice point count of a body")
    _add_body_flags(p_count)
    p_count.set_defaults(func=_cmd_count)

    p_minima = sub.add_parser("minima", help="successive minima with witnesses")
    _add_body_flags(p_minima)
    p_minima.set_defaults(func=_cmd_minima)

    p_verify = sub.add_parser(
        "verify", help="check the floor-product bound; exit code maps the verdict"
    )
    _add_body_flags(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_rad = sub.add_parser("stability-radius", help="isolation distance over circumradius")
    _add_body_flags(p_rad, with_body_variants=False)
    p_rad.set_defaults(func=_cmd_stability_radius)

    p_sweep = sub.add_parser("rotation-sweep", help="verdicts over a family of rotations")
    _add_body_flags(p_sweep, with_body_variants=False)
    p_sweep.add_argument("--plane", type=_parse_plane, default=(0, 1), metavar="I,J")
    p_sweep.add_argument(
        "--thetas", type=_parse_float_list, default=None, metavar="T1,T2,..."
    )
    p_sweep.add_argument("--samples", type=int, default=None)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--max-opnorm", type=float, default=None)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=_cmd_rotation_sweep)

    p_thresh = sub.add_parser("lp-threshold", help="sufficient Lp invariance threshold")
    _add_body_flags(p_thresh, with_body_variants=False)
    p_thresh.set_defaults(func=_cmd_lp_threshold)

    p_lpsweep = sub.add_parser("lp-sweep", help="lattice counts over a grid of p")
    _add_body_flags(p_lpsweep, with_body_variants=False)
    p_lpsweep.add_argument(
        "--ps", type=_parse_p_list, required=True, metavar="P1,P2,...",
        help="comma-separated p values; 'inf' allowed",
    )
    p_lpsweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_lpsweep.set_defaults(func=_cmd_lp_sweep)

    p_sand = sub.add_parser(
        "sandwich-check", help="two-sided continuity bounds on the minima of TK"
    )
    _add_body_flags(p_sand, with_body_variants=False)
    p_sand.add_argument("--scale", type=float, default=None, help="T = scale * I")
    p_sand.add_argument(
        "--transform-givens", type=_parse_givens, default=None, metavar="I,J,THETA"
    )
    p_sand.add_argument(
        "--transform", type=_parse_float_list, default=None, metavar="A11,A12,...",
        help="row-major entries of T",
    )
    p_sand.set_defaults(func=_cmd_sandwich_check)

    for p_cmd in sub.choices.values():
        p_cmd.add_argument("--out", default=None, help="output file (default stdout)")
        p_cmd.add_argument(
            "--eps",
            type=float,
            default=None,
            help=f"boundary band half-width (default {DEFAULT_EPS}, or $LATSTAB_EPS)",
        )

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    source = "--eps"
    if args.eps is None:
        env = os.environ.get("LATSTAB_EPS")
        source = "LATSTAB_EPS"
        try:
            args.eps = float(env) if env is not None else DEFAULT_EPS
        except ValueError:
            sys.stderr.write(f"latstab: error: LATSTAB_EPS={env!r} is not a number\n")
            return EXIT_ERROR
    if not 0 <= args.eps < math.inf:
        sys.stderr.write(
            f"latstab: error: eps must be nonnegative and finite, got {source}={args.eps}\n"
        )
        return EXIT_ERROR
    try:
        return args.func(args)
    except (ValueError, TypeError) as exc:
        sys.stderr.write(f"latstab {args.command}: error: {exc}\n")
        return EXIT_ERROR
    except RuntimeError as exc:
        sys.stderr.write(f"latstab {args.command}: numeric error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
