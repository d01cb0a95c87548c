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


_KIND = {
    Fraction: "a rational (use e.g. 2.3 or 23/10)",
    float: "a number",
    int: "an integer",
}


def _comma_list(*converters):
    """argparse ``type`` for a comma-separated list: any number of values
    when given one converter, exactly one value per converter otherwise."""

    def parse(text: str) -> tuple:
        tokens = text.split(",")
        if len(converters) > 1 and len(tokens) != len(converters):
            raise argparse.ArgumentTypeError(
                f"expected {len(converters)} comma-separated values, got {len(tokens)}"
            )
        kinds = converters * len(tokens) if len(converters) == 1 else converters
        values = []
        for pos, (convert, token) in enumerate(zip(kinds, tokens), start=1):
            try:
                values.append(convert(token.strip()))
            except (ValueError, ZeroDivisionError):
                raise argparse.ArgumentTypeError(
                    f"position {pos}: {token!r} is not {_KIND[convert]}"
                )
        return tuple(values)

    return parse


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


def _json(obj, code: int = EXIT_OK) -> tuple[str, int]:
    return json.dumps(obj, separators=(",", ":")) + "\n", code


def _table(fmt: str, header, rows) -> tuple[str, int]:
    """A sweep table: RFC-4180 CSV (CRLF line endings, minimal quoting) with
    lower-case booleans, or a JSON list of objects keyed by the header with
    non-finite floats as null."""
    if fmt == "json":
        return _json([
            {k: None if isinstance(v, float) and not math.isfinite(v) else v
             for k, v in zip(header, row)}
            for row in rows
        ])
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([str(v).lower() if isinstance(v, bool) else v for v in row])
    return buf.getvalue(), EXIT_OK


# Every subcommand, registered in this order by build_parser:
# (name, summary, flags after --alphas and before --out/--eps, handler).
_COMMANDS = []
_GIVENS = {"type": _comma_list(int, int, float), "metavar": "I,J,THETA"}
_FORMAT = ("--format", {"choices": ("csv", "json"), "default": "csv"})
_ALPHAS = ("--alphas", {
    "type": _comma_list(Fraction), "required": True,
    "help": "comma-separated exact rational semi-axes, e.g. 2.3,1.7 or 23/10,17/10",
})
_BODY_VARIANTS = (
    ("--rotate-givens",
     dict(_GIVENS, help="rotate the box by a planar rotation in coordinates (i, j)")),
    ("--p", {"type": float,
             "help": "use the Lp-ball with these semi-axes; a number >= 1 or 'inf'"}),
)
_OUT_AND_EPS = (
    ("--out", {"help": "output file (default stdout)"}),
    ("--eps", {"type": float,
               "help": f"boundary band half-width (default {DEFAULT_EPS}, or $LATSTAB_EPS)"}),
)


def _command(name, summary, *flags):
    def register(handler):
        _COMMANDS.append((name, summary, flags, handler))
        return handler

    return register


@_command("count", "lattice point count of a body", *_BODY_VARIANTS)
def _cmd_count(body, args):
    result = count_points(body, args.eps)
    return _json(
        {"count": result.count, "ambiguous": result.ambiguous, "method": result.method}
    )


@_command("minima", "successive minima with witnesses", *_BODY_VARIANTS)
def _cmd_minima(body, args):
    box = body._box
    result = box_minima_closed_form(box) if box is not None else successive_minima(body)
    return _json({
        "lambdas": [_num(l) for l in result.lambdas],
        "witnesses": [list(w) for w in result.witnesses],
    })


@_command(
    "verify", "check the floor-product bound; exit code maps the verdict", *_BODY_VARIANTS
)
def _cmd_verify(body, args):
    verdict = verify(body, args.eps)
    return _json({
        "g": verdict.g,
        "rhs": verdict.rhs,
        "lambdas": [_num(l) for l in verdict.lambdas],
        "status": verdict.status.value,
        "ambiguous": verdict.ambiguous_points,
    }, _STATUS_EXIT[verdict.status])


@_command("stability-radius", "isolation distance over circumradius")
def _cmd_stability_radius(box, args):
    report = stability_radius(box)
    return _json({
        "delta": str(report.delta),
        "radius": report.radius,
        "circumradius": report.circumradius,
    })


@_command(
    "rotation-sweep",
    "verdicts over a family of rotations",
    ("--plane", {"type": _comma_list(int, int), "default": (0, 1), "metavar": "I,J"}),
    ("--thetas", {"type": _comma_list(float), "metavar": "T1,T2,..."}),
    ("--samples", {"type": int}),
    ("--seed", {"type": int, "default": 0}),
    ("--max-opnorm", {"type": float}),
    _FORMAT,
)
def _cmd_rotation_sweep(box, args):
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
    return _table(
        args.format,
        ["opnorm", "g", "rhs", "status", "corner_excluded"],
        [[r.opnorm, r.g, r.rhs, r.status.value, r.corner_excluded] for r in records],
    )


@_command("lp-threshold", "sufficient Lp invariance threshold")
def _cmd_lp_threshold(box, args):
    report = p_threshold(box)
    return _json({
        "p0": report.p0,
        "excluded": list(report.excluded_coords),
        "beta_max": report.beta_max,
    })


@_command(
    "lp-sweep",
    "lattice counts over a grid of p",
    ("--ps", {"type": _comma_list(float), "required": True, "metavar": "P1,P2,...",
              "help": "comma-separated p values; 'inf' allowed"}),
    _FORMAT,
)
def _cmd_lp_sweep(box, args):
    counts = [count_lp(box, p, args.eps) for p in args.ps]
    return _table(
        args.format,
        ["p", "count", "ambiguous"],
        [[p, c.count, c.ambiguous] for p, c in zip(args.ps, counts)],
    )


@_command(
    "sandwich-check",
    "two-sided continuity bounds on the minima of TK",
    ("--scale", {"type": float, "help": "T = scale * I"}),
    ("--transform-givens", _GIVENS),
    ("--transform", {"type": _comma_list(float), "metavar": "A11,A12,...",
                     "help": "row-major entries of T"}),
)
def _cmd_sandwich_check(box, args):
    given = (args.scale, args.transform_givens, args.transform)
    if sum(opt is not None for opt in given) != 1:
        raise ValueError("give exactly one of --scale, --transform-givens, or --transform")
    import numpy as np

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
    return _json({
        "eps": report.eps,
        "eps_prime": report.eps_prime,
        "lambdas": [_num(l) for l in report.base_lambdas],
        "lambdas_image": [_num(l) for l in report.image_lambdas],
        "lower_ok": list(report.lower_ok),
        "upper_ok": list(report.upper_ok),
        "all_ok": report.all_ok,
    })


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="latstab",
        description="Lattice point counts, successive minima, and stability "
        "verdicts for boxes, rotated boxes, and Lp-balls.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, flags, handler in _COMMANDS:
        cmd = sub.add_parser(name, help=summary)
        for flag, kwargs in (_ALPHAS, *flags, *_OUT_AND_EPS):
            cmd.add_argument(flag, **kwargs)
        cmd.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
        text, code = args.func(_body_from_args(args), args)
        if args.out is None or args.out == "-":
            sys.stdout.write(text)
        else:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        return code
    except (ValueError, TypeError, OSError) as exc:
        sys.stderr.write(f"latstab {args.command}: error: {exc}\n")
        return EXIT_ERROR
    except RuntimeError as exc:
        sys.stderr.write(f"latstab {args.command}: numeric error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
