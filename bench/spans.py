"""In-memory spans around the calls one latstab module makes into another.

The traced run patches module-level names (for example
``latstab.bhw.classify_lattice_points``) with wrappers that open a span,
call the original and close the span.  Spans carry a parent link and the
index of the benchmark operation that caused them.  ``contains`` runs once
per candidate lattice point, so it is not given a span of its own: each call
adds its count and time to the span that is open, keyed by body family.

Nothing here changes what latstab computes; ``installed`` restores every
patched name when it exits.
"""

from __future__ import annotations

import contextlib
import statistics
import time

from latstab.bodies import AxisBox, LpBall, RotatedBox

_ns = time.perf_counter_ns

FAMILIES = ("axis", "givens", "rotated", "lp_int", "lp_float")


def family(body) -> str:
    """Body family as the per-family metrics name it."""
    if isinstance(body, AxisBox):
        return "axis"
    if isinstance(body, RotatedBox):
        return "givens" if body.rotation.plane is not None else "rotated"
    if isinstance(body, LpBall):
        if body.is_box:
            return "axis"
        return "lp_int" if body.int_exponent is not None else "lp_float"
    return "other"


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "attrs", "child_ns", "contains")

    def __init__(self, sid, parent, op, name, attrs):
        self.id = sid
        self.parent = parent
        self.op = op
        self.name = name
        self.attrs = attrs
        self.child_ns = 0
        self.contains = {}  # body family -> [calls, ns] of contains calls
        self.start = _ns()
        self.end = None

    @property
    def dur_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.dur_ns - self.child_ns - sum(ns for _, ns in self.contains.values())

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "op": self.op,
            "name": self.name,
            "start_ns": self.start,
            "end_ns": self.end,
            "attrs": self.attrs,
            "contains": self.contains,
        }


class Tracer:
    """Collects spans for one traced pass; not thread-safe, by design the
    benchmark drives latstab from one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op = None

    def _open(self, name, attrs) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.id if parent else None, self.op, name, attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = _ns()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_ns += span.dur_ns

    @contextlib.contextmanager
    def operation(self, index: int):
        """Top-level span for one benchmark operation; its descendants share
        its index."""
        self.op = index
        span = self._open("op", {})
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name, fn, attrs=None, result_attrs=None):
        def traced(*args, **kwargs):
            span = self._open(name, attrs(args) if attrs else {})
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if result_attrs:
                span.attrs.update(result_attrs(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, fn):
        """Wrapper for ``contains``: adds one call and its time to the open
        span's per-family tally instead of opening a span."""
        stack = self._stack

        def counted(body, *args, **kwargs):
            t0 = _ns()
            result = fn(body, *args, **kwargs)
            dt = _ns() - t0
            if stack:
                tally = stack[-1].contains.setdefault(family(body), [0, 0])
                tally[0] += 1
                tally[1] += dt
            return result

        counted.__wrapped__ = fn
        return counted


def _targets(tracer: Tracer):
    """(module, attribute, replacement) for every boundary the traced run
    records.  Each module imported its collaborators by name, so a name is
    patched in the module that calls it."""
    from latstab import bhw, cli, enumeration, lp, stability

    def fam(args):
        return {"family": family(args[0])}

    def useful(result):
        inside, ambiguous = result
        return {"useful": len(inside) + len(ambiguous)}

    def rows(result):
        return {"rows": len(result)}

    spans = [
        ("bhw.verify", fam, None, [(bhw, "verify"), (stability, "verify"), (cli, "verify")]),
        (
            "enumeration.classify",
            fam,
            useful,
            [(bhw, "classify_lattice_points"), (lp, "classify_lattice_points"),
             (enumeration, "classify_lattice_points")],
        ),
        ("minima.successive_minima", fam, None, [(bhw, "successive_minima"), (cli, "successive_minima")]),
        ("minima.box_closed_form", None, None,
         [(bhw, "box_minima_closed_form"), (cli, "box_minima_closed_form")]),
        ("bhw.rhs", None, None, [(bhw, "rhs_functional"), (bhw, "_exact_lp_rhs_factor")]),
        ("bodies.euclidean_opnorm", None, None, [(stability, "euclidean_opnorm")]),
        ("stability.expm", None, None, [(stability, "expm")]),
        ("stability.corner_exclusion", None, None, [(stability, "corner_exclusion_check")]),
        ("stability.random_rotation", None, None, [(stability, "random_rotation")]),
        ("stability.rotation_sweep", None, rows, [(stability, "rotation_sweep"), (cli, "rotation_sweep")]),
        ("lp.p_threshold", None, None, [(lp, "p_threshold"), (cli, "p_threshold")]),
        ("lp.empirical_threshold", None, None, [(lp, "empirical_threshold")]),
        ("lp.invariance_probe", None, None, [(lp, "_invariant_at")]),
    ]
    out = []
    for name, attrs, result_attrs, sites in spans:
        for module, attr in sites:
            out.append((module, attr, tracer.wrap(name, getattr(module, attr), attrs, result_attrs)))
    for module in (enumeration, stability):
        out.append((module, "contains", tracer.counted(module.contains)))
    return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every traced boundary for the duration of the block."""
    patches = _targets(tracer)
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, replacement in patches:
            setattr(module, attr, replacement)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _ms(ns) -> float:
    return ns / 1e6


def layer_metrics(spans: list[Span]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, split into (counts, times).

    Counts depend only on the operations run, so two passes over the same
    operations must give identical counts; times are measured.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    contains_calls = {f: 0 for f in FAMILIES}
    contains_ns = {f: 0 for f in FAMILIES}
    for s in spans:
        for fam, (calls, ns) in s.contains.items():
            if fam in contains_calls:
                contains_calls[fam] += calls
                contains_ns[fam] += ns

    classify = named("enumeration.classify")
    candidates = sum(calls for s in classify for calls, _ in s.contains.values())
    useful = sum(s.attrs["useful"] for s in classify)
    minima = named("minima.successive_minima") + named("minima.box_closed_form")
    verify = named("bhw.verify")
    opnorm = named("bodies.euclidean_opnorm")
    sweep_rows = sum(s.attrs["rows"] for s in named("stability.rotation_sweep"))
    p_thr = named("lp.p_threshold")

    counts = {
        "bodies.contains_calls": sum(contains_calls.values()),
        "bodies.euclidean_opnorm_calls": len(opnorm),
        "enumeration.classify_calls": len(classify),
        "enumeration.candidates": candidates,
        "minima.calls": len(minima),
        "bhw.verify_calls": len(verify),
        "stability.opnorm_calls_per_row": (len(opnorm) / sweep_rows) if sweep_rows else 0.0,
        "lp.invariance_probes": len(named("lp.invariance_probe")),
        "enumeration.useful_ratio": (useful / candidates) if candidates else 0.0,
    }
    counts.update({f"contains_calls.{f}": n for f, n in contains_calls.items()})

    times = {
        "bodies.euclidean_opnorm_self_ms": _ms(sum(s.self_ns for s in opnorm)),
        "enumeration.classify_self_ms": _ms(sum(s.self_ns for s in classify)),
        "minima.self_ms": _ms(sum(s.self_ns for s in minima)),
        "bhw.verify_self_ms": _ms(sum(s.self_ns for s in verify)),
        "bhw.rhs_functional_us": (
            sum(s.dur_ns for s in named("bhw.rhs")) / len(verify) / 1e3 if verify else 0.0
        ),
        "stability.random_rotation_self_ms": _ms(
            sum(s.self_ns for s in named("stability.random_rotation"))
        ),
        "stability.expm_ms": _ms(sum(s.dur_ns for s in named("stability.expm"))),
        "stability.rotation_sweep_self_ms": _ms(
            sum(s.self_ns for s in named("stability.rotation_sweep"))
        ),
        "stability.corner_exclusion_ms": _ms(
            sum(s.dur_ns for s in named("stability.corner_exclusion"))
        ),
        "lp.empirical_threshold_self_ms": _ms(
            sum(s.self_ns for s in named("lp.empirical_threshold"))
        ),
        "lp.p_threshold_us": (
            statistics.fmean(s.dur_ns for s in p_thr) / 1e3 if p_thr else 0.0
        ),
    }
    for f in FAMILIES:
        times[f"bodies.contains_ns_per_call.{f}"] = (
            contains_ns[f] / contains_calls[f] if contains_calls[f] else 0.0
        )
        durs = [s.dur_ns for s in verify if s.attrs["family"] == f]
        times[f"bhw.verify_ms_p50.{f}"] = _ms(statistics.median(durs)) if durs else 0.0
    return counts, times
