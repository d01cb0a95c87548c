"""The benchmark's contract with the package, checked without running it.

bench/cli_golden.json records the exact stdout and exit code of every CLI
call the cold-start workload makes, and bench/spans.py patches named
functions in latstab modules for the traced run.  Both are read here and
nothing under bench/ is changed.
"""

import importlib.util
import json
import pathlib
from fractions import Fraction

import pytest

import latstab as ls
from latstab import bhw, cli

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
GOLDEN = json.loads((BENCH / "cli_golden.json").read_text())["calls"]


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("call", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_golden_cli_bytes(call, capsys, monkeypatch):
    monkeypatch.delenv("LATSTAB_EPS", raising=False)
    code = cli.main(list(call["argv"]))
    assert (capsys.readouterr().out, code) == (call["stdout"], call["exit"])


def test_tracer_patches_existing_names_and_restores_them():
    spans = _load_spans()
    original = bhw.verify
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert bhw.verify is not original
        with tracer.operation(0):
            bhw.verify(ls.LpBall(3, (Fraction(3, 2), Fraction(3, 2))))
    assert bhw.verify is original
    counts, _ = spans.layer_metrics(tracer.spans)
    assert counts["bhw.verify_calls"] == 1
    assert counts["enumeration.classify_calls"] == 1
    assert counts["enumeration.candidates"] == 9
    assert counts["minima.calls"] == 1
