import json
import math
from pathlib import Path

import pytest

from latstab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------- documented examples

def readme_examples():
    """(argv, expected lines) for every `$ latstab ...` call in README.md;
    a trailing `...` line means only the lines before it are shown."""
    examples, expected = [], None
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines():
        if line.startswith("$ latstab "):
            expected = []
            examples.append(pytest.param(line[10:].split(), expected, id=line[10:]))
        elif expected is not None and line and line != "```":
            expected.append(line)
        else:
            expected = None
    return examples


@pytest.mark.parametrize("argv, expected", readme_examples())
def test_readme_example(capsys, argv, expected):
    _, out, _ = run(capsys, *argv)
    lines = out.splitlines()
    if expected[-1] == "...":
        expected = expected[:-1]
        lines = lines[: len(expected)]
    assert lines == expected


def test_readme_examples_found():
    assert len(readme_examples()) >= 6


def test_verify_unit_box(capsys):
    code, out, _ = run(capsys, "verify", "--alphas", "1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["g"] == 9
    assert payload["rhs"] == 9
    assert payload["status"] == "tight"
    assert list(payload) == ["g", "rhs", "lambdas", "status", "ambiguous"]
    assert payload["lambdas"] == ["1", "1"]
    assert payload["ambiguous"] == 0


def test_stability_radius_half_cube(capsys):
    code, out, _ = run(capsys, "stability-radius", "--alphas", "0.5,0.5,0.5,0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["radius"] == 0.5
    assert payload["delta"] == "1/2"
    assert list(payload) == ["delta", "radius", "circumradius"]


def test_lp_threshold(capsys):
    code, out, _ = run(capsys, "lp-threshold", "--alphas", "1.5,1.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["p0"] == pytest.approx(1.709511, abs=1e-6)
    assert payload["excluded"] == []
    assert list(payload) == ["p0", "excluded", "beta_max"]


def test_repeated_runs_identical(capsys):
    outputs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "verify", "--alphas", "2.3,1.7")
        outputs.add(out)
    assert len(outputs) == 1


# -------------------------------------------------------------- exit codes

def test_exit_zero_on_strict(capsys):
    code, out, _ = run(capsys, "verify", "--alphas", "2.3,1.7")
    assert code == 0
    assert json.loads(out)["status"] == "strict"


def test_exit_three_on_ambiguous(capsys):
    code, out, _ = run(capsys, "verify", "--alphas", "1,1", "--rotate-givens", "0,1,1e-13")
    assert code == 3
    assert json.loads(out)["status"] == "boundary-ambiguous"


def test_exit_one_on_bad_rational(capsys):
    code, _, err = run(capsys, "verify", "--alphas", "1,xyz")
    assert code == 1
    assert "position 2" in err


def test_exit_one_on_conflicting_body_flags(capsys):
    code, _, err = run(
        capsys, "count", "--alphas", "1,1", "--p", "2", "--rotate-givens", "0,1,0.1"
    )
    assert code == 1
    assert "cannot be combined" in err


def test_exit_one_on_unknown_command(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_exit_one_on_numeric_precondition(capsys):
    # integer applicable semi-axis: the threshold does not exist
    code, _, err = run(capsys, "lp-threshold", "--alphas", "1,1.5")
    assert code == 1
    assert "integer" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sandwich-check", "--alphas", "1,1", "--scale", "nan"], "transform matrix"),
        (["sandwich-check", "--alphas", "1,1", "--transform", "1,0,0,nan"], "transform matrix"),
        (["verify", "--alphas", "1,1", "--rotate-givens", "0,1,nan"], "theta"),
        (["verify", "--alphas", "1,1", "--rotate-givens", "0,1,inf"], "theta"),
        (["rotation-sweep", "--alphas", "1,1", "--samples", "-2", "--max-opnorm", "0.1"],
         "--samples"),
        (["verify", "--alphas", "1,1", "--out", "/nonexistent/x.json"], "/nonexistent/x.json"),
        (["verify", "--alphas", "1,1", "--p", "0.5"], "p must be a real >= 1 or inf, got 0.5\n"),
        (["lp-sweep", "--alphas", "1,1", "--ps", "0.5"], "p must be a real >= 1 or inf, got 0.5\n"),
    ],
    ids=["scale-nan", "transform-nan", "givens-nan", "givens-inf", "negative-samples",
         "unwritable-out", "p-below-one", "ps-below-one"],
)
def test_exit_one_on_non_finite_or_negative_input(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert message in err


# ------------------------------------------------------------ body variants

def test_count_commands(capsys):
    code, out, _ = run(capsys, "count", "--alphas", "2.3,1.7")
    assert code == 0
    assert json.loads(out) == {"count": 15, "ambiguous": 0, "method": "closed-form"}
    code, out, _ = run(capsys, "count", "--alphas", "1.5,1.5", "--p", "2")
    assert json.loads(out)["count"] == 9
    code, out, _ = run(capsys, "count", "--alphas", "1,1", "--rotate-givens", "0,1,0.1")
    assert json.loads(out)["count"] == 5


def test_minima_exact_and_rotated(capsys):
    _, out, _ = run(capsys, "minima", "--alphas", "2.3,1.7")
    payload = json.loads(out)
    assert payload["lambdas"] == ["10/23", "10/17"]
    assert payload["witnesses"] == [[1, 0], [0, 1]]
    _, out, _ = run(capsys, "minima", "--alphas", "1,1", "--rotate-givens", "0,1,0.1")
    payload = json.loads(out)
    assert payload["lambdas"][0] == pytest.approx(math.cos(0.1), abs=1e-12)
    # a ball at p = inf is the box: the same closed-form witnesses
    for extra in ([], ["--p", "inf"]):
        _, out, _ = run(capsys, "minima", "--alphas", "1,2", *extra)
        assert json.loads(out)["witnesses"] == [[0, 1], [1, 0]]


def test_lp_inf_token(capsys):
    _, out, _ = run(capsys, "count", "--alphas", "1.5,1.5", "--p", "inf")
    assert json.loads(out) == {"count": 9, "ambiguous": 0, "method": "closed-form"}


# ------------------------------------------------------------------ sweeps

def test_rotation_sweep_csv(capsys):
    code, out, _ = run(
        capsys, "rotation-sweep", "--alphas", "1,1", "--plane", "0,1",
        "--thetas", "0.01,0.1",
    )
    assert code == 0
    lines = out.split("\r\n")
    assert lines[0] == "opnorm,g,rhs,status,corner_excluded"
    assert len(lines) == 4 and lines[3] == ""
    first = lines[1].split(",")
    assert (first[1], first[2], first[3], first[4]) == ("5", "9", "strict", "true")


def test_rotation_sweep_random_mode_deterministic(capsys):
    args = (
        "rotation-sweep", "--alphas", "2.3,1.7", "--samples", "5",
        "--seed", "11", "--max-opnorm", "0.1",
    )
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert len(first.split("\r\n")) == 7


def test_rotation_sweep_requires_exactly_one_mode(capsys):
    code, _, err = run(capsys, "rotation-sweep", "--alphas", "1,1")
    assert code == 1
    assert "exactly one" in err


def test_rotation_sweep_json_format(capsys):
    _, out, _ = run(
        capsys, "rotation-sweep", "--alphas", "1,1", "--thetas", "0.1",
        "--format", "json",
    )
    rows = json.loads(out)
    assert rows[0]["g"] == 5 and rows[0]["corner_excluded"] is True


def test_lp_sweep_csv(capsys):
    code, out, _ = run(capsys, "lp-sweep", "--alphas", "1.5,1.5", "--ps", "1,2,inf")
    assert code == 0
    lines = out.split("\r\n")
    assert lines[0] == "p,count,ambiguous"
    assert lines[1] == "1.0,5,0"
    assert lines[2] == "2.0,9,0"
    assert lines[3] == "inf,9,0"


def test_lp_sweep_json(capsys):
    code, out, _ = run(
        capsys, "lp-sweep", "--alphas", "1.5,1.5", "--ps", "1,inf", "--format", "json"
    )
    assert code == 0
    assert out == (
        '[{"p":1.0,"count":5,"ambiguous":0},{"p":null,"count":9,"ambiguous":0}]\n'
    )


def test_sandwich_check_cli(capsys):
    code, out, _ = run(capsys, "sandwich-check", "--alphas", "2,1", "--scale", "1.05")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_ok"] is True
    assert payload["eps"] == pytest.approx(0.05, abs=1e-12)
    assert payload["eps_prime"] == pytest.approx(1 / 21, abs=1e-12)
    code, out, _ = run(
        capsys, "sandwich-check", "--alphas", "1,1", "--transform-givens", "0,1,0.1"
    )
    assert json.loads(out)["all_ok"] is True
    code, out, _ = run(
        capsys, "sandwich-check", "--alphas", "1,1", "--transform", "1,0,0,1"
    )
    assert json.loads(out)["eps"] == 0.0


def test_sandwich_check_requires_one_transform(capsys):
    code, _, err = run(capsys, "sandwich-check", "--alphas", "1,1")
    assert code == 1
    assert "exactly one" in err


# ----------------------------------------------------------- eps handling

def test_env_eps_widens_band(capsys, monkeypatch):
    monkeypatch.setenv("LATSTAB_EPS", "0.2")
    code, out, _ = run(capsys, "verify", "--alphas", "1,1", "--rotate-givens", "0,1,0.1")
    assert code == 3
    assert json.loads(out)["status"] == "boundary-ambiguous"


def test_explicit_eps_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("LATSTAB_EPS", "0.2")
    code, out, _ = run(
        capsys, "verify", "--alphas", "1,1", "--rotate-givens", "0,1,0.1",
        "--eps", "1e-9",
    )
    assert code == 0
    assert json.loads(out)["status"] == "strict"


def test_invalid_env_eps(capsys, monkeypatch):
    monkeypatch.setenv("LATSTAB_EPS", "banana")
    code, _, err = run(capsys, "verify", "--alphas", "1,1")
    assert code == 1
    assert "LATSTAB_EPS" in err


@pytest.mark.parametrize(
    "flag, env",
    [
        pytest.param("-1", None, id="eps=-1"),
        pytest.param("nan", None, id="eps=nan"),
        pytest.param("inf", None, id="eps=inf"),
        pytest.param(None, "nan", id="env=nan"),
        pytest.param(None, "inf", id="env=inf"),
    ],
)
def test_negative_eps_rejected(capsys, monkeypatch, flag, env):
    argv = ["verify", "--alphas", "2.3,1.7", "--p", "2.5"]
    if flag is not None:
        argv += ["--eps", flag]
    if env is not None:
        monkeypatch.setenv("LATSTAB_EPS", env)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "eps" in err


# ------------------------------------------------------------- file output

def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "verdict.json"
    code, out, _ = run(capsys, "verify", "--alphas", "1,1", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["status"] == "tight"


def test_out_preserves_crlf(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    run(
        capsys, "rotation-sweep", "--alphas", "1,1", "--thetas", "0.1",
        "--out", str(target),
    )
    raw = target.read_bytes()
    assert raw.count(b"\r\n") == 2
