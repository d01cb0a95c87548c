"""Record the stdout and exit code of every cli_cold call into
cli_golden.json.

Run it only at a commit whose CLI output is known to be right: the cli_cold
check compares every later run byte for byte with what this records.

    python3 bench/capture_golden.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# README-class calls whose compute is well under a millisecond, so a cold
# process is dominated by interpreter start and imports.  No --samples:
# random rotations would tie the output to the matrix exponential in use.
CALLS = (
    "verify --alphas 1,1",
    "verify --alphas 2.3,1.7",
    "verify --alphas 1,1 --rotate-givens 0,1,0.1",
    "verify --alphas 3/2,5/4,7/10 --rotate-givens 0,2,0.3",
    "verify --alphas 2.3,1.7 --p 2",
    "verify --alphas 1.5,1.5 --p 3",
    "verify --alphas 2.5,1.5 --p 2.5",
    "verify --alphas 2,1 --p inf",
    "count --alphas 2.3,1.7",
    "count --alphas 2.3,1.7 --p 2",
    "count --alphas 1,1 --rotate-givens 0,1,0.2",
    "minima --alphas 2.3,1.7",
    "minima --alphas 2,1.5 --p 2",
    "minima --alphas 1,1 --rotate-givens 0,1,0.1",
    "stability-radius --alphas 0.5,0.5,0.5,0.5",
    "stability-radius --alphas 2.3,1.7",
    "lp-threshold --alphas 1.5,1.5",
    "lp-threshold --alphas 2.3,1.7,0.4",
    "rotation-sweep --alphas 1,1 --plane 0,1 --thetas 0.01,0.05,0.1",
    "rotation-sweep --alphas 2,1,1 --plane 1,2 --thetas 0.2,0.4 --format json",
)


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    calls = []
    for text in CALLS:
        argv = text.split()
        proc = subprocess.run(
            [sys.executable, "-m", "latstab", *argv], capture_output=True, env=env, cwd=ROOT
        )
        if proc.stderr:
            sys.stderr.write(f"{text}: unexpected stderr {proc.stderr!r}\n")
            return 1
        calls.append({"argv": argv, "stdout": proc.stdout.decode(), "exit": proc.returncode})
    with open(os.path.join(HERE, "cli_golden.json"), "w") as fh:
        json.dump({"calls": calls}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
