#!/usr/bin/env python3
"""latstab benchmark.

    python3 bench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all --seed N [--seconds S] [--out FILE]

NAME is one of cli_cold, verify_mix, rotation_sweep, lp_threshold (see
README.md for why each exists).  Run it from anywhere inside a checkout of
the repository: it imports latstab from ``src/`` next to this directory,
never an installed copy, and exits 1 without a result if ``src/`` is
missing.

``--trace 0`` runs the workload for S seconds with tracing off and reports
the end-to-end metrics declared in BENCHMARK.json.  ``--trace 1`` reports
the per-layer metrics instead: import times from fresh processes, a warm
in-process ``cli.main``, and spans recorded around the calls between
latstab modules over a fixed, seeded set of operations (see spans.py).

Every operation's output is checked after the timed region; a wrong output
counts in ``failed``.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the line before it is an
``{"info": ...}`` object with the machine, the seed, fail_frac, the tail
percentile and its sample count.  ``--workload all`` runs every workload in
child processes, prints one table and, with ``--out``, writes the BENCH
file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("cli_cold", "verify_mix", "rotation_sweep", "lp_threshold")
#: Set-up is measured this many times per run (the run itself plus fresh
#: child processes) and reported as the median.
SETUP_SAMPLES = 3
#: Fresh processes per import-time sample set.
IMPORT_SAMPLES = 3
CHILD_TIMEOUT = 150


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))


def machine(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    numpy = sys.modules.get("numpy")
    scipy = sys.modules.get("scipy")
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "scipy": getattr(scipy, "__version__", None),
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
    }


def setup(name: str, seed: int):
    """Import latstab and build the workload's inputs; returns the workload
    and the seconds it took.  Imports are lazy so that they are timed."""
    t0 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name](seed, ROOT)
    return wl, time.perf_counter() - t0


def _run_child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=_child_env(),
        cwd=ROOT, timeout=CHILD_TIMEOUT,
    )


def setup_in_child(name: str, seed: int) -> float:
    proc = _run_child([__file__, "--workload", name, "--seed", str(seed), "--setup-only"])
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------ timed run


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile that
    still has at least ten samples beyond it, by nearest rank."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def measure(wl, seconds: float):
    """Closed loop over the workload's cycle until ``seconds`` have passed
    and the current throughput block is complete."""
    items = wl.items
    block = wl.block or len(items)
    latencies, results = [], []
    clock = time.perf_counter
    deadline = clock() + seconds
    k = 0
    while True:
        item = items[k % len(items)]
        t0 = clock()
        out = wl.run(item)
        t1 = clock()
        latencies.append(t1 - t0)
        results.append((item, out))
        k += 1
        if t1 >= deadline and k % block == 0:
            break
    rates = [
        block / sum(latencies[i : i + block]) for i in range(0, len(latencies), block)
    ]
    return latencies, results, rates


def _check_all(check, results) -> list[str]:
    failures = []
    for item, out in results:
        reason = check(item, out)
        if reason is not None:
            failures.append(reason)
    return failures


def timed_run(name: str, seed: int, seconds: float):
    wl, setup_s = setup(name, seed)
    latencies, results, rates = measure(wl, seconds)
    if name == "cli_cold":
        rss_kb = wl.max_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures = _check_all(wl.check, results)
    setups = [setup_s] + [setup_in_child(name, seed) for _ in range(SETUP_SAMPLES - 1)]
    value, pct, beyond = tail(latencies)
    metrics = {
        "ops_per_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": value * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    info = {
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "samples": len(latencies),
        "throughput_blocks": len(rates),
        "setup_samples_s": setups,
    }
    return len(results), failures, metrics, info


# ----------------------------------------------------------- traced run


def import_times() -> dict:
    """Import cost by layer, from fresh processes: interpreter start alone,
    then ``-X importtime`` of numpy, scipy.linalg and latstab imported in
    that order, so each figure excludes what the previous ones loaded."""
    clock = time.perf_counter
    start = []
    for _ in range(IMPORT_SAMPLES):
        t0 = clock()
        _run_child(["-c", "pass"])
        start.append(clock() - t0)
    layers = {"numpy": [], "scipy.linalg": [], "latstab": []}
    for _ in range(IMPORT_SAMPLES):
        proc = _run_child(
            ["-X", "importtime", "-c", "import numpy; import scipy.linalg; import latstab"]
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import child failed: {proc.stderr.strip()[-500:]}")
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in layers:
                layers[parts[2]].append(int(parts[1]) / 1e3)  # cumulative us -> ms
    return {
        "import.interpreter_ms": statistics.median(start) * 1e3,
        "import.numpy_ms": statistics.median(layers["numpy"]),
        "import.scipy_linalg_ms": statistics.median(layers["scipy.linalg"]),
        "import.latstab_ms": statistics.median(layers["latstab"]),
    }


def warm_cli(workloads) -> tuple[float, int, list[str]]:
    """Median ms of ``cli.main(argv)`` in this process over the cli_cold
    calls, three rounds; outputs are checked against the recorded ones."""
    golden = workloads.load_golden()
    times, failures, attempted = [], [], 0
    for _ in range(3):
        for expected in golden:
            t0 = time.perf_counter()
            out = workloads.run_cli_warm(expected["argv"])
            times.append(time.perf_counter() - t0)
            attempted += 1
            reason = workloads.check_cli(expected, *out)
            if reason is not None:
                failures.append(reason)
    return statistics.median(times) * 1e3, attempted, failures


def traced_run(name: str, seed: int):
    wl, _ = setup(name, seed)
    import spans
    import workloads

    metrics = import_times()
    metrics["cli.main_ms"], attempted, failures = warm_cli(workloads)
    items = list(wl.trace_items)

    def one_pass(tracer):
        """Each operation runs untraced and then traced, back to back, so
        that drift in machine speed falls on both alike."""
        results, untraced_s, traced_s = [], 0.0, 0.0
        for index, item in enumerate(items):
            t0 = time.perf_counter()
            results.append((item, wl.trace_run(item)))
            untraced_s += time.perf_counter() - t0
            with spans.installed(tracer):
                t0 = time.perf_counter()
                with tracer.operation(index):
                    results.append((item, wl.trace_run(item)))
                traced_s += time.perf_counter() - t0
        return untraced_s, traced_s, results

    passes = []
    for _ in range(2):
        tracer = spans.Tracer()
        untraced_s, traced_s, results = one_pass(tracer)
        failures += _check_all(wl.trace_check, results)
        passes.append((untraced_s, traced_s, tracer, *spans.layer_metrics(tracer.spans)))
    attempted += 4 * len(items)
    counts = passes[0][3]
    if passes[1][3] != counts:
        failures.append(f"trace counts differ between two passes: {counts} vs {passes[1][3]}")
    for key in passes[0][4]:
        metrics[key] = statistics.fmean(p[4][key] for p in passes)
    metrics.update({k: v for k, v in counts.items() if not k.startswith("contains_calls.")})
    metrics["trace.overhead_frac"] = sum(p[1] for p in passes) / sum(p[0] for p in passes) - 1.0

    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{name}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump([s.as_dict() for s in passes[1][2].spans], fh)
    info = {"trace_ops": len(items), "counts": counts, "untraced_s": [p[0] for p in passes],
            "traced_s": [p[1] for p in passes], "spans_file": os.path.relpath(path, ROOT)}
    return attempted, failures, metrics, info


# ---------------------------------------------------------------- modes


def single(args) -> int:
    units = _declared()[args.trace]
    if args.trace:
        attempted, failures, values, info = traced_run(args.workload, args.seed)
    else:
        attempted, failures, values, info = timed_run(args.workload, args.seed, args.seconds)
    if set(values) != set(units):
        sys.stderr.write(
            f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json\n"
        )
        return 1
    for reason in failures[:5]:
        sys.stderr.write(f"{args.workload}: wrong output: {reason}\n")
    info.update(
        workload=args.workload,
        trace=args.trace,
        fail_frac=len(failures) / attempted,
        machine=machine(args.seed),
    )
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    width = max(len(n) for n in WORKLOAD_NAMES)
    print(f"{'workload':<{width}}  {'metric':<34} {'value':>14}  unit")
    for name in WORKLOAD_NAMES:
        entry = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT,
            )
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            *_, info_line, result_line = proc.stdout.strip().splitlines()
            info, result = json.loads(info_line)["info"], json.loads(result_line)
            report["machine"] = info.pop("machine")
            entry["end_to_end" if trace == 0 else "per_layer"] = result["metrics"]
            entry[f"info_trace{trace}"] = info
            entry[f"result_trace{trace}"] = {k: result[k] for k in ("correct", "attempted", "failed")}
            rows = dict(result["metrics"])
            if trace == 0:
                rows["fail_frac"] = {"value": info["fail_frac"], "unit": "ratio"}
            for metric, m in rows.items():
                print(f"{name:<{width}}  {metric:<34} {m['value']:>14.6g}  {m['unit']}")
            if trace == 0:
                print(f"{'':<{width}}  (tail is p{info['tail_percentile']:.2f} of "
                      f"{info['samples']} operations)")
        report["workloads"][name] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write the results here as JSON")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "latstab", "__init__.py")):
        sys.stderr.write(f"latstab sources not found under {SRC}; run from a full checkout\n")
        return 1
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        print(setup(args.workload, args.seed)[1])
        return 0
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
