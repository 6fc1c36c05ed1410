"""Benchmark of the toricroots CLI, driven from outside the program.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload wide-entries --seed 1 --seconds 20 --trace 0

The seed decides the workload's list of analyses (see ``workloads.py``).
Each pass runs the whole list once in a fresh single-threaded process
(``worker.py``), so no fan is analysed, and no cache filled, before its
timed analysis.  Passes repeat for about ``--seconds`` (whole passes, the
count nearest that time); a pass is never cut short, so every run times
whole copies of the same list.
The first pass's outputs go through the independent checks in
``checks.py``; a later pass must reproduce them byte for byte.
Every time is scaled to the reference host speed of ``calibrate.py`` by the
kernel times taken right before and after it in the same process, so the
shared host's changes of speed drop out of the figures.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` the passes run under the layer trace of ``tracing.py``
and it carries the per-layer totals, averaged per pass.  Either way the full
result goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
#: Passes in a run, at least, so a pass of 50 analyses yields the 100
#: samples the 90th percentile needs (ten beyond it).
MIN_PASSES = 2
#: Fresh processes whose set-up time is measured in one run, at least.
SETUP_SAMPLES = 9
#: A pass that runs this long is killed and the run fails, so that a hang
#: ends the run well inside its three minutes.
PASS_TIMEOUT_S = 150


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(workloads.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_pass(env, analyses, trace):
    """One pass in a fresh worker process: its set-up time scaled to the
    reference host speed, one record per analysis, and the closing record
    (peak memory, kernel times, trace totals)."""
    job = json.dumps({"trace": bool(trace), "analyses": analyses})
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=job, capture_output=True, text=True, env=env, check=False,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    return lines[0]["setup_s"] * speed_scale(*lines[0]["kernel_s"]), lines[1:-1], lines[-1]


def speed_scale(before, after):
    """Factor that takes a time measured between these two kernel times to
    the reference host speed."""
    return 2 * calibrate.REFERENCE_S / (before + after)


def load_oracle(root):
    """``tests/oracles.brute_force_open_orbit_rootsets`` as a function of a
    canonical matrix, returning frozensets of root coordinates."""
    sys.path.insert(0, str(root / "src"))
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    from toricroots import validate_ray_matrix

    def oracle(rows):
        A = validate_ray_matrix(rows, len(rows[0]))
        return [rs.coords for rs in oracles.brute_force_open_orbit_rootsets(A)]

    return oracle


def check_pass(workload, analyses, records, oracle):
    """Failure message (or None) of each analysis of a pass."""
    checker = checks.CHECKERS[workload]
    out = []
    for analysis, record in zip(analyses, records):
        kwargs = {"oracle": oracle} if analysis.extra.get("oracle") else {}
        try:
            checker(analysis, record["results"], **kwargs)
            out.append(None)
        except checks.Mismatch as exc:
            out.append(str(exc))
        except (KeyError, TypeError, ValueError) as exc:  # malformed output
            out.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return out


def digest(record):
    return hashlib.sha256(json.dumps(record["results"]).encode()).hexdigest()


def measure(args, root):
    analyses = workloads.BUILDERS[args.workload](args.seed)
    commands = [a.commands for a in analyses]
    oracle = load_oracle(root) if any(a.extra.get("oracle") for a in analyses) else None
    env = dict(os.environ, PYTHONPATH=str(root / "src"))  # the only extra import path
    run_pass(env, [], False)  # compiles the bytecode; not measured

    seconds, setups, rss, traces, pass_wall, scales = [], [], [], [], [], []
    attempted = failed = 0
    reference, problems = None, {}  # problems: analysis index -> first message
    # start another pass while that brings the total nearer to --seconds
    while len(pass_wall) < MIN_PASSES or sum(pass_wall) + statistics.mean(pass_wall) / 2 < args.seconds:
        start = time.perf_counter()
        setup_s, records, last = run_pass(env, commands, args.trace)
        pass_wall.append(time.perf_counter() - start)
        if len(records) != len(analyses):
            raise RuntimeError(f"pass returned {len(records)} of {len(analyses)} analyses")
        kernel = [r["kernel_s"] for r in records] + [last["kernel_s"]]
        scales.append(calibrate.REFERENCE_S / statistics.median(kernel))
        setups.append(setup_s)
        rss.append(last["rss_mb"])
        traces.append(last["trace"])
        seconds += [r["seconds"] * speed_scale(*kernel[k:k + 2]) for k, r in enumerate(records)]
        digests = [digest(r) for r in records]
        if reference is None:
            reference = digests
            messages = check_pass(args.workload, analyses, records, oracle)
            checked = {k: m for k, m in enumerate(messages) if m}
            problems.update(checked)
        changed = {k for k, d in enumerate(digests) if d != reference[k]}
        for k in changed:
            problems.setdefault(k, "output differs from the first pass")
        attempted += len(records)
        failed += len(checked.keys() | changed)
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_pass(env, [], False)[0])

    for k, message in sorted(problems.items())[:5]:
        print(f"FAILED {analyses[k].commands[0]}: {message}", file=sys.stderr)
    if args.trace:
        names = tracing.metric_names()
        # self times are scaled by the pass's median kernel time; counts are not
        metrics = {
            name: {
                "value": sum(
                    t.get(name, 0) * (scale if unit == "s" else 1)
                    for t, scale in zip(traces, scales)
                ) / len(traces),
                "unit": unit,
            }
            for name, unit in names
        }
    else:
        n = len(analyses)
        per_pass = [n / sum(seconds[k:k + n]) for k in range(0, len(seconds), n)]
        ms = sorted(s * 1000 for s in seconds)
        metrics = {
            "analyses_per_s": {"value": statistics.median(per_pass), "unit": "analyses/s"},
            "analysis_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
            "analysis_p90_ms": {"value": statistics.quantiles(ms, n=10)[8], "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "analyses_per_pass": len(analyses), "passes": len(pass_wall),
        "pass_wall_s": pass_wall, "speed_scale": scales, "setup_s": setups, "rss_mb": rss,
        "analysis_scaled_s": [seconds[k:k + len(analyses)] for k in range(0, len(seconds), len(analyses))],
        "problems": {str(k): m for k, m in problems.items()},
        "trace_per_pass": traces if args.trace else None,
        "result": result,
    }
    return result, detail


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "toricroots" / "cli.py").is_file():
        print("error: run from the root of a toricroots checkout (src/toricroots is missing)", file=sys.stderr)
        return 2
    result, detail = measure(args, root)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
