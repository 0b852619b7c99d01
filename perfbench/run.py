#!/usr/bin/env python3
"""Benchmark entry point: builds the benchmark binary from source, runs one
workload in its own process and prints the result.

    python3 perfbench/run.py --workload market --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Run from the repository root. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end metrics; with
``--trace 1`` they are the per-layer metrics. A traced run executes the
workload twice, half the time each, in two processes: untraced, then with
the outside-in probes on. It refuses to report (exit code 1, no result)
when the guard counts of the two differ, and reports the probes' cost as
``trace.overhead_min``. See perfbench/README.md for the workloads, the
metrics and the seeds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("market", "overlay", "service")
# The default seed, and the held-out seed to re-check a claimed gain on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20021
# A run must end within this many seconds of starting (the build excepted).
RUN_DEADLINE_S = 175.0
BUILD_TIMEOUT_S = 880.0


class BenchError(Exception):
    pass


def metric_lists():
    """The end-to-end and per-layer metrics, as (name, unit) pairs, from
    BENCHMARK.json: the one list of what a run reports."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return {key: [(m["name"], m["unit"]) for m in spec[key]]
                for key in ("end_to_end", "per_layer")}
    except (OSError, ValueError, KeyError) as e:
        raise BenchError(f"cannot read the metric lists from BENCHMARK.json: {e}")


def build():
    """Builds the benchmark binary and returns its path."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if done.returncode != 0:
        raise BenchError(f"build failed with exit code {done.returncode}")
    return os.path.join(ROOT, target, "release", "perfbench")


def run_binary(binary, workload, seed, seconds, trace, deadline):
    cmd = [
        binary, workload,
        "--seed", str(seed),
        "--seconds", repr(float(seconds)),
        "--trace", "1" if trace else "0",
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish in time")
    if done.returncode != 0:
        raise BenchError(f"{workload} exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} printed no result")
    return json.loads(lines[-1])


def fail_ratio(r):
    return r["failed"] / max(r["attempted"], 1)


def describe(r):
    """Human-readable lines for one binary result."""
    e = r["e2e"]
    env = r["env"]
    return [
        f"{r['workload']} (seed {r['seed']}, {'traced' if r['trace'] else 'untraced'}, "
        f"{r['batches']} batches, correct={r['correct']})",
        f"  setup_s        {e['setup_s']:.4f} s   (fastest of {len(r['setup_reps_s'])}; "
        f"median {statistics.median(r['setup_reps_s']):.4f} s)",
        f"  ops_per_s      {e['ops_per_s']:.1f} 1/s   (fastest cycle)",
        f"  batch_min_ms   {e['batch_min_ms']:.4f} ms",
        f"  peak_rss_mb    {e['peak_rss_mb']:.2f} MiB",
        f"  mean_ops_per_s {e['mean_ops_per_s']:.1f} 1/s",
        f"  batch_p50_ms   {e['batch_p50_ms']:.4f} ms",
        f"  batch_p90_ms   {e['batch_p90_ms']:.4f} ms",
        f"  fail_ratio     {fail_ratio(r):.6f} 1   ({r['failed']} of {r['attempted']})",
        f"  env            steal {env['steal_ratio']:.4f}, nonvoluntary switches "
        f"{env['nonvoluntary_ctxt_switches']}, cpu util {env['cpu_util']:.3f}",
    ]


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(binary, workload, seed, seconds, deadline, lists):
    r = run_binary(binary, workload, seed, seconds, False, deadline)
    print("\n".join(describe(r)))
    metrics = {name: metric(r["e2e"][name], unit) for name, unit in lists["end_to_end"]}
    return r, metrics


def traced(binary, workload, seed, seconds, deadline, lists):
    half = max(seconds / 2.0, 0.5)
    base = run_binary(binary, workload, seed, half, False, deadline)
    probe = run_binary(binary, workload, seed, half, True, deadline)
    print("\n".join(describe(base)))
    print("\n".join(describe(probe)))
    if base["guard"] != probe["guard"]:
        diff = sorted(k for k in set(base["guard"]) | set(probe["guard"])
                      if base["guard"].get(k) != probe["guard"].get(k))
        raise BenchError(f"guard counts differ between untraced and traced runs: {diff}")
    env = base["env"]
    measured = dict(probe["layers"])
    measured.update({
        "env.steal_ratio": env["steal_ratio"],
        "env.nonvoluntary_ctxt_switches": env["nonvoluntary_ctxt_switches"],
        "env.cpu_util": env["cpu_util"],
        "trace.overhead_min": probe["e2e"]["batch_min_ms"] / base["e2e"]["batch_min_ms"] - 1.0,
        "check.fail_ratio": fail_ratio(base),
        "run.mean_ops_per_s": base["e2e"]["mean_ops_per_s"],
        "run.batch_p50_ms": base["e2e"]["batch_p50_ms"],
        "run.batch_p90_ms": base["e2e"]["batch_p90_ms"],
    })
    unknown = sorted(set(measured) - {name for name, _ in lists["per_layer"]})
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json's per_layer list: {unknown}")
    # Metrics of layers this workload does not exercise read 0.
    metrics = {name: metric(measured.get(name, 0), unit) for name, unit in lists["per_layer"]}
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": base["correct"] and probe["correct"],
        "attempted": base["attempted"] + probe["attempted"],
        "failed": base["failed"] + probe["failed"],
    }
    return result, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out "
                         "for re-checking a claimed gain)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    run = traced if args.trace else untraced
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        lists = metric_lists()
        binary = build()
        for w in workloads:
            deadline = time.monotonic() + RUN_DEADLINE_S
            r, metrics = run(binary, w, args.seed, args.seconds, deadline, lists)
            out["correct"] = out["correct"] and bool(r["correct"])
            out["attempted"] += int(r["attempted"])
            out["failed"] += int(r["failed"])
            prefix = f"{w}." if len(workloads) > 1 else ""
            out["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
