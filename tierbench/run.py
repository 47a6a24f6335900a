#!/usr/bin/env python3
"""Tier-ladder benchmark runner.

    python3 tierbench/run.py --workload figures_cold|serve_hot|serve_cold \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark binary from source
(`cargo build --release` into $CARGO_TARGET_DIR, default `.bench_build`),
then runs the workload in fresh processes:

* `--trace 0`: SETUP_REPEATS set-up-only processes plus one measuring
  process; prints the end-to-end metrics BENCHMARK.json lists, `setup_s`
  being the median set-up time of all of them.
* `--trace 1`: one untraced and one traced process on the same seed;
  prints the per-layer metrics BENCHMARK.json lists (a layer the
  workload does not exercise reads 0), among them the tracing overhead
  (the gap between the two processes) and the per-layer coverage.

The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The line before it gives the run's
context (seed, host parallelism, campaign counts). Exits non-zero, with
no result line, if the build or any process fails or an output is wrong.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("figures_cold", "serve_hot", "serve_cold")
# Extra set-up-only processes per untraced run; setup_s is the median.
SETUP_REPEATS = 2
# Every measuring process together must end inside the benchmark's 180 s
# budget (the build before them aside).
BUDGET_S = 170


def fail(message):
    print(f"tierbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(manifest, target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(manifest)]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, check=False)
    if done.returncode != 0:
        fail("build failed")
    return target_dir / "release" / "tierbench"


def run_process(binary, args, mode, out_dir):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--out-dir", str(out_dir)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, args.deadline - time.monotonic()),
                              check=False)
    except subprocess.TimeoutExpired:
        fail(f"{mode} process timed out")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{mode} process exited {done.returncode} without a report")
    report = json.loads(lines[-1])
    if done.returncode != 0 or report["violations"]:
        for v in report["violations"]:
            print(f"tierbench: {mode}: {v}", file=sys.stderr)
        fail(f"{mode} process failed (exit {done.returncode}, "
             f"{report['failed']} of {report['attempted']} outputs wrong)")
    return report


def value(report, name):
    return report["metrics"][name]["value"]


def end_to_end(binary, args, out_dir):
    setups = [value(run_process(binary, args, "setup", out_dir), "setup_s")
              for _ in range(SETUP_REPEATS)]
    report = run_process(binary, args, "run", out_dir)
    setups.append(value(report, "setup_s"))
    report["metrics"]["setup_s"]["value"] = statistics.median(setups)
    report["info"]["setup_s_samples"] = setups
    return report


def listed_metrics(report, listed, fill_missing):
    """The report's metrics, exactly as BENCHMARK.json lists them.

    A listed metric the process did not report is a bug, except in the
    traced run, where it is a layer this workload does not exercise and
    reads 0. A unit that disagrees with the list is always a bug.
    """
    metrics = {}
    for m in listed:
        got = report["metrics"].get(m["name"])
        if got is None:
            if not fill_missing:
                fail(f"metric {m['name']} was not measured")
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} is in {got['unit']}, listed in {m['unit']}")
        metrics[m["name"]] = got
    return metrics


def per_layer(binary, args, out_dir):
    plain = run_process(binary, args, "run", out_dir)
    traced = run_process(binary, args, "trace", out_dir)
    if args.workload == "figures_cold":
        if plain["info"]["results_digest"] != traced["info"]["results_digest"]:
            fail("traced figure results differ from the untraced figures")
        overhead = traced["info"]["window_s"] / plain["info"]["window_s"] - 1
    else:
        overhead = plain["info"]["throughput_rps"] / traced["info"]["throughput_rps"] - 1
    traced["metrics"]["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    traced["attempted"] += plain["attempted"]
    traced["failed"] += plain["failed"]
    return traced


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    here = Path(__file__).resolve().parent
    listed = json.loads((here.parent / "BENCHMARK.json").read_text())
    listed = listed["per_layer" if args.trace else "end_to_end"]
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    binary = build(here / "Cargo.toml", target_dir)
    args.deadline = time.monotonic() + BUDGET_S
    out_dir = target_dir / "tierbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)

    report = (per_layer if args.trace else end_to_end)(binary, args, out_dir)
    metrics = listed_metrics(report, listed, fill_missing=bool(args.trace))
    print(json.dumps({"context": report["info"]}))
    print(json.dumps({
        "correct": report["correct"] and report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
