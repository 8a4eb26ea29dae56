#!/usr/bin/env python3
"""Build and run the vcsteer benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload sim-ideal --seed 1 --seconds 10 --trace 0

Run from the root of a vcsteer source tree. The first run configures and
builds the benchmark (CMake, Release) under .bench_build/perfbench; later runs
only re-check the build. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). The line before it is a report with every
figure the run measured. Exits non-zero when an output check fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = Path(".bench_build") / "perfbench"
BINARY = BUILD_DIR / "vcsteer_perfbench"
# Knobs that select between library code paths. The benchmark measures the
# default path only, so inherited settings are dropped; the binary also
# refuses to start if one is still set.
KNOBS = ("VCSTEER_BATCH", "VCSTEER_TRANSPOSE", "VCSTEER_KERNEL", "VCSTEER_LOG")
RUN_TIMEOUT_S = 170


def clean_env():
    env = {k: v for k, v in os.environ.items()
           if k not in KNOBS and not k.startswith("VCSTEER_TEST_CRASH_")}
    return env


def build(env):
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", "perfbench", "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, env=env, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                    "vcsteer_perfbench", "-j4"],
                   check=True, env=env, stdout=sys.stderr)


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    os.chdir(ROOT)
    if not Path("CMakeLists.txt").is_file() or not Path("src").is_dir():
        print("perfbench: no vcsteer source tree around perfbench/",
              file=sys.stderr)
        return 2
    env = clean_env()
    try:
        build(env)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--pins", "perfbench/digests.txt",
           "--work-dir", ".bench_build/perfbench-run"]
    if args.trace:
        spans = Path(".bench_build") / "perfbench-spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        return proc.returncode or 3

    result = json.loads(lines[-1])
    names = list(result["metrics"])
    if names != expected_metrics(args.trace):
        print("perfbench: emitted metrics do not match BENCHMARK.json: "
              f"{names}", file=sys.stderr)
        return 3
    print("\n".join(lines))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
