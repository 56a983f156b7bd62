#!/usr/bin/env python3
"""Runs one darklight benchmark workload for one seed.

    python3 perfbench/run.py --workload batch|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root. It builds the benchmark package
(perfbench/Cargo.toml) into $CARGO_TARGET_DIR (default .bench_build),
generates the seed's inputs as TSV in one process, measures the workload
in a second process that reads only those files, and prints that
process's output. The last line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; with --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones. See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("batch", "serve")
# The library reads these and would inject faults mid-run.
FAULT_ENV = ("DARKLIGHT_FAULT_PANICS", "DARKLIGHT_FAULT_IO")
# Base seed of the scenario matrix (darklight_synth::matrix::MATRIX_SEED).
DEFAULT_SEED = 0xD19B117E
BUILD_TIMEOUT_S = 840
GEN_TIMEOUT_S = 60
RUN_TIMEOUT_S = 165


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for var in FAULT_ENV:
        if var in os.environ:
            parser.error(f"{var} is set; unset fault injection before benchmarking")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds at least 1")

    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")
    binary = os.path.join(target, "release", "darklight-perfbench")

    bench_work = os.path.join(root, ".bench_work")
    # Inputs depend on the seed and the built generator alone, so every
    # workload's runs of one build share them. The generator writes the
    # `seed` file last, marking a complete set.
    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    inputs = os.path.join(bench_work, f"inputs-{args.seed}-{build_id}")
    work = os.path.join(bench_work, f"{args.workload}-{args.seed}-{os.getpid()}")
    scratch = os.path.join(work, "scratch")
    os.makedirs(scratch)
    try:
        if not os.path.exists(os.path.join(inputs, "seed")):
            fresh = os.path.join(work, "inputs")
            gen = subprocess.run(
                [binary, "gen", "--seed", str(args.seed), "--out", fresh],
                stdout=sys.stderr,
                timeout=GEN_TIMEOUT_S,
            )
            if gen.returncode != 0:
                fail(f"input generation failed with exit code {gen.returncode}")
            shutil.rmtree(inputs, ignore_errors=True)
            os.replace(fresh, inputs)
        spans = os.path.join(bench_work, f"spans-{args.workload}-{args.seed}.json")
        run = subprocess.run(
            [binary, "run", "--workload", args.workload, "--inputs", inputs,
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scratch", scratch, "--spans", spans],
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail(f"benchmark failed with exit code {run.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {lines[-1]}")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
