#!/usr/bin/env python3
"""End-to-end GenPIP pipeline benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ecoli_er --seed 1 --seconds 20 --trace 0

Builds the benchmark package (perfbench/Cargo.toml, release profile, into
$CARGO_TARGET_DIR or .bench_build), packs the workload's reads for the seed
into a GSC container (untimed), then runs the measurement. Every line the
benchmark prints is passed through; the last line of standard output is the
JSON result. Any failure exits non-zero without printing a result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ecoli_er", "long_hq", "human_fastq")


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def build(target_dir):
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target_dir, "release", "genpip-perfbench")


def run_step(cmd):
    """Runs one benchmark step, passing its output through; returns its
    standard output lines."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode, proc.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("perfbench: --seed must be >= 0 and --seconds >= 1")

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(target_dir)

    work = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        gsc = os.path.join(work, "reads.gsc")
        code, _ = run_step(
            [binary, "pack", "--workload", args.workload, "--seed", str(args.seed), "--out", gsc]
        )
        if code != 0:
            sys.exit(f"perfbench: packing failed ({code})")
        code, lines = run_step(
            [
                binary, "run",
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--gsc", gsc,
                "--work", work,
                "--commit", git_commit(),
            ]
        )
        if code != 0 or not lines or not lines[-1].startswith("{"):
            sys.exit(f"perfbench: run failed ({code})")
    finally:
        # Keep only the trace; containers and FASTQ files are large.
        for name in os.listdir(work):
            if not name.startswith("trace-"):
                os.remove(os.path.join(work, name))
        if not os.listdir(work):
            shutil.rmtree(work)


if __name__ == "__main__":
    main()
