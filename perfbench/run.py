#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout. It builds the stock release `dnc`
binary from the repository's own workspace, plus the benchmark package in
this directory (untraced, and a second copy with telemetry for
`--trace 1`), then runs one workload. Build output goes to standard
error; the benchmark's notes and, last, its JSON result line go to
standard output. Builds land in `$CARGO_TARGET_DIR` (default
`.bench_build`); scratch files in `.bench_work`.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["admit-tandem", "admit-commit", "analyze-sweep"]
DEFAULT_SEED = 1

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(cmd, env):
    """Run one cargo build, its output to stderr; False on failure."""
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (
        os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
        and os.path.isdir(os.path.join(ROOT, "crates", "cli"))
    ):
        print("perfbench: the repository's crates are missing; run it from a full checkout",
              file=sys.stderr)
        return 2

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    traced_target = os.path.join(target, "traced")
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "dnc-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest,
         "--features", "traced", "--target-dir", traced_target],
    ]
    for cmd in steps:
        if not build(cmd, env):
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2

    dnc = os.path.join(target, "release", "dnc")
    plain = os.path.join(target, "release", "perfbench")
    traced = os.path.join(traced_target, "release", "perfbench")
    cmd = [traced if args.trace else plain, "run",
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--dnc", dnc]
    if args.trace:
        cmd += ["--trace", "1", "--plain", plain]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
