#!/usr/bin/env python3
"""Build bench_e2e from source and run one workload of the campaign benchmark.

Run from the repository root:

    python3 e2e_bench/run.py --workload fig4-medium --seed 2015 --seconds 25 --trace 0

The build goes to $CARGO_TARGET_DIR/e2e_bench (default .bench_build/e2e_bench)
and its output to stderr, so the last line of stdout is bench_e2e's JSON
summary. With --trace 1 the Chrome trace is written next to the build.
The exit code is bench_e2e's: 0 when every check passed.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "bench_e2e",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "bench_e2e")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=2015)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "e2e_bench"))
    cmd = [build(build_dir), "--workload=" + args.workload,
           "--seed=%d" % args.seed, "--seconds=%g" % args.seconds]
    if args.trace:
        cmd.append("--trace=" + os.path.join(
            build_dir, "trace-%s-%d.json" % (args.workload, args.seed)))
    sys.stdout.flush()
    code = subprocess.run(cmd).returncode
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
