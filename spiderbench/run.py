#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

Usage (from the root of a checkout):
    python3 spiderbench/run.py --workload geo-write --seed 1 --seconds 10 --trace 0
    python3 spiderbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/spiderbench (default .bench_build/) and
is reused when the sources have not changed. After each build the
benchmark's self-test runs once. The last line of standard output is the
benchmark's JSON result; build output goes to standard error.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "spiderbench")


def source_digest():
    """sha256 over the program and benchmark sources, so results name the
    code they measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build():
    """Configures and builds; runs the self-test when a binary changed.
    Returns the build directory, or None when the build failed."""
    bdir = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    bench = os.path.join(bdir, "spiderbench")
    selftest = os.path.join(bdir, "spiderbench_selftest")
    stamp = os.path.join(bdir, "selftest.passed")
    newest = max(os.path.getmtime(bench), os.path.getmtime(selftest))
    if not os.path.exists(stamp) or os.path.getmtime(stamp) < newest:
        if subprocess.run([selftest], stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("spiderbench: self-test failed", file=sys.stderr)
            return None
        with open(stamp, "w") as f:
            f.write("ok\n")
    return bdir


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build, run the self-test and exit")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    bdir = build()
    if bdir is None:
        print("spiderbench: build failed", file=sys.stderr)
        return 2
    if args.selftest:
        return subprocess.run([os.path.join(bdir, "spiderbench_selftest")]).returncode

    cmd = [os.path.join(bdir, "spiderbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", git_commit(),
           "--source-digest", source_digest()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("spiderbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
