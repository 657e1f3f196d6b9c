#!/usr/bin/env python3
"""Build perfbench in Release from its own directory and run one workload.

    python3 perfbench/run.py --workload tpcc-paper --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest        # build + run the check tests

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the repository root). Build output goes to a log file there, so
the last line of standard output is the benchmark's JSON result. With
--trace 1 the Chrome trace is written to <build>/traces/.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["tpcc-paper", "tpcc-threads", "tpcc-housekeeping", "page-churn"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir, target):
    if not os.path.isfile(os.path.join(ROOT, "src", "db", "database.h")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"] + gen)
        steps.append(["cmake", "--build", build_dir, "--target", target,
                      "-j", jobs])
        for cmd in steps:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.close()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed; see " + log_path)
    return os.path.join(build_dir, target)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Reference-only variations for the README figures.
    p.add_argument("--measured-scale", type=float, default=1.0,
                   help="scale the measured phase only (write_amp halves)")
    p.add_argument("--placement", choices=["traditional"],
                   help="TPC-C: one region over all dies (Figure-3 baseline)")
    p.add_argument("--workers", type=int, help="tpcc-threads: worker count")
    p.add_argument("--selftest", action="store_true",
                   help="build and run the correctness-check tests")
    args = p.parse_args()

    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target_root):
        target_root = os.path.join(ROOT, target_root)
    build_dir = os.path.join(target_root, "perfbench")

    if args.selftest:
        binary = build(build_dir, "perfbench_checks_test")
        sys.exit(subprocess.run([binary]).returncode)
    if args.workload is None:
        fail("--workload is required (one of " + ", ".join(WORKLOADS) + ")")

    binary = build(build_dir, "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--measured-scale", repr(args.measured_scale)]
    if args.placement:
        cmd += ["--placement", args.placement]
    if args.workers:
        cmd += ["--workers", str(args.workers)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
