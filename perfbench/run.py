#!/usr/bin/env python3
"""Builds and runs the FlowKV end-to-end NEXMark benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload q7-aar --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The benchmark binary is built from ../src with perfbench/CMakeLists.txt into
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench); the root build files
are not used. Stores live in .bench_work/ and are removed after each run. A
traced run (--trace 1) also writes its spans to .bench_out/<workload>.trace.json.
The last line of standard output is the result JSON; see README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("q7-aar", "q11median-aur-spill", "q11-rmw-remote", "q7-aar-push")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def scratch_dir():
    # Compiler and program temporaries stay inside the checkout.
    path = os.path.join(ROOT, ".bench_work", "tmp")
    os.makedirs(path, exist_ok=True)
    return path


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no FlowKV sources at %s/src; run from a source checkout" % ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    env = dict(os.environ, CCACHE_DISABLE="1", TMPDIR=scratch_dir())
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "-j", "4", "--target", "flowkv_perfbench"])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "flowkv_perfbench")


def run(binary, argv, work_dir):
    os.makedirs(work_dir, exist_ok=True)
    try:
        proc = subprocess.run(
            [binary] + argv + ["--work-dir", work_dir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
            env=dict(os.environ, TMPDIR=scratch_dir()))
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--backend", choices=("flowkv", "lsm", "memory"), default="flowkv",
                    help="state backend of an embedded workload; lsm and memory give "
                         "reference figures only")
    ap.add_argument("--self-test", action="store_true",
                    help="show that the result and conservation checks catch mutated results")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    binary = build()
    work_root = os.path.join(ROOT, ".bench_work")
    if args.self_test:
        return run(binary, ["--self-test", "1"], os.path.join(work_root, "self-test"))

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--backend", args.backend,
            "--spans-out", os.path.join(out_dir, args.workload + ".trace.json")]
    work_dir = os.path.join(work_root, "%s-%d" % (args.workload, os.getpid()))
    # Set-up time runs from here: the binary's exec and loading count.
    argv += ["--start-ns", str(time.monotonic_ns())]
    return run(binary, argv, work_dir)


if __name__ == "__main__":
    sys.exit(main())
