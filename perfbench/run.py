#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload point --seed 1 --seconds 16 --trace 0

Builds the scalein library, the shipped server (examples/scalein_served.cpp)
and the load generator from source into $CARGO_TARGET_DIR (default
.bench_build), then runs the load generator, which holds each workload's
settings. Its last stdout line is the result JSON; build output goes to
stderr. See perfbench/README.md.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 160


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(3)


def build(build_dir):
    needed = [os.path.join(ROOT, "src", "CMakeLists.txt"),
              os.path.join(ROOT, "examples", "scalein_served.cpp")]
    for path in needed:
        if not os.path.isfile(path):
            fail("scalein sources missing (%s); run from a full checkout"
                 % os.path.relpath(path, ROOT))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "scalein_served", "perfbench_load"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--keep", action="store_true",
                    help="keep the run directory (data, logs, traces)")
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    build(build_dir)
    run_dir = os.path.join(ROOT, ".bench_run", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    cmd = [os.path.join(build_dir, "perfbench_load"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(build_dir, "scalein_served"),
           "--run-dir", run_dir]
    if args.keep:
        cmd.append("--keep")
    sys.stdout.flush()
    # Own process group, so a timeout also stops the server it runs.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        returncode = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        returncode = None
    finally:
        if not args.keep:
            shutil.rmtree(run_dir, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(run_dir))
            except OSError:
                pass  # another run's directory is still there
    if returncode is None:
        fail("load generator exceeded %ds" % RUN_TIMEOUT_S)
    sys.exit(returncode)


if __name__ == "__main__":
    main()
